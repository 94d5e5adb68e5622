"""The shipped results reproduce: each of the four studies, rerun from its
config under configs/, writes the CSVs checked in under results/.

Integer and text cells (iterations, null, converged, stop_reason, n,
scheme) and the provenance and header lines must match exactly; other
numbers, printed to 6 significant digits, may differ by 1e-5 relative.
The sweep's runtime column is wall time and is not compared.
"""
from pathlib import Path

import pytest

from sparsebeam import cli

ROOT = Path(__file__).resolve().parent.parent
RTOL = 1e-5
UNCOMPARED = {"runtime"}


def same_cell(shipped: str, rerun: str) -> bool:
    if shipped == rerun:
        return True
    try:
        int(shipped)
        return False  # an integer cell matches exactly
    except ValueError:
        pass
    try:
        a, b = float(shipped), float(rerun)
    except ValueError:
        return False  # a text cell matches exactly
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def mismatches(shipped: str, rerun: str) -> list:
    """(line, column, shipped cell, rerun cell) of every cell that differs."""
    old, new = shipped.splitlines(), rerun.splitlines()
    if len(old) != len(new):
        return [("lines", None, len(old), len(new))]
    out, skip, header = [], set(), True
    for k, (a, b) in enumerate(zip(old, new)):
        if a.startswith("#") or header:  # provenance and the header match exactly
            if a != b:
                out.append((k, None, a, b))
            if not a.startswith("#"):
                header, skip = False, {j for j, c in enumerate(a.split(",")) if c in UNCOMPARED}
            continue
        row_a, row_b = a.split(","), b.split(",")
        if len(row_a) != len(row_b):
            out.append((k, None, a, b))
        else:
            out += [(k, j, x, y) for j, (x, y) in enumerate(zip(row_a, row_b))
                    if j not in skip and not same_cell(x, y)]
    return out


def test_cell_rule():
    assert same_cell("9.61119", "9.6112")
    assert not same_cell("9.61119", "9.6113")
    assert not same_cell("29", "30") and not same_cell("0", "1e-300")
    assert not same_cell("converged", "max_iter")
    header = "eta,iterations,runtime\n"
    assert mismatches(header + "1e-05,5,0.01\n", header + "1.000001e-05,5,0.5\n") == []
    assert mismatches(header + "1e-05,5,0.01\n", header + "1e-05,6,0.01\n") == [(1, 1, "5", "6")]


@pytest.mark.parametrize("study", ["solve", "sweep", "convergence", "locking"])
def test_shipped_results_reproduce(study, tmp_path):
    shipped = sorted((ROOT / "results" / study).glob("*.csv"))
    assert shipped
    argv = [study, "--config", str(ROOT / "configs" / f"{study}.ini"), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    for path in shipped:
        assert mismatches(path.read_text(), (tmp_path / path.name).read_text()) == [], path.name
