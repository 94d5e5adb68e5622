"""Study drivers and the command-line front end."""
from pathlib import Path

import numpy as np
import pytest

from reference import support_measure, support_runs
from sparsebeam import experiments, ssn
from sparsebeam.cli import main
from sparsebeam.config import ConfigError, load_config
from sparsebeam.experiments import (
    _fit_rate,
    format_number,
    provenance_lines,
    run_convergence,
    run_locking,
    run_solve,
    run_sweep,
)
from sparsebeam.meshes import P0Field, build_uniform_mesh


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return path


TOY = """
[geometry]
n = 20

[material]
youngs_modulus = 1.0
thickness = 0.01
kappa_override = 1.0

[control]
nu = 1e-6
eta = {eta}
lower = -15
upper = 15

[data]
f = sine: 40, 2
w_d = sine: 0.01, 1
"""

STUDY = """
[study]
etas = 0, 1e-4, 2e-4, 5e-4, 7e-4
"""

GRID = """
[study]
thicknesses = 0.01, 0.001
mesh_sizes = 8, 16
ref_factor = 4
"""
# a convergence study solves [material] thickness alone
CONVERGENCE_GRID = GRID.replace("thicknesses = 0.01, 0.001\n", "")


class TestHelpers:
    def test_format_number(self):
        assert format_number("locking_free") == "locking_free"
        assert format_number(True) == "1"
        assert format_number(7) == "7"
        assert format_number(0.000123456789) == "0.000123457"

    def test_fit_rate_recovers_exact_slope(self):
        hs = [0.1, 0.05, 0.025, 0.0125]
        errs = [3.0 * h**2 for h in hs]
        assert _fit_rate(hs, errs) == pytest.approx(2.0, abs=1e-12)

    def test_fit_rate_degenerate(self):
        assert np.isnan(_fit_rate([0.1, 0.05], [0.0, 0.0]))

    def test_support_runs_and_measure(self):
        mesh = build_uniform_mesh(8)
        u = P0Field(mesh, np.array([0.0, 1.0, 1.0, 0.0, 0.0, -2.0, 0.0, 3.0]))
        assert support_runs(u) == 3
        assert support_measure(u) == pytest.approx(4.0 / 8.0)
        assert support_runs(P0Field.zeros(mesh)) == 0
        assert support_measure(P0Field.zeros(mesh)) == 0.0
        full = P0Field(mesh, np.ones(8))
        assert support_runs(full) == 1
        assert support_measure(full) == pytest.approx(1.0)


class TestProvenance:
    # a file that sets no optional key: every value below is a dataclass
    # default, and the bracketed defaults of config's docstring must match
    DEFAULTS = [
        "# n = 16",
        "# length = 1",
        "# youngs_modulus = 1.44e+09",
        "# thickness = 0.01",
        "# shear_correction = 0.833333",
        "# poisson = 0.35",
        "# nu = 1e-06",
        "# eta = 0",
        "# lower = -inf",
        "# upper = inf",
        "# f = zero",
        "# g = zero",
        "# w_d = zero",
        "# scheme = locking_free",
        "# ref_factor = 8",
    ]

    def test_header_of_a_config_with_no_optional_key(self, tmp_path):
        body = "[geometry]\nn = 16\n\n[control]\nnu = 1e-6\neta = 0\n"
        assert provenance_lines(load_config(write_config(tmp_path, body))) == self.DEFAULTS

    def test_kappa_override_follows_poisson(self, tmp_path):
        body = ("[geometry]\nn = 16\n\n[material]\nkappa_override = 0.75\nyoungs_modulus = 1\n"
                "\n[control]\nnu = 1e-6\neta = 0\n")
        expected = list(self.DEFAULTS)
        expected[2] = "# youngs_modulus = 1"
        expected.insert(6, "# kappa_override = 0.75")
        assert provenance_lines(load_config(write_config(tmp_path, body))) == expected

    def test_study_keys_are_recorded(self, tmp_path):
        # a grid study's meshes and reference factor, a sweep's weights
        cfg = load_config(write_config(tmp_path, TOY.format(eta="0") + GRID))
        assert provenance_lines(cfg)[-3:] == [
            "# thicknesses = 0.01, 0.001", "# mesh_sizes = 8, 16", "# ref_factor = 4"]
        cfg = load_config(write_config(tmp_path, TOY.format(eta="0") + STUDY, "sweep.ini"))
        assert provenance_lines(cfg)[-2:] == ["# etas = 0, 0.0001, 0.0002, 0.0005, 0.0007",
                                              "# ref_factor = 8"]


class TestRunSolve:
    def test_zero_data_writes_zero_fields(self, tmp_path):
        body = "[geometry]\nn = 12\n\n[control]\nnu = 1e-4\neta = 0\nlower = -1\nupper = 1\n"
        cfg = load_config(write_config(tmp_path, body))
        out = tmp_path / "results"
        res = run_solve(cfg, out)
        assert res.converged
        u = np.loadtxt(out / "u.dat")
        assert u.shape == (12, 2)
        assert np.all(u[:, 1] == 0.0)
        for name in ("w.dat", "theta.dat", "p.dat", "q.dat"):
            assert (out / name).exists()
        text = (out / "summary.csv").read_text()
        assert text.startswith("# n = 12")
        header, row = [l.split(",") for l in text.splitlines() if not l.startswith("#")]
        assert header[:4] == ["eta", "nu", "cost", "tracking_cost"]
        assert header[8:11] == ["iterations", "stop_reason", "converged"]
        assert row[9:11] == ["converged", "1"]

    def test_field_files_reload_as_inputs(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TOY.format(eta="1e-4")))
        out = tmp_path / "results"
        res = run_solve(cfg, out)
        # the written control reloads bit-exactly through the file: catalog
        body2 = TOY.format(eta="1e-4") + f"\n# reload\n"
        cfg2 = load_config(write_config(tmp_path, body2, name="again.ini"))
        from sparsebeam.config import _realize_field
        mesh = build_uniform_mesh(20)
        u2 = _realize_field(f"file: {out/'u.dat'}", mesh)
        assert isinstance(u2, P0Field)
        assert np.array_equal(u2.values, res.u.values)


class TestRunSweep:
    def test_rows_and_determinism(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TOY.format(eta="0") + STUDY))
        rows1 = run_sweep(cfg)
        rows2 = run_sweep(cfg)
        assert len(rows1) == 5
        assert all(r["converged"] for r in rows1)
        # identical up to the runtime column
        for a, b in zip(rows1, rows2):
            assert {**a, "runtime": 0} == {**b, "runtime": 0}
        costs = [r["cost"] for r in rows1]
        assert costs == sorted(costs)

    def test_shipped_sweep_work(self):
        # each warm-started eta goes straight to a reseed centered at the
        # previous eta's control, and probes only after one-solve stages at
        # or below the secant: 141 pattern solves (155 with a probe after
        # every one-solve stage, 208 with the cold loop first and a probe
        # after every settled stage; more than 300 with a cold center)
        rows = run_sweep(load_config(CONFIGS / "sweep.ini"))
        assert all(r["converged"] for r in rows)
        assert sum(r["iterations"] for r in rows) <= 145

    def test_eta_list_validation(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TOY.format(eta="0")))
        with pytest.raises(ConfigError):
            run_sweep(cfg)  # no etas given
        bad = load_config(write_config(
            tmp_path, TOY.format(eta="0") + "[study]\netas = 2e-4, 1e-4\n", name="bad.ini"))
        with pytest.raises(ConfigError):
            run_sweep(bad)

    def test_csv_shape(self, tmp_path):
        path = write_config(tmp_path, TOY.format(eta="0") + STUDY)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "eta,cost,l2norm,null,iterations,stop_reason,converged,runtime"
        assert len(data) == 6
        assert all(row.split(",")[5:7] == ["converged", "1"] for row in data[1:])


class TestGridStudies:
    def test_locking_rows(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TOY.format(eta="1e-4") + GRID))
        rows = run_locking(cfg)
        # schemes x thicknesses x mesh sizes
        assert len(rows) == 2 * 2 * 2
        assert all(r["converged"] and r["stop_reason"] == "converged" for r in rows)
        keys = {(r["scheme"], r["thickness"], r["n"]) for r in rows}
        assert ("standard", 0.001, 16) in keys
        assert rows == sorted(rows, key=lambda r: (r["scheme"], r["thickness"], r["n"]))
        thin = {r["scheme"]: r for r in rows if r["thickness"] == 0.001 and r["n"] == 16}
        assert thin["standard"]["control_error"] > thin["locking_free"]["control_error"]

    def test_convergence_rows_and_slopes(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TOY.format(eta="1e-4") + CONVERGENCE_GRID))
        rows, slopes = run_convergence(cfg)
        assert len(rows) == 2
        assert {r["thickness"] for r in rows} == {0.01}
        assert set(slopes) == {"control", "state", "adjoint"}
        assert all(r["converged"] and r["stop_reason"] == "converged" for r in rows)
        errs = [r["control_error"] for r in rows]
        assert errs[0] > errs[1]  # finer mesh, smaller error

    def test_convergence_rejects_thicknesses(self, tmp_path, monkeypatch):
        # the study solves [material] thickness alone, so a thickness list
        # it would not solve is a configuration error, raised before any solve
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a convergence study that sets [study] thicknesses")

        monkeypatch.setattr(experiments, "ssn_solve", no_solve)
        cfg = load_config(write_config(tmp_path, TOY.format(eta="1e-4") + GRID))
        with pytest.raises(ConfigError, match=r"\[study\] thicknesses"):
            run_convergence(cfg)


class TestCLI:
    def test_solve_roundtrip_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, TOY.format(eta="1e-4"))
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "r")])
        assert code == 0
        assert (tmp_path / "r" / "summary.csv").exists()

    def test_config_error_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, "[geometry]\nn = -2\n\n[control]\nnu = 1\neta = 0\n")
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section,line", [
        ("[solver]\n", "adjoint_theta_term = yes"),
        ("[data]\n", "theta_d = zero"),
    ], ids=["adjoint_theta_term", "theta_d"])
    def test_removed_rotation_keys_exit_one(self, tmp_path, capsys, section, line):
        # the cost tracks the deflection only: an old rotation-tracking config
        # fails instead of solving a different problem
        body = (TOY.format(eta="1e-4") + "\n[solver]\n").replace(section, section + line + "\n")
        path = write_config(tmp_path, body)
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 1
        assert "configuration error:" in err and "unknown key" in err and line.split()[0] in err
        assert not (tmp_path / "r").exists()

    def test_missing_config_exit_one(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "gone.ini"),
                     "--out", str(tmp_path / "r")])
        assert code == 1

    def test_nonconvergence_exit_two(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ssn, "_MAX_ITER", 1)
        body = TOY.format(eta="3e-4")
        path = write_config(tmp_path, body)
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "r")])
        assert code == 2
        rows = [l for l in (tmp_path / "r" / "summary.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert dict(zip(*(r.split(",") for r in rows)))["stop_reason"] == "max_iter"

    def test_sweep_command_writes_csv(self, tmp_path):
        path = write_config(tmp_path, TOY.format(eta="0") + STUDY)
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")])
        assert code == 0
        assert (tmp_path / "s" / "sweep.csv").exists()

    def test_solve_with_midpoint_file_target(self, tmp_path):
        # samples at the element midpoints load as a piecewise constant target
        mesh = build_uniform_mesh(20)
        np.savetxt(tmp_path / "target.dat",
                   np.column_stack([mesh.midpoints, 0.01 * np.sin(np.pi * mesh.midpoints)]))
        body = TOY.format(eta="1e-4").replace("w_d = sine: 0.01, 1", "w_d = file: target.dat")
        path = write_config(tmp_path, body)
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "r")])
        assert code == 0
        assert (tmp_path / "r" / "summary.csv").exists()

    @pytest.mark.parametrize("key,points,bad", [
        ("w_d", "midpoints", np.nan),  # loads as a piecewise constant target
        ("f", "nodes", np.inf),  # loads as an interpolated load
    ], ids=["midpoint-target-nan", "nodal-load-inf"])
    def test_nonfinite_file_data_exit_one(self, tmp_path, capsys, key, points, bad):
        x = getattr(build_uniform_mesh(20), points)
        values = np.sin(np.pi * x)
        values[3] = bad
        np.savetxt(tmp_path / "data.dat", np.column_stack([x, values]))
        line = {"w_d": "w_d = sine: 0.01, 1", "f": "f = sine: 40, 2"}[key]
        body = TOY.format(eta="1e-4").replace(line, f"{key} = file: data.dat")
        path = write_config(tmp_path, body)
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 1
        assert "configuration error:" in err and "data.dat" in err and "non-finite" in err

    @pytest.mark.parametrize("line,bad,where", [
        ("upper = 15", "upper = nan", "[control]"),
        ("lower = -15", "lower = nan", "[control]"),
        ("f = sine: 40, 2", "f = constant: nan", "[data] f"),
        ("f = sine: 40, 2", "f = sine: inf, 2", "[data] f"),
    ], ids=["nan-upper", "nan-lower", "nan-constant", "inf-sine"])
    def test_nonfinite_config_values_exit_one(self, tmp_path, capsys, line, bad, where):
        # caught when the config is read, not as a NaN control that reads
        # "converged" or a traceback from inside the solve
        path = write_config(tmp_path, TOY.format(eta="1e-4").replace(line, bad))
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:") and where in err
        assert not (tmp_path / "r").exists()

    def test_convergence_command_writes_both_files(self, tmp_path):
        path = write_config(tmp_path, TOY.format(eta="1e-4") + CONVERGENCE_GRID)
        code = main(["convergence", "--config", str(path), "--out", str(tmp_path / "c")])
        assert code == 0
        rows = [l.split(",") for l in (tmp_path / "c" / "convergence.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert rows[0][-3:] == ["iterations", "stop_reason", "converged"]
        assert all(row[-2:] == ["converged", "1"] for row in rows[1:])
        slopes = (tmp_path / "c" / "convergence_slopes.csv").read_text()
        data = [l for l in slopes.splitlines() if not l.startswith("#")]
        assert data[0] == "quantity,slope"
        assert [row.split(",")[0] for row in data[1:]] == ["adjoint", "control", "state"]

    def test_locking_command(self, tmp_path):
        path = write_config(tmp_path, TOY.format(eta="1e-4") + GRID)
        code = main(["locking", "--config", str(path), "--out", str(tmp_path / "l")])
        assert code == 0
        text = (tmp_path / "l" / "locking.csv").read_text()
        assert "locking_free" in text and "standard" in text
        rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")]
        assert rows[0][-3:] == ["iterations", "stop_reason", "converged"]
        assert all(row[-2:] == ["converged", "1"] for row in rows[1:])

    def test_jobs_one_is_accepted(self, tmp_path):
        path = write_config(tmp_path, TOY.format(eta="1e-4") + GRID)
        code = main(["locking", "--config", str(path), "--out", str(tmp_path / "j"), "--jobs", "1"])
        assert code == 0
        main(["locking", "--config", str(path), "--out", str(tmp_path / "l")])
        assert (tmp_path / "j" / "locking.csv").read_bytes() == \
            (tmp_path / "l" / "locking.csv").read_bytes()

    @pytest.mark.parametrize("command", ["solve", "sweep", "locking", "convergence"])
    def test_unwritable_out_exit_one_before_solving(self, tmp_path, capsys, monkeypatch, command):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the output directory was made")

        monkeypatch.setattr(experiments, "ssn_solve", no_solve)
        path = write_config(tmp_path, TOY.format(eta="1e-4") + STUDY + GRID.replace("[study]\n", ""))
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main([command, "--config", str(path), "--out", str(blocker / "sub")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error: cannot create output directory")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["locking", "convergence"])
    @pytest.mark.parametrize("jobs", ["0", "2"])
    def test_bad_jobs_rejected(self, tmp_path, capsys, command, jobs):
        path = write_config(tmp_path, TOY.format(eta="1e-4") + GRID)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "x"),
                     "--jobs", jobs])
        assert code == 1
        assert not (tmp_path / "x").exists()
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--out", "r"],  # no --config
        ["solve", "--config", "run.ini", "--out", "r", "--bogus"],
        ["sweep", "--config", "run.ini", "--out", "r", "--jobs", "2"],  # grid studies only
        ["solve", "--config", "run.ini", "--out", "r", "--jobs", "2"],
        ["locking", "--config", "run.ini", "--out", "r", "--jobs", "2"],  # only 1 is accepted
        ["convergence", "--config", "run.ini", "--out", "r", "--jobs", "2"],
        ["anneal", "--config", "run.ini", "--out", "r"],  # no such subcommand
        [],  # no subcommand
    ], ids=["missing-config", "unknown-flag", "sweep-jobs", "solve-jobs", "locking-jobs-2",
            "convergence-jobs-2", "unknown-command", "no-command"])
    def test_usage_error_exit_one(self, capsys, argv):
        # exit 2 is kept for non-convergence, so usage errors exit 1 as well
        assert main(argv) == 1
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,jobs", [
        ("solve", False), ("sweep", False), ("locking", True), ("convergence", True),
    ])
    def test_help_exit_zero(self, capsys, command, jobs):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--config" in out
        assert ("--jobs" in out) == jobs  # only the grid studies read it
