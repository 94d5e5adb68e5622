"""INI parsing, the data catalog, and problem materialization."""
import re

import numpy as np
import pytest

from sparsebeam import config
from sparsebeam.config import (
    ConfigError,
    _realize_field,
    build_problem,
    load_config,
)
from sparsebeam.meshes import P0Field, build_uniform_mesh


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_bytes(body if isinstance(body, bytes) else body.encode())
    return path


MINIMAL = """
[geometry]
n = 16

[control]
nu = 1e-6
eta = 0
"""


class TestLoadConfig:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.n == 16
        assert cfg.length == 1.0
        assert cfg.beam.t == 0.01
        assert cfg.beam.k == pytest.approx(5.0 / 6.0)
        assert cfg.beam.poisson == 0.35
        assert cfg.control.nu == 1e-6
        assert cfg.scheme == "locking_free"
        assert cfg.f == "zero"
        assert cfg.study.ref_factor == 8

    def test_full_roundtrip(self, tmp_path):
        body = """
[geometry]
n = 32
length = 2.0

[material]
youngs_modulus = 1.2
thickness = 0.02
shear_correction = 5/6
poisson = 0.3
kappa_override = 0.75

[control]
nu = 1e-5
eta = 3e-4
lower = -10
upper = 12.5

[data]
f = sine: 100, 2
w_d = constant: 0.01

[solver]
scheme = standard

[study]
etas = 0, 1e-5, 2e-5
thicknesses = 0.01, 0.001
mesh_sizes = 16, 32, 64
ref_factor = 4
"""
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.beam.kappa == 0.75
        assert cfg.control.a == -10.0 and cfg.control.b == 12.5
        assert cfg.scheme == "standard"
        assert cfg.study.etas == (0.0, 1e-5, 2e-5)
        assert cfg.study.mesh_sizes == (16, 32, 64)

    def test_fraction_parsing(self, tmp_path):
        body = MINIMAL + "\n[material]\nshear_correction = 2/3\n"
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.beam.k == pytest.approx(2.0 / 3.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")

    @pytest.mark.parametrize("body,fragment", [
        ("[geometry]\nlength = 1\n\n[control]\nnu = 1\neta = 0\n", "n is required"),
        ("[geometry]\nn = 16\n\n[control]\neta = 0\n", "nu is required"),
        ("[geometry]\nn = 16\n\n[control]\nnu = bogus\neta = 0\n",
         "[control] nu: cannot parse number 'bogus'"),
        (MINIMAL + "[material]\nyoungs_modulus = abc\n",
         "[material] youngs_modulus: cannot parse number 'abc'"),
        (MINIMAL + "[snacks]\nkind = pretzel\n", "unknown section"),
        (MINIMAL + "[solver]\nwarp = 9\n", "unknown key"),
        (MINIMAL + "[solver]\nadjoint_theta_term = yes\n", "unknown key"),
        (MINIMAL + "[data]\ntheta_d = zero\n", "unknown key"),
        (MINIMAL + "[solver]\nscheme = exotic\n", "scheme"),
        (MINIMAL + "[data]\nf = sine: 1\n", "sine takes 2 or 3"),
        (MINIMAL + "[data]\nf = ramp: 1\n", "unknown data spec"),
        (MINIMAL + "[data]\nf = zero: 3\n", "takes no arguments"),
        (MINIMAL + "[study]\netas = 1e-5, -2e-5\n", "nonnegative"),
        (MINIMAL + "[study]\netas = 0, nan\n", "[study] etas"),
        (MINIMAL + "[study]\nmesh_sizes = 16, 2.5\n", "integers"),
        (MINIMAL + "[study]\nmesh_sizes = 1, 16\n", "[study] mesh_sizes"),
        (MINIMAL + "[study]\nfamily = cubic\n", "unknown key 'family'"),
        (MINIMAL + "[study]\nref_factor = 1\n", "ref_factor"),
        ("[geometry]\nn = 16\n\n[control]\nnu = 1\neta = 0\nlower = 0.5\n", "[control]"),
        ("[geometry]\nn = 16\n\n[control]\nnu = 1\neta = inf\n", "[control]"),
        ("[geometry]\nn = 16\n\n[control]\nnu = 1\neta = 0\nupper = nan\n", "[control]"),
        ("[geometry]\nn = 16\n\n[control]\nnu = 1\neta = 0\nlower = nan\n", "[control]"),
        ("[geometry]\nn = 16\nlength = -1\n\n[control]\nnu = 1\neta = 0\n", "[geometry] length"),
        ("[geometry]\nn = 16\nlength = inf\n\n[control]\nnu = 1\neta = 0\n", "[geometry] length"),
        ("[geometry]\nn = nan\n\n[control]\nnu = 1\neta = 0\n", "[geometry] n"),
        (MINIMAL + "[data]\nf = constant: nan\n", "[data] f: constant takes finite numbers"),
        (MINIMAL + "[data]\ng = sine: inf, 2\n", "[data] g: sine takes finite numbers"),
        (MINIMAL + "[material]\nyoungs_modulus = inf\n", "[material]: E must be positive and finite"),
        (MINIMAL + "[material]\nkappa_override = inf\n",
         "[material]: kappa must be positive and finite"),
        (MINIMAL.replace("n = 16", "n = 16\nn = 8"),
         "option 'n' in section 'geometry' already exists"),
        (MINIMAL + "[geometry]\nlength = 2\n", "section 'geometry' already exists"),
        ("n = 16\n" + MINIMAL, "no section headers"),
        ("[geometry]\nn = 16\n\n[control]\nnu = 1%\neta = 0\n", "[control] nu: cannot parse number '1%'"),
        (MINIMAL.encode() + b"# caf\xff\n", "'utf-8' codec can't decode byte 0xff"),
    ])
    def test_located_errors(self, tmp_path, body, fragment):
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, body))
        assert fragment in str(exc.value)
        if fragment.startswith("["):  # the location opens the message, once
            assert str(exc.value).startswith(fragment)

    @pytest.mark.parametrize("key", ["tol", "max_iter"])
    def test_removed_solver_key_is_unknown(self, tmp_path, key):
        # the solver's stop tolerance and budget are module constants of
        # sparsebeam.ssn, not settings
        with pytest.raises(ConfigError, match=rf"^unknown key '{key}' in \[solver\]$"):
            load_config(write_config(tmp_path, MINIMAL + f"[solver]\n{key} = 30\n"))

    def test_percent_in_a_path_reads_literally(self, tmp_path):
        xs = np.linspace(0.0, 1.0, 5)
        np.savetxt(tmp_path / "a%b.dat", np.column_stack([xs, np.ones(5)]))
        cfg = load_config(write_config(tmp_path, MINIMAL + "[data]\nf = file: a%b.dat\n"))
        assert cfg.f == "file: a%b.dat"
        assert build_problem(cfg).loads.f(0.5) == pytest.approx(1.0)

    def test_infinite_bounds_are_the_defaults(self, tmp_path):
        body = MINIMAL + "lower = -inf\nupper = inf\n"
        assert load_config(write_config(tmp_path, body)).control == \
            load_config(write_config(tmp_path, MINIMAL, "unset.ini")).control

    def test_module_docstring_lists_every_key(self):
        # the docstring is the user's key reference
        doc = config.__doc__
        for section, keys in config.KEYS.items():
            assert f"[{section}]" in doc
            for key in keys:
                assert re.search(rf"\b{key}\b", doc), key

    @pytest.mark.parametrize("section, key", [
        (section, key) for section, keys in config.KEYS.items() for key in keys
    ], ids=lambda item: item)
    def test_every_parser_names_its_key(self, tmp_path, section, key):
        # each parser of KEYS raises a ConfigError that opens with "[section] key"
        sections = {"geometry": {"n": "16"}, "control": {"nu": "1e-6", "eta": "0"}}
        sections.setdefault(section, {})[key] = "bogus"
        body = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
                       for name, entries in sections.items())
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, body))
        assert str(exc.value).startswith(f"[{section}] {key}")

    def test_inline_comments_stripped(self, tmp_path):
        body = "[geometry]\nn = 16  # elements\n\n[control]\nnu = 1e-6 ; weight\neta = 0\n"
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.n == 16 and cfg.control.nu == 1e-6


class TestRealizeField:
    def setup_method(self):
        self.mesh = build_uniform_mesh(8, 2.0)

    def test_zero_and_constant(self):
        assert _realize_field("zero", self.mesh) == 0.0
        assert _realize_field("constant: -3.5", self.mesh) == -3.5

    def test_sine_scaling_and_phase(self):
        fn = _realize_field("sine: 2, 1", self.mesh)
        # amplitude 2, half period over the length-2 domain
        assert fn(1.0) == pytest.approx(2.0)
        fn2 = _realize_field("sine: 1, 1, 1.5707963267948966", self.mesh)
        assert fn2(0.0) == pytest.approx(1.0)

    def test_file_on_midpoints_becomes_p0(self, tmp_path):
        vals = np.arange(8.0)
        path = tmp_path / "field.dat"
        np.savetxt(path, np.column_stack([self.mesh.midpoints, vals]))
        out = _realize_field(f"file: {path}", self.mesh)
        assert isinstance(out, P0Field)
        assert np.allclose(out.values, vals)

    def test_file_on_other_grid_interpolates(self, tmp_path):
        xs = np.linspace(0.0, 2.0, 21)
        path = tmp_path / "field.dat"
        np.savetxt(path, np.column_stack([xs, xs**2]))
        fn = _realize_field(f"file: {path}", self.mesh)
        assert fn(1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("text", [
        None,
        "1 1 1\n" * 4,
        "0.0 1.0\n0.5 abc\n",
        "0.0 1.0\n0.5\n",
    ], ids=["missing", "three_columns", "non_numeric", "ragged"])
    def test_file_errors(self, tmp_path, text):
        path = tmp_path / "field.dat"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError):
            _realize_field(f"file: {path}", self.mesh)

    def test_file_relative_to_base_dir(self, tmp_path):
        xs = np.linspace(0.0, 2.0, 5)
        np.savetxt(tmp_path / "rel.dat", np.column_stack([xs, np.ones(5)]))
        fn = _realize_field("file: rel.dat", self.mesh, base_dir=tmp_path)
        assert fn(0.5) == pytest.approx(1.0)


class TestBuildProblem:
    def test_overrides(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        prob = build_problem(cfg)
        assert prob.mesh.n == 16
        finer = build_problem(cfg, n=64)
        assert finer.mesh.n == 64
        thin = build_problem(cfg, thickness=1e-3)
        assert thin.beam.t == 1e-3
        std = build_problem(cfg, scheme="standard")
        assert std.scheme == "standard"

    def test_realized_loads_feed_the_solver(self, tmp_path):
        body = MINIMAL + "[data]\nf = sine: 40, 2\nw_d = constant: 0.01\n"
        cfg = load_config(write_config(tmp_path, body))
        prob = build_problem(cfg)
        st = prob.solve_state()
        assert np.max(np.abs(st.w.values)) > 0.0
