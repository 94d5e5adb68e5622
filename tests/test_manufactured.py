"""Manufactured solutions: consistency of the derived loads and rates."""
import numpy as np
import pytest
import sympy as sym

from manufactured import balanced_family, error_norms, from_fields, sine_family
from reference import solve_state
from sparsebeam.fem import BeamParams
from sparsebeam.meshes import build_uniform_mesh


def solve_case(case, n):
    mesh = build_uniform_mesh(n, case.length)
    st = solve_state(mesh, case.params, case.loads())
    return mesh, error_norms(
        (st.w, st.theta), (case.w, case.theta), b_derivatives=(case.w_x, case.theta_x)
    )


class TestFromFields:
    def test_nonvanishing_fields_rejected(self):
        x = sym.symbols("x")
        params = BeamParams(E=1.0, t=0.1, kappa_override=1.0)
        with pytest.raises(ValueError):
            from_fields(sym.cos(sym.pi * x), sym.sin(sym.pi * x), x, params)

    def test_loads_satisfy_strong_form(self):
        # f must equal the negative divergence of the shear force
        case = sine_family(BeamParams(E=1.3, t=0.05, kappa_override=0.8))
        xs = np.linspace(0.01, 0.99, 17)
        eps = 1e-6
        dshear = (case.shear(xs + eps) - case.shear(xs - eps)) / (2 * eps)
        assert np.max(np.abs(case.f(xs) + dshear)) < 1e-4

    def test_shear_definition(self):
        params = BeamParams(E=1.0, t=0.2, kappa_override=1.0)
        case = sine_family(params)
        xs = np.linspace(0.0, 1.0, 11)
        ks = params.kappa / params.t**2
        assert np.allclose(case.shear(xs), ks * (case.w_x(xs) - case.theta(xs)),
                           atol=1e-10)


class TestSineFamily:
    def test_second_order_deflection_rate(self):
        case = sine_family(BeamParams(E=1.2, t=0.1, kappa_override=1.0))
        _, coarse = solve_case(case, 16)
        _, fine = solve_case(case, 32)
        rate = np.log2(coarse["l2_w"] / fine["l2_w"])
        assert rate > 1.8

    def test_first_order_h1_rate(self):
        case = sine_family(BeamParams(E=1.2, t=0.1, kappa_override=1.0))
        _, coarse = solve_case(case, 16)
        _, fine = solve_case(case, 32)
        rate = np.log2(coarse["h1_theta"] / fine["h1_theta"])
        assert rate > 0.9


class TestBalancedFamily:
    def test_data_independent_of_thickness(self):
        thick = balanced_family(BeamParams(E=1.2, t=0.1, kappa_override=1.0))
        thin = balanced_family(BeamParams(E=1.2, t=1e-3, kappa_override=1.0))
        xs = np.linspace(0.0, 1.0, 9)
        assert np.allclose(thick.f(xs), thin.f(xs), rtol=1e-9)
        assert np.allclose(thick.g(xs), thin.g(xs), rtol=1e-9)
        assert np.allclose(thick.shear(xs), thin.shear(xs), rtol=1e-9)

    @pytest.mark.parametrize("t", [0.1, 1e-3])
    def test_errors_uniform_in_thickness(self, t):
        case = balanced_family(BeamParams(E=1.2, t=t, kappa_override=1.0))
        _, err16 = solve_case(case, 16)
        _, err32 = solve_case(case, 32)
        assert np.log2(err16["l2_w"] / err32["l2_w"]) > 1.8
        # absolute error level must not blow up as t shrinks
        assert err32["l2_w"] < 1e-2
