import numpy as np
import pytest

from czmap.engine import (EllipticOperatorSpec, verify_interior_estimate,
                          verify_scaling_identities)
from czmap.errors import HypothesisFailed, UnsupportedExponent
from czmap.expressions import Expression

V2 = ("x1", "x2")


def identity_coefficients():
    return [[Expression("1", V2), Expression("0", V2)],
            [Expression("0", V2), Expression("1", V2)]]


def wavy_coefficients():
    return [[Expression("1 + 0.1*sin(x1)", V2), Expression("0", V2)],
            [Expression("0", V2), Expression("1", V2)]]


def spec(s=0.5, coeffs=None, Lambda=2.0, resolution=33):
    return EllipticOperatorSpec(s=s,
                                coefficients=coeffs or identity_coefficients(),
                                Lambda=Lambda, resolution=resolution)


class TestHypotheses:
    def test_ellipticity_floor_enforced(self):
        weak = [[Expression("0.2", V2), Expression("0", V2)],
                [Expression("0", V2), Expression("1", V2)]]
        with pytest.raises(HypothesisFailed) as err:
            spec(coeffs=weak).validate()
        assert "ellipticity" in err.value.bound_name

    def test_sup_bound_enforced(self):
        with pytest.raises(HypothesisFailed) as err:
            spec(Lambda=0.5).validate()
        assert "sup" in err.value.bound_name

    def test_holder_bound_enforced(self):
        # stays elliptic and bounded, but oscillates too fast for the
        # scale-weighted seminorm bound
        rough = [[Expression("1 + 0.45*sin(40*x1)", V2), Expression("0", V2)],
                 [Expression("0", V2), Expression("1", V2)]]
        with pytest.raises(HypothesisFailed) as err:
            spec(coeffs=rough, Lambda=2.0).validate()
        assert "Hölder" in err.value.bound_name

    def test_exponent_range(self):
        # the operator does not depend on q; the verifiers check it
        sp, u = spec(), Expression("x1^2", V2)
        for verify in (verify_scaling_identities, verify_interior_estimate):
            for q in (1.0, 0.5, np.inf, np.nan):
                with pytest.raises(UnsupportedExponent):
                    verify(sp, u, q)


class TestScalingIdentities:
    def test_quadratic_with_half_scale(self):
        # P = Laplacian, u = x1^2: both sides of the operator identity are
        # the constant 2 s^2 = 0.5
        report = verify_scaling_identities(spec(s=0.5), Expression("x1^2", V2),
                                           2.0)
        assert report["passed"]
        assert report["dev_operator"] <= 1e-12

    def test_constant_field_trivial(self):
        report = verify_scaling_identities(spec(s=0.25), Expression("3", V2),
                                           2.0)
        assert report["passed"]

    def test_variable_coefficients_quarter_scale(self):
        report = verify_scaling_identities(
            spec(s=0.25, coeffs=wavy_coefficients()),
            Expression("x1*x2", V2), 2.0)
        assert report["passed"]
        assert max(report["dev_operator"], report["dev_hessian"],
                   report["dev_gradient"], report["dev_norm"]) <= 1e-8

    @pytest.mark.parametrize("s", (0.25, 0.5, 1.0))
    @pytest.mark.parametrize("q", (1.5, 2.0, 4.0))
    def test_analytic_identities_across_scales(self, s, q):
        report = verify_scaling_identities(
            spec(s=s, coeffs=wavy_coefficients()),
            Expression("sin(2*x1)*x2", V2), q)
        assert report["passed"]
        worst = max(report["dev_operator"], report["dev_hessian"],
                    report["dev_gradient"], report["dev_norm"])
        assert worst <= 1e-10

    def test_holder_transfer_to_unit_scale(self):
        report = verify_scaling_identities(
            spec(s=0.25, coeffs=wavy_coefficients()),
            Expression("x1*x2", V2), 2.0)
        assert report["holder_transfer_ok"]
        assert report["holder_transfer"] <= 2.0


class TestInteriorEstimate:
    def test_zero_field(self):
        result = verify_interior_estimate(spec(), Expression("0", V2), 2.0)
        assert result["lhs"] == 0.0
        assert result["ratio"] == 0.0

    def test_linear_harmonic_field(self):
        # Pu = 0, so the right side is the zero-order term alone
        result = verify_interior_estimate(spec(s=0.5), Expression("x1", V2),
                                          2.0)
        assert result["lhs"] > 0
        assert np.isfinite(result["ratio"])

    def test_oscillation_family_constant_is_stable(self):
        def family_max(resolution):
            ratios = []
            for k in range(1, 9):
                sp = spec(s=0.5, resolution=resolution)
                u = Expression(f"sin({k}*x1)", V2)
                ratios.append(verify_interior_estimate(sp, u, 2.0)["ratio"])
            return max(ratios)

        coarse = family_max(33)
        fine = family_max(65)
        assert abs(fine - coarse) <= 0.15 * coarse
