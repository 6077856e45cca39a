"""Drift constructors, certificates, Lamperti transforms, assumption audit."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from fbmsde.drifts import (
    AitSahaliaModel,
    AssumptionCertificate,
    DriftFn,
    MeanRevertingModel,
    audit_assumptions,
    lamperti_inverse,
    validate_certificate,
)
from fbmsde.errors import ParameterError

from oracles import as_drift, lamperti_forward, mr_drift


class TestMeanRevertingDrift:
    def test_closed_form_pure_singular(self):
        drift, cert = mr_drift(1.0, 0.0, 2.0 / 3.0)
        # B(x) = (1/3) x^{-2}
        assert drift.value(1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert cert.alpha == pytest.approx(2.0, rel=1e-14)
        assert cert.q == 0.0 and cert.h3 == 0.0
        assert cert.x1 == math.inf

    def test_square_root_regime_balances_at_one(self):
        drift, cert = mr_drift(1.0, 1.0, 0.5)
        assert drift.value(1.0) == 0.0
        assert cert.alpha == 1.0
        assert cert.alpha_regime == "critical"
        assert cert.h0 == math.inf  # a2 >= 0 never blocks the implicit step

    def test_alpha_against_hurst(self):
        _, cert = mr_drift(1.0, 1.0, 0.7)
        assert cert.alpha == pytest.approx(7.0 / 3.0, rel=1e-14)
        validate_certificate(cert, 0.7)  # alpha = 7/3 > 1/0.7 - 1 = 3/7

    def test_lipschitz_constant_is_linear_coefficient(self):
        drift, cert = mr_drift(1.0, 1.0, 0.7)
        # B' = -0.7 x^{-10/3} - 0.3 < 0 everywhere, approaching -a2(1-gamma)
        grid = np.geomspace(1e-4, 1e4, 2001)
        sup_slope = float(np.max(drift.deriv1(grid)))
        assert cert.K == 0.0
        assert sup_slope == pytest.approx(-0.3, abs=1e-10)

    def test_negative_a2_bounds_step(self):
        _, cert = mr_drift(1.0, -1.0, 0.7)
        assert cert.h0 == pytest.approx(1.0 / 0.3, rel=1e-12)
        assert cert.K == pytest.approx(0.3, abs=1e-10)

    def test_subnormal_negative_a2_leaves_step_unbounded(self):
        # a2 (1 - gamma) underflows to -0.0: no step bound, and no 1 / 0
        _, cert = mr_drift(1.0, -5e-324, 0.7)
        assert cert.h0 == math.inf

    @pytest.mark.parametrize("gamma", [1.2, 1.0, 0.4, 0.0, -0.5])
    def test_gamma_range(self, gamma):
        with pytest.raises(ParameterError):
            mr_drift(1.0, 1.0, gamma)

    def test_a1_must_be_positive(self):
        with pytest.raises(ParameterError):
            mr_drift(0.0, 1.0, 0.7)


class TestAitSahaliaDrift:
    def test_exponents(self):
        _, cert = as_drift(1.0, 1.0, 1.0, 1.0, 3.0, 1.5)
        assert cert.alpha == pytest.approx(3.0, rel=1e-14)
        assert cert.q == pytest.approx(5.0, rel=1e-14)
        assert cert.theta == cert.alpha

    def test_step_bound(self):
        _, cert = as_drift(1.0, 1.0, 1.0, 1.0, 3.0, 1.5)
        # 4 (rho-1) b4 (rho+1) / (b3^2 rho^2) with b3 = b4 = 0.5
        assert cert.h0 == pytest.approx(40.0 / 9.0, rel=1e-12)

    def test_coefficient_mapping_bitwise(self):
        a_m1, a0, a1, a2, r, rho = 4.0, 3.0, 2.0, 1.0, 4.0, 1.5
        drift, cert = as_drift(a_m1, a0, a1, a2, r, rho)
        b1, b2, b3, b4 = (rho - 1) * a2, (rho - 1) * a1, (rho - 1) * a0, (rho - 1) * a_m1
        alpha = (r - rho) / (rho - 1)
        e3, e4 = rho / (rho - 1), (rho + 1) / (rho - 1)
        for x in (0.25, 1.0, 3.5):
            assert drift.value(x) == b1 * x**-alpha - b2 * x + b3 * x**e3 - b4 * x**e4

    def test_constraint_boundary(self):
        with pytest.raises(ParameterError, match="min\\(2, rho\\) \\+ 1"):
            as_drift(1.0, 1.0, 1.0, 1.0, 2.4, 1.5)
        with pytest.raises(ParameterError, match="2\\*rho"):
            as_drift(1.0, 1.0, 1.0, 1.0, 3.0, 2.1)
        with pytest.raises(ParameterError, match="rho"):
            as_drift(1.0, 1.0, 1.0, 1.0, 3.0, 0.9)
        with pytest.raises(ParameterError, match="a0"):
            as_drift(1.0, -1.0, 1.0, 1.0, 3.0, 1.5)


class TestCertificate:
    def test_theta_below_alpha_rejected(self):
        with pytest.raises(ParameterError, match="theta"):
            AssumptionCertificate(
                K=0.0, alpha=2.0, x1=1.0, h1_min=0.5, theta=1.0, h4=1.0,
                q=1.0, h3=1.0, p1=0.0, p2=3.0, c_h2=1.0, h0=1.0,
                alpha_regime="standard",
            )

    def test_hurst_constraint_is_hard(self):
        cert = AssumptionCertificate(
            K=0.0, alpha=0.4, x1=1.0, h1_min=0.5, theta=0.4, h4=1.0,
            q=1.0, h3=1.0, p1=0.0, p2=3.0, c_h2=1.0, h0=1.0,
            alpha_regime="standard",
        )
        validate_certificate(cert, 0.9)  # 1/0.9 - 1 = 0.111 < 0.4
        with pytest.raises(ParameterError, match="alpha"):
            validate_certificate(cert, 0.6)  # 1/0.6 - 1 = 0.667 > 0.4


MR_MODEL = MeanRevertingModel(a1=1.0, a2=1.0, gamma=0.7, sigma=0.5, y0=1.0, hurst=0.7)
AS_MODEL = AitSahaliaModel(
    a_m1=1.0, a0=1.0, a1=1.0, a2=1.0, r=3.0, rho=1.5, sigma=0.5, y0=1.0, hurst=0.7
)


class TestLamperti:
    def test_square_root_family(self):
        model = MeanRevertingModel(1.0, 1.0, 0.5, 0.5, 1.0, 0.7)
        assert lamperti_forward(model, 4.0) == 2.0
        assert lamperti_inverse(model, 2.0) == 4.0

    def test_negative_power_family(self):
        assert lamperti_forward(AS_MODEL, 4.0) == 0.5
        assert lamperti_inverse(AS_MODEL, 0.5) == 4.0

    def test_inverse_is_decreasing_for_rho_above_one(self):
        xs = np.geomspace(0.1, 10, 33)
        ys = lamperti_inverse(AS_MODEL, xs)
        assert np.all(np.diff(ys) < 0)

    @pytest.mark.parametrize("model", [MR_MODEL, AS_MODEL], ids=["mr", "as"])
    def test_round_trip_three_points(self, model):
        for y in (1e-3, 1.0, 1e3):
            rt = lamperti_inverse(model, lamperti_forward(model, y))
            assert abs(rt - y) <= 4.0 * math.ulp(y)

    @pytest.mark.parametrize(
        "model",
        [
            MR_MODEL,
            MeanRevertingModel(1.0, 1.0, 0.5, 0.5, 1.0, 0.7),
            AS_MODEL,
            AitSahaliaModel(1.0, 1.0, 1.0, 1.0, 8.0, 3.0, 0.5, 1.0, 0.7),
        ],
        ids=["mr07", "mr05", "as15", "as30"],
    )
    def test_round_trip_twelve_decades(self, model):
        for y in np.geomspace(1e-6, 1e6, 49):
            y = float(y)
            rt = lamperti_inverse(model, lamperti_forward(model, y))
            assert abs(rt - y) <= 4.0 * math.ulp(y)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            lamperti_forward(MR_MODEL, 0.0)
        with pytest.raises(ParameterError):
            lamperti_inverse(MR_MODEL, -1.0)


class TestModelSpecs:
    def test_induced_initial_state(self):
        assert MR_MODEL.x0 == 1.0
        assert AS_MODEL.x0 == 1.0
        model = MeanRevertingModel(1.0, 1.0, 0.5, 0.5, 4.0, 0.7)
        assert model.x0 == 2.0

    def test_transformed_noise_intensity(self):
        assert MR_MODEL.sigma_x == pytest.approx(0.5 * 0.3, rel=1e-14)
        assert AS_MODEL.sigma_x == -0.25

    def test_validation(self):
        with pytest.raises(ParameterError):
            MeanRevertingModel(1.0, 1.0, 0.7, 0.0, 1.0, 0.7)  # sigma = 0
        with pytest.raises(ParameterError):
            MeanRevertingModel(1.0, 1.0, 0.7, 0.5, -1.0, 0.7)  # y0 <= 0
        with pytest.raises(ParameterError):
            MeanRevertingModel(1.0, 1.0, 0.7, 0.5, 1.0, 0.4)  # hurst range

    def test_drift_cached(self):
        assert MR_MODEL.drift()[0] is MR_MODEL.drift()[0]

    def test_fields_are_stored_as_floats(self):
        # the drift is cached per model value, and 3 == 3.0 and -0.0 == 0.0, so
        # an equal model built with other numbers must not name this drift
        model = MeanRevertingModel(3, -0.0, 0.7, 0.5, 1, 0.7)
        assert model.drift()[0].name == "mean_reverting(a1=3.0, a2=0.0, gamma=0.7)"
        for spec in (model, AitSahaliaModel(1, 1, 1, 1, 3, 1.5, 0.5, 1, 0.7)):
            for field in dataclasses.fields(spec):
                assert type(getattr(spec, field.name)) is float, field.name


class TestAudit:
    def test_mean_reverting_passes(self):
        drift, cert = MR_MODEL.drift()
        report = audit_assumptions(drift, cert)
        assert report.all_passed
        assert "pass" in report.table()

    def test_ait_sahalia_passes_with_sane_crossover(self):
        drift, cert = AS_MODEL.drift()
        report = audit_assumptions(drift, cert)
        assert report.all_passed
        # b1 x^{-3} stops dominating the polynomial terms close to x ~ 0.7
        assert 0.3 < cert.x1 < 1.0

    def test_monotone_decreasing_raw_drift(self):
        # escape hatch: plain callables with a hand-built certificate
        drift = DriftFn(
            value=lambda x: 1.0 / x - x,
            deriv1=lambda x: -1.0 / x**2 - 1.0,
            deriv2=lambda x: 2.0 / x**3,
            name="reciprocal_minus_linear",
        )
        grid = np.geomspace(1e-4, 1e4, 641)
        c_h2 = float(
            np.max(
                (np.abs(drift.deriv1(grid)) + np.abs(drift.deriv2(grid)))
                / (1.0 + grid**0.0 + grid**-3.0)
            )
        )
        cert = AssumptionCertificate(
            K=0.0, alpha=1.0, x1=0.7, h1_min=0.5, theta=1.0, h4=1.0,
            q=1.0, h3=1.0, p1=0.0, p2=3.0, c_h2=c_h2, h0=1.0,
            alpha_regime="critical",
        )
        report = audit_assumptions(drift, cert)
        assert report.all_passed  # B' <= -1 < 0 = K passes the one-sided check

    def test_finite_difference_consistency(self):
        for model in (MR_MODEL, AS_MODEL):
            report = audit_assumptions(*model.drift())
            by_name = {c.name: c for c in report.checks}
            assert by_name["fd_consistency_deriv1"].passed
            assert by_name["fd_consistency_deriv2"].passed

    def test_steep_exponents_are_not_mistaken_for_a_wrong_derivative(self):
        # rho this close to 1 gives alpha 257 and q 510: at x = 1.004 the
        # quotient's truncation error, delta^2 |B'''| / 6 with delta = 1e-6 x,
        # is about 2.4e-6 against the 2.0e-6 allowed
        model = AitSahaliaModel(
            a_m1=4.30, a0=25.8, a1=0.0115, a2=0.452, r=2.0153, rho=1.00393,
            sigma=0.5, y0=1.0, hurst=0.7,
        )
        report = audit_assumptions(*model.drift())
        assert report.all_passed, report.table()

    def test_wrong_closed_form_derivative_still_fails(self):
        # a relative error of 1e-5 is ten times rtol at every step size
        drift, cert = MR_MODEL.drift()
        wrong = dataclasses.replace(drift, deriv1=lambda x: drift.deriv1(x) * (1.0 + 1e-5))
        by_name = {c.name: c for c in audit_assumptions(wrong, cert).checks}
        assert not by_name["fd_consistency_deriv1"].passed
        assert not by_name["fd_consistency_deriv2"].passed
        assert by_name["fd_consistency_deriv1"].worst_margin < -5.0

    @pytest.mark.parametrize(
        "family, params",
        [
            (MeanRevertingModel, {"a1": 1.0, "a2": 1.0, "gamma": 0.99}),
            # no linear term: x^{-alpha} would also underflow to 0 at 1e4
            (MeanRevertingModel, {"a1": 1.0, "a2": 0.0, "gamma": 0.99}),
            (
                AitSahaliaModel,
                {"a_m1": 1.0, "a0": 1.0, "a1": 1.0, "a2": 1.0, "r": 3.2, "rho": 1.02},
            ),
        ],
        ids=["mean_reverting_alpha_99", "pure_singular_alpha_99", "ait_sahalia_alpha_109"],
    )
    def test_large_exponents_narrow_the_grid_instead_of_overflowing(self, family, params):
        # x^{-(alpha+2)} at 1e-4 and x^q at 1e4 leave float64 range for these
        # exponents; the certificate and the audit pull the grid's ends in
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = family(**params, sigma=0.5, y0=1.0, hurst=0.7)
            drift, cert = model.drift()
            report = audit_assumptions(drift, cert)
        fields = [v for v in dataclasses.astuple(cert) if isinstance(v, float)]
        assert not any(math.isnan(v) for v in fields)
        assert math.isfinite(cert.K) and math.isfinite(cert.c_h2)
        assert cert.alpha > 98.0
        assert report.all_passed, report.table()
        assert len(report.checks) == 7
