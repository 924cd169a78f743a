import math

import numpy as np
import pytest

from embedscale import (DIM_LAW, JOINT_LAW, DataError, DimLawFit, FitOptions,
                        JointLawFit, NumericError, Observation,
                        ObservationTable, filter_by,
                        fit_dim_law, fit_from_report, fit_joint_law,
                        fit_to_report, least_squares, predict_dim,
                        predict_joint, r_squared)

DIMS = (32, 64, 128, 256, 512, 1024, 2048)


def dim_table(a, alpha, delta, dims=DIMS, noise=None):
    rows = []
    for i, d in enumerate(dims):
        y = a / d ** alpha + delta
        if noise is not None:
            y *= noise[i]
        rows.append(Observation("synthetic", 1.0e7, d, "bench", y))
    return ObservationTable(tuple(rows))


def joint_table(a, b, alpha, beta, delta):
    rows = []
    for n_million in (5, 40, 300):
        for d in DIMS:
            y = a / d ** alpha + b / n_million ** beta + delta
            rows.append(Observation(f"m{n_million}", n_million * 1e6, d,
                                    "bench", y))
    return ObservationTable(tuple(rows))


class TestDimRecovery:
    def test_noiseless_exact(self):
        fit = fit_dim_law(dim_table(100.0, 1.5, 0.1))
        assert fit.a_coeff == pytest.approx(100.0, rel=1e-6)
        assert fit.alpha == pytest.approx(1.5, rel=1e-6)
        assert fit.delta == pytest.approx(0.1, rel=1e-6)
        assert fit.residual_norm < 1e-8
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.converged

    def test_refit_on_own_predictions_is_fixed_point(self):
        noise = 1.0 + 0.01 * np.random.default_rng(7).standard_normal(len(DIMS))
        first = fit_dim_law(dim_table(100.0, 1.5, 0.1, noise=noise))
        second = fit_dim_law(
            dim_table(first.a_coeff, first.alpha, first.delta))
        assert second.a_coeff == pytest.approx(first.a_coeff, rel=1e-6)
        assert second.alpha == pytest.approx(first.alpha, rel=1e-6)
        assert second.delta == pytest.approx(first.delta, rel=1e-6)

    def test_beats_every_default_start(self):
        # The winning fit may never be worse than any untouched start.
        noise = 1.0 + 0.05 * np.random.default_rng(11).standard_normal(len(DIMS))
        table = dim_table(50.0, 1.2, 0.05, noise=noise)
        fit = fit_dim_law(table)
        d = np.asarray([row.embed_dim for row in table], dtype=float)
        y = np.asarray([row.entropy for row in table])
        fitted_cost = fit.residual_norm ** 2
        for t0 in DIM_LAW.default_starts(d, y):
            params = DIM_LAW.decode(np.asarray(t0, dtype=float))
            start_cost = float(np.sum((DIM_LAW.predict(params, d) - y) ** 2))
            assert fitted_cost <= start_cost + 1e-12

    def test_alternative_parameterization_identity(self):
        # a / d^alpha == (a' / d)^alpha with a' = a^(1/alpha).
        fit = fit_dim_law(dim_table(100.0, 1.5, 0.1))
        a_prime = fit.a_coeff ** (1.0 / fit.alpha)
        assert a_prime ** fit.alpha == pytest.approx(fit.a_coeff, rel=1e-9)
        for d in (48, 512, 10000):
            lhs = fit.a_coeff / d ** fit.alpha
            rhs = (a_prime / d) ** fit.alpha
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestJointRecovery:
    def test_noiseless_exact(self):
        fit = fit_joint_law(joint_table(80.0, 2.0, 1.4, 0.9, 0.05))
        assert fit.a_coeff == pytest.approx(80.0, rel=1e-5)
        assert fit.b_coeff == pytest.approx(2.0, rel=1e-5)
        assert fit.alpha == pytest.approx(1.4, rel=1e-5)
        assert fit.beta == pytest.approx(0.9, rel=1e-5)
        assert fit.delta == pytest.approx(0.05, rel=1e-5)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.param_unit == "millions"

    def test_param_unit_is_millions(self):
        # b_coeff is calibrated against n_params / 1e6, so a model listed
        # at 40e6 raw parameters contributes b / 40^beta.
        fit = fit_joint_law(joint_table(80.0, 2.0, 1.4, 0.9, 0.05))
        value = predict_joint(fit, 128, 40e6)
        expected = (fit.a_coeff / 128 ** fit.alpha
                    + fit.b_coeff / 40.0 ** fit.beta + fit.delta)
        assert value == pytest.approx(expected, rel=1e-15)


class TestTableGuards:
    def test_under_determined_dim(self):
        with pytest.raises(DataError, match="under-determined"):
            fit_dim_law(dim_table(100.0, 1.5, 0.1, dims=(32, 64, 128)))

    def test_under_determined_joint(self):
        rows = tuple(Observation(f"m{n}", n * 1e6, d, "bench", 0.5 + d * 1e-4)
                     for n, d in ((5, 32), (5, 64), (40, 32), (40, 64),
                                  (40, 128)))
        with pytest.raises(DataError, match="under-determined"):
            fit_joint_law(ObservationTable(rows))

    def test_dim_law_rejects_mixed_models(self, bert_ms_table):
        with pytest.raises(DataError, match="mixed models"):
            fit_dim_law(bert_ms_table)

    def test_mixed_datasets_rejected(self, bert_ms_table, bert_trec_table):
        merged = ObservationTable(bert_ms_table.rows + bert_trec_table.rows)
        with pytest.raises(DataError, match="mixed datasets"):
            fit_joint_law(merged)

    def test_joint_law_rejects_single_model(self, bert_ms_table):
        one = filter_by(bert_ms_table, model_name="BERT-L8-H512-A8",
                        dataset="msmarco")
        with pytest.raises(DataError, match="fit_dim_law"):
            fit_joint_law(one)


class TestPrediction:
    def test_curve_is_decreasing_and_convex(self):
        fit = DimLawFit(a_coeff=100.0, alpha=1.5, delta=0.1, r2=1.0,
                        residual_norm=0.0, n_points=7)
        dims = np.geomspace(8, 8192, 40)
        values = [predict_dim(fit, d) for d in dims]
        assert all(a > b for a, b in zip(values, values[1:]))
        # Convex in d: second differences on a uniform grid are positive.
        uniform = [predict_dim(fit, d) for d in range(8, 200)]
        second = [uniform[i - 1] - 2 * uniform[i] + uniform[i + 1]
                  for i in range(1, len(uniform) - 1)]
        assert all(s > 0 for s in second)

    def test_asymptote_is_delta(self):
        fit = DimLawFit(a_coeff=100.0, alpha=1.5, delta=0.1, r2=1.0,
                        residual_norm=0.0, n_points=7)
        assert abs(predict_dim(fit, 1e12) - 0.1) < 1e-9 * fit.a_coeff

    def test_halving_law_at_unit_exponent(self):
        fit = DimLawFit(a_coeff=10.0, alpha=1.0, delta=0.0, r2=1.0,
                        residual_norm=0.0, n_points=7)
        assert predict_dim(fit, 256) == pytest.approx(
            predict_dim(fit, 128) / 2, rel=1e-12)

    def test_joint_asymptote_is_delta(self):
        fit = JointLawFit(a_coeff=100.0, b_coeff=2.0, alpha=1.5, beta=0.9,
                          delta=0.07, r2=1.0, residual_norm=0.0, n_points=21)
        assert predict_joint(fit, 1e12, 1e18) == pytest.approx(0.07, abs=1e-9)

    def test_dim_example_value(self):
        fit = DimLawFit(a_coeff=9.76707 ** 1.76001, alpha=1.76001,
                        delta=0.023525, r2=1.0, residual_norm=0.0, n_points=7)
        assert abs(predict_dim(fit, 512) - 0.024846) < 0.002

    def test_joint_example_value(self):
        fit = JointLawFit(a_coeff=114.887, b_coeff=0.800, alpha=1.887,
                          beta=1.247, delta=0.013, r2=1.0, residual_norm=0.0,
                          n_points=58)
        assert abs(predict_joint(fit, 512, 41373184) - 0.024846) < 0.005

    def test_positive_domain_enforced(self):
        fit = DimLawFit(a_coeff=1.0, alpha=1.0, delta=0.0, r2=1.0,
                        residual_norm=0.0, n_points=7)
        with pytest.raises(DataError):
            predict_dim(fit, 0)
        jfit = JointLawFit(a_coeff=1.0, b_coeff=1.0, alpha=1.0, beta=1.0,
                           delta=0.0, r2=1.0, residual_norm=0.0, n_points=21)
        with pytest.raises(DataError):
            predict_joint(jfit, 128, 0)

    def test_non_finite_value_is_numeric_error(self):
        # 1e4**300 overflows, 1e-4**300 underflows to 0, and 1e308 + 1e308
        # is inf; none may escape as OverflowError or ZeroDivisionError.
        fit = DimLawFit(a_coeff=1e308, alpha=300.0, delta=0.0, r2=1.0,
                        residual_norm=0.0, n_points=7)
        jfit = JointLawFit(a_coeff=1e308, b_coeff=1e308, alpha=300.0,
                           beta=1.0, delta=0.0, r2=1.0, residual_norm=0.0,
                           n_points=21)
        for d in (1e4, 1e-4):
            with pytest.raises(NumericError):
                predict_dim(fit, d)
            with pytest.raises(NumericError):
                predict_joint(jfit, d, 1e8)
        with pytest.raises(NumericError):
            predict_joint(jfit, 1.0, 1e6)

    def test_fractional_dimension_accepted(self):
        fit = DimLawFit(a_coeff=8.0, alpha=1.0, delta=0.0, r2=1.0,
                        residual_norm=0.0, n_points=7)
        assert predict_dim(fit, 2.5) == pytest.approx(3.2, rel=1e-15)


class TestRSquared:
    def test_perfect(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_predictor_scores_zero(self):
        targets = [1.0, 2.0, 3.0, 6.0]
        mean = sum(targets) / 4
        assert r_squared([mean] * 4, targets) == pytest.approx(0.0, abs=1e-15)

    def test_zero_variance(self):
        with pytest.raises(DataError, match="variance"):
            r_squared([1.0, 1.1], [2.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            r_squared([1.0], [1.0, 2.0])


class TestEngine:
    def test_custom_grid_single_start(self):
        table = dim_table(100.0, 1.5, 0.1)
        x = [row.embed_dim for row in table]
        y = [row.entropy for row in table]
        start = (math.log(50.0), math.log(1.0), math.log(0.2 + 1e-9))
        opts = FitOptions(multistart_grid=(start,))
        params, residual_norm, report = least_squares(DIM_LAW, x, y, opts)
        assert report.n_starts == 1
        assert params[0] == pytest.approx(100.0, rel=1e-5)
        assert residual_norm < 1e-7

    def test_empty_grid(self):
        table = dim_table(100.0, 1.5, 0.1)
        x = [row.embed_dim for row in table]
        y = [row.entropy for row in table]
        with pytest.raises(DataError, match="empty"):
            least_squares(DIM_LAW, x, y, FitOptions(multistart_grid=()))

    def test_bad_start_shape(self):
        table = dim_table(100.0, 1.5, 0.1)
        x = [row.embed_dim for row in table]
        y = [row.entropy for row in table]
        with pytest.raises(DataError, match="shape"):
            least_squares(DIM_LAW, x, y,
                          FitOptions(multistart_grid=((0.0, 0.0),)))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            least_squares(DIM_LAW, [32, 64], [0.5, 0.4, 0.3])

    def test_iteration_cap_flags_non_convergence(self):
        noise = 1.0 + 0.01 * np.random.default_rng(3).standard_normal(len(DIMS))
        table = dim_table(100.0, 1.5, 0.1, noise=noise)
        far = (math.log(1e6), math.log(3.0), math.log(1e-9))
        opts = FitOptions(max_iters=3, multistart_grid=(far,))
        fit = fit_dim_law(table, opts)
        assert not fit.converged
        assert any("did not converge" in w for w in fit.warnings)

    def test_delta_warning_on_low_floor(self, bert_ms_table):
        series = filter_by(bert_ms_table, model_name="BERT-L8-H512-A8",
                           dataset="msmarco")
        fit = fit_dim_law(series)
        assert fit.converged
        assert any("smallest observed entropy" in w for w in fit.warnings)


class TestReportRoundTrip:
    def test_dim_round_trip(self):
        fit = fit_dim_law(dim_table(100.0, 1.5, 0.1))
        restored = fit_from_report(fit_to_report(fit))
        assert restored == fit

    def test_joint_round_trip(self):
        fit = fit_joint_law(joint_table(80.0, 2.0, 1.4, 0.9, 0.05))
        restored = fit_from_report(fit_to_report(fit))
        assert restored == fit

    def test_options_echoed(self):
        opts = FitOptions(max_iters=200, seed=5)
        report = fit_to_report(fit_dim_law(dim_table(100.0, 1.5, 0.1), opts),
                               opts)
        assert report["options"]["max_iters"] == 200
        assert report["options"]["seed"] == 5
        assert report["law"] == "dim"

    def test_fixture_report_loads(self, bert_trec_joint_fit):
        assert isinstance(bert_trec_joint_fit, JointLawFit)
        assert bert_trec_joint_fit.param_unit == "millions"
        assert bert_trec_joint_fit.n_points == 58

    def test_malformed_report(self):
        with pytest.raises(DataError):
            fit_from_report({"law": "cubic", "parameters": {}})
        with pytest.raises(DataError):
            fit_from_report({"law": "dim", "parameters": {"a_coeff": 1.0}})
