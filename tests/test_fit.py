import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from embedscale import (DIM_LAW, JOINT_LAW, DataError, FitOptions, LawFit,
                        NumericError, Observation, ObservationTable,
                        filter_by, fit_from_report, fit_law, fit_to_report,
                        least_squares, parse_observations, predict,
                        r_squared)
from embedscale.fit import (COST_REL_TOL, DELTA_EPS, LAMBDA_INIT, LAMBDA_MAX,
                            STOP_REASONS, _decode, _default_starts, _descend,
                            _jacobian, _prepare, _residuals, _terms, _values)

DIMS = (32, 64, 128, 256, 512, 1024, 2048)
FIXTURES = sorted(p.name for p in (Path(__file__).parent / "data").glob("obs_*.csv"))
CONVERGED = ("gradient below tolerance", "cost decrease below tolerance")


# ---------------------------------------------------------------------------
# reference: the serial engine that the batched descent replaced, one start
# at a time, over either the batched model at a batch of one start (the same
# arithmetic as the engine) or the per-law formulas of the serial engine.


def reference_lm(residual, jacobian, t0, opts):
    """One damped Gauss-Newton descent from t0; returns (t, cost, iters, converged, reason)."""
    def cost_at(t):
        with np.errstate(all="ignore"):
            r = residual(t)
            if not np.all(np.isfinite(r)):
                return None, np.inf
            cost = float(r @ r)
        return (r, cost) if np.isfinite(cost) else (None, np.inf)

    t = np.array(t0, dtype=float)
    r, cost = cost_at(t)
    if r is None:
        return t, np.inf, 0, False, "non-finite start"
    lam = LAMBDA_INIT
    for iteration in range(1, opts.max_iters + 1):
        with np.errstate(all="ignore"):
            jac = jacobian(t)
        if not np.all(np.isfinite(jac)):
            return t, cost, iteration, False, "non-finite jacobian"
        grad = 2.0 * (jac.T @ r)
        if float(np.max(np.abs(grad))) < opts.gradient_tolerance:
            return t, cost, iteration, True, "gradient below tolerance"
        jtj = jac.T @ jac
        damping = np.maximum(np.diag(jtj), 1e-12)
        accepted = False
        while lam <= LAMBDA_MAX:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(damping), -(jac.T @ r))
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if not np.all(np.isfinite(step)):
                lam *= 10.0
                continue
            r_new, cost_new = cost_at(t + step)
            if cost_new < cost:
                drop = (cost - cost_new) / cost if cost > 0 else 0.0
                t = t + step
                r, cost = r_new, cost_new
                lam = max(lam / 10.0, 1e-15)
                accepted = True
                if drop < COST_REL_TOL:
                    return t, cost, iteration, True, "cost decrease below tolerance"
                break
            lam *= 10.0
        if not accepted:
            return t, cost, iteration, True, "cost decrease below tolerance"
    return t, cost, opts.max_iters, False, "max_iters reached"


def batch_of_one(model, xp, y):
    return (lambda t: _residuals(*_terms(model, t[None], xp), y)[0],
            lambda t: _jacobian(*_terms(model, t[None], xp), np.log(xp))[0])


def serial_formulas(model, xp, y):
    """The serial engine's residual and Jacobian, scalar exponents included."""
    k = model.n_terms

    def residual(t):
        params = [float(np.exp(v)) for v in t]
        params[-1] -= DELTA_EPS
        return _values(model, params, xp) - y

    def jacobian(t):
        natural = [np.exp(v) for v in t]
        terms = [natural[i] * xk ** (-natural[k + i]) for i, xk in enumerate(xp)]
        slopes = [-term * np.log(xk) * natural[k + i]
                  for i, (term, xk) in enumerate(zip(terms, xp))]
        return np.column_stack(terms + slopes + [np.full(xp.shape[1], natural[-1])])
    return residual, jacobian


def reference_runs(make, model, xp, y, starts, opts):
    residual, jacobian = make(model, xp, y)
    return [reference_lm(residual, jacobian, t0, opts) for t0 in starts]


def fixture_laws(name):
    """(label, model, prepared x, y) for the joint law and each model's dim law."""
    table = parse_observations((Path(__file__).parent / "data" / name).read_text())
    x = [(row.embed_dim, row.n_params / 1e6) for row in table]
    cases = [("joint", JOINT_LAW, _prepare(JOINT_LAW, x), table)]
    for model_name in table.model_names:
        series = filter_by(table, model_name=model_name, dataset=table.datasets[0])
        cases.append((model_name, DIM_LAW,
                      _prepare(DIM_LAW, [row.embed_dim for row in series]), series))
    return [(label, model, xp, np.array([row.entropy for row in rows]))
            for label, model, xp, rows in cases]


def assert_same_descents(batched, reference):
    t, cost, iters, reason = batched
    for s, (ref_t, ref_cost, ref_iters, ref_converged, ref_reason) in enumerate(reference):
        assert STOP_REASONS[reason[s]] == ref_reason, s
        assert iters[s] == ref_iters, s
        assert (ref_reason in CONVERGED) == ref_converged, s
        assert cost[s] == ref_cost, s
        np.testing.assert_array_equal(t[s], ref_t, err_msg=f"start {s}")


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
        fit = fit_law(dim_table(100.0, 1.5, 0.1), DIM_LAW)
        assert fit.a_coeff == pytest.approx(100.0, rel=1e-6)
        assert fit.alpha == pytest.approx(1.5, rel=1e-6)
        assert fit.delta == pytest.approx(0.1, rel=1e-6)
        assert fit.residual_norm < 1e-8
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.converged

    def test_refit_on_own_predictions_is_fixed_point(self):
        noise = 1.0 + 0.01 * np.random.default_rng(7).standard_normal(len(DIMS))
        first = fit_law(dim_table(100.0, 1.5, 0.1, noise=noise), DIM_LAW)
        second = fit_law(dim_table(first.a_coeff, first.alpha, first.delta),
                         DIM_LAW)
        assert second.a_coeff == pytest.approx(first.a_coeff, rel=1e-6)
        assert second.alpha == pytest.approx(first.alpha, rel=1e-6)
        assert second.delta == pytest.approx(first.delta, rel=1e-6)

    def test_beats_every_default_start(self):
        # The winning fit may never be worse than any untouched start.
        noise = 1.0 + 0.05 * np.random.default_rng(11).standard_normal(len(DIMS))
        table = dim_table(50.0, 1.2, 0.05, noise=noise)
        fit = fit_law(table, DIM_LAW)
        d = np.asarray([row.embed_dim for row in table], dtype=float)
        y = np.asarray([row.entropy for row in table])
        fitted_cost = fit.residual_norm ** 2
        for t0 in _default_starts(DIM_LAW, d, y):
            params = _decode(np.asarray(t0, dtype=float))
            start_cost = float(np.sum((_values(DIM_LAW, params, d) - y) ** 2))
            assert fitted_cost <= start_cost + 1e-12

    def test_alternative_parameterization_identity(self):
        # a / d^alpha == (a' / d)^alpha with a' = a^(1/alpha).
        fit = fit_law(dim_table(100.0, 1.5, 0.1), DIM_LAW)
        a_prime = fit.a_coeff ** (1.0 / fit.alpha)
        assert a_prime ** fit.alpha == pytest.approx(fit.a_coeff, rel=1e-9)
        for d in (48, 512, 10000):
            lhs = fit.a_coeff / d ** fit.alpha
            rhs = (a_prime / d) ** fit.alpha
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestJointRecovery:
    def test_noiseless_exact(self):
        fit = fit_law(joint_table(80.0, 2.0, 1.4, 0.9, 0.05), JOINT_LAW)
        assert fit.a_coeff == pytest.approx(80.0, rel=1e-5)
        assert fit.b_coeff == pytest.approx(2.0, rel=1e-5)
        assert fit.alpha == pytest.approx(1.4, rel=1e-5)
        assert fit.beta == pytest.approx(0.9, rel=1e-5)
        assert fit.delta == pytest.approx(0.05, rel=1e-5)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit_to_report(fit)["parameters"]["param_unit"] == "millions"

    def test_param_unit_is_millions(self):
        # b_coeff is calibrated against n_params / 1e6, so a model listed
        # at 40e6 raw parameters contributes b / 40^beta.
        fit = fit_law(joint_table(80.0, 2.0, 1.4, 0.9, 0.05), JOINT_LAW)
        value = predict(fit, 128, 40e6)
        expected = (fit.a_coeff / 128 ** fit.alpha
                    + fit.b_coeff / 40.0 ** fit.beta + fit.delta)
        assert value == pytest.approx(expected, rel=1e-15)


class TestTableGuards:
    def test_under_determined_dim(self):
        with pytest.raises(DataError, match="under-determined"):
            fit_law(dim_table(100.0, 1.5, 0.1, dims=(32, 64, 128)), DIM_LAW)

    def test_under_determined_joint(self):
        rows = tuple(Observation(f"m{n}", n * 1e6, d, "bench", 0.5 + d * 1e-4)
                     for n, d in ((5, 32), (5, 64), (40, 32), (40, 64),
                                  (40, 128)))
        with pytest.raises(DataError, match="under-determined"):
            fit_law(ObservationTable(rows), JOINT_LAW)

    def test_dim_law_rejects_mixed_models(self, bert_ms_table):
        with pytest.raises(DataError, match="mixed models"):
            fit_law(bert_ms_table, DIM_LAW)

    def test_mixed_datasets_rejected(self, bert_ms_table, bert_trec_table):
        merged = ObservationTable(bert_ms_table.rows + bert_trec_table.rows)
        with pytest.raises(DataError, match="mixed datasets"):
            fit_law(merged, JOINT_LAW)

    def test_joint_law_rejects_single_model(self, bert_ms_table):
        one = filter_by(bert_ms_table, model_name="BERT-L8-H512-A8",
                        dataset="msmarco")
        with pytest.raises(DataError, match="dim law"):
            fit_law(one, JOINT_LAW)


class TestPrediction:
    def test_curve_is_decreasing_and_convex(self):
        fit = LawFit(DIM_LAW, (100.0, 1.5, 0.1), r2=1.0, residual_norm=0.0,
                     n_points=7)
        dims = np.geomspace(8, 8192, 40)
        values = [predict(fit, d) for d in dims]
        assert all(a > b for a, b in zip(values, values[1:]))
        # Convex in d: second differences on a uniform grid are positive.
        uniform = [predict(fit, d) for d in range(8, 200)]
        second = [uniform[i - 1] - 2 * uniform[i] + uniform[i + 1]
                  for i in range(1, len(uniform) - 1)]
        assert all(s > 0 for s in second)

    def test_asymptote_is_delta(self):
        fit = LawFit(DIM_LAW, (100.0, 1.5, 0.1), r2=1.0, residual_norm=0.0,
                     n_points=7)
        assert abs(predict(fit, 1e12) - 0.1) < 1e-9 * fit.a_coeff

    def test_halving_law_at_unit_exponent(self):
        fit = LawFit(DIM_LAW, (10.0, 1.0, 0.0), r2=1.0, residual_norm=0.0,
                     n_points=7)
        assert predict(fit, 256) == pytest.approx(
            predict(fit, 128) / 2, rel=1e-12)

    def test_joint_asymptote_is_delta(self):
        fit = LawFit(JOINT_LAW, (100.0, 2.0, 1.5, 0.9, 0.07), r2=1.0,
                     residual_norm=0.0, n_points=21)
        assert predict(fit, 1e12, 1e18) == pytest.approx(0.07, abs=1e-9)

    def test_dim_example_value(self):
        fit = LawFit(DIM_LAW, (9.76707 ** 1.76001, 1.76001, 0.023525), r2=1.0,
                     residual_norm=0.0, n_points=7)
        assert abs(predict(fit, 512) - 0.024846) < 0.002

    def test_joint_example_value(self):
        fit = LawFit(JOINT_LAW, (114.887, 0.800, 1.887, 1.247, 0.013), r2=1.0,
                     residual_norm=0.0, n_points=58)
        assert abs(predict(fit, 512, 41373184) - 0.024846) < 0.005

    def test_positive_domain_enforced(self):
        fit = LawFit(DIM_LAW, (1.0, 1.0, 0.0), r2=1.0, residual_norm=0.0,
                     n_points=7)
        with pytest.raises(DataError):
            predict(fit, 0)
        jfit = LawFit(JOINT_LAW, (1.0, 1.0, 1.0, 1.0, 0.0), r2=1.0,
                      residual_norm=0.0, n_points=21)
        with pytest.raises(DataError):
            predict(jfit, 128, 0)

    def test_non_finite_value_is_numeric_error(self):
        # 1e-4**300 underflows to 0, where the law is 1e308 * 1e1200, and
        # 1e308 + 1e308 is inf; none may escape as ZeroDivisionError.
        fit = LawFit(DIM_LAW, (1e308, 300.0, 0.0), r2=1.0, residual_norm=0.0,
                     n_points=7)
        jfit = LawFit(JOINT_LAW, (1e308, 1e308, 300.0, 1.0, 0.0), r2=1.0,
                      residual_norm=0.0, n_points=21)
        with pytest.raises(NumericError):
            predict(fit, 1e-4)
        with pytest.raises(NumericError):
            predict(jfit, 1e-4, 1e8)
        with pytest.raises(NumericError):
            predict(jfit, 1.0, 1e6)

    def test_power_past_the_doubles_is_taken_in_log_space(self):
        # Each power below leaves the doubles while its term does not: it
        # overflows (1e10**40, 1e4**300), underflows to 0 (1e-200**2), is
        # subnormal (1e-160**2), or its input is an integer past 2**1024.
        cases = [((1e300, 40.0, 0.0), 1e10, 1e-100),
                 ((1e-300, 2.0, 0.0), 1e-200, 1e100),
                 ((1e-300, 2.0, 0.0), 1e-160, 1e20),
                 ((1.0, 0.5, 0.25), 10 ** 400, 0.25 + 1e-200)]
        for params, d, expected in cases:
            fit = LawFit(DIM_LAW, params, r2=1.0, residual_norm=0.0, n_points=7)
            assert predict(fit, d) == pytest.approx(expected, rel=1e-12)
        jfit = LawFit(JOINT_LAW, (1e308, 1e308, 300.0, 1.0, 0.0), r2=1.0,
                      residual_norm=0.0, n_points=21)
        assert predict(jfit, 1e4, 1e8) == pytest.approx(1e306, rel=1e-12)
        # n_params / 1e6 underflows to 0; the term is 1e-300 * 1e6 / 5e-324.
        small = LawFit(JOINT_LAW, (1.0, 1e-300, 1.0, 1.0, 0.0), r2=1.0,
                       residual_norm=0.0, n_points=21)
        assert predict(small, 1.0, 5e-324) == pytest.approx(
            1.0 + 1e-294 / 5e-324, rel=1e-12)

    def test_fractional_dimension_accepted(self):
        fit = LawFit(DIM_LAW, (8.0, 1.0, 0.0), r2=1.0, residual_norm=0.0,
                     n_points=7)
        assert predict(fit, 2.5) == pytest.approx(3.2, rel=1e-15)


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
        fit = fit_law(table, DIM_LAW, opts)
        assert not fit.converged
        assert any("did not converge" in w for w in fit.warnings)

    def test_delta_warning_on_low_floor(self, bert_ms_table):
        series = filter_by(bert_ms_table, model_name="BERT-L8-H512-A8",
                           dataset="msmarco")
        fit = fit_law(series, DIM_LAW)
        assert fit.converged
        assert any("smallest observed entropy" in w for w in fit.warnings)


JOINT_FIT = LawFit(JOINT_LAW, (80.0, 2.0, 1.4, 0.9, 0.05), r2=0.99,
                   residual_norm=0.1, n_points=21)
DIM_FIT = LawFit(DIM_LAW, (100.0, 1.5, 0.1), r2=0.9, residual_norm=0.1,
                 n_points=7)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=8)


@st.composite
def mutated_reports(draw):
    """A valid report of either law with some keys, or parameters, changed or dropped."""
    report = fit_to_report(draw(st.sampled_from([JOINT_FIT, DIM_FIT])))
    for target in (report["parameters"], report):
        for key in draw(st.lists(st.sampled_from(sorted(target)), max_size=3,
                                 unique=True)):
            if draw(st.booleans()):
                del target[key]
            else:
                target[key] = draw(JSON_VALUES)
    return report


class TestReportRoundTrip:
    def test_dim_round_trip(self):
        fit = fit_law(dim_table(100.0, 1.5, 0.1), DIM_LAW)
        restored = fit_from_report(fit_to_report(fit))
        assert restored == fit

    def test_joint_round_trip(self):
        fit = fit_law(joint_table(80.0, 2.0, 1.4, 0.9, 0.05), JOINT_LAW)
        restored = fit_from_report(fit_to_report(fit))
        assert restored == fit

    def test_options_echoed(self):
        opts = FitOptions(max_iters=200)
        report = fit_to_report(
            fit_law(dim_table(100.0, 1.5, 0.1), DIM_LAW, opts), opts)
        assert report["options"]["max_iters"] == 200
        assert report["law"] == "dim"

    def test_fixture_report_loads(self, bert_trec_joint_fit):
        assert bert_trec_joint_fit.model is JOINT_LAW
        assert (fit_to_report(bert_trec_joint_fit)["parameters"]["param_unit"]
                == "millions")
        assert bert_trec_joint_fit.n_points == 58

    def test_malformed_report(self):
        with pytest.raises(DataError):
            fit_from_report({"law": "cubic", "parameters": {}})
        with pytest.raises(DataError):
            fit_from_report({"law": "dim", "parameters": {"a_coeff": 1.0}})

    @settings(max_examples=40, deadline=None)
    @given(obj=st.one_of(JSON_VALUES, mutated_reports()))
    @example(obj=dict(fit_to_report(JOINT_FIT), parameters=[1, 2]))
    def test_reader_returns_fit_or_data_error(self, obj):
        try:
            fit = fit_from_report(obj)
        except DataError:
            return
        assert isinstance(fit, LawFit)


class TestBatchedEngine:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_every_start_descends_as_it_would_alone(self, fixture):
        opts = FitOptions()
        for label, model, xp, y in fixture_laws(fixture):
            starts = _default_starts(model, xp, y)
            batched = _descend(model, xp, y, starts, opts)
            assert_same_descents(
                batched, reference_runs(batch_of_one, model, xp, y, starts, opts))

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_fits_agree_with_serial_engine(self, fixture):
        # The serial formulas take x ** -1.0 as a reciprocal, the batched
        # power does not, so starts at a unit exponent may differ in the
        # last bits; every start still stops the same way at the same cost.
        opts = FitOptions()
        for label, model, xp, y in fixture_laws(fixture):
            starts = _default_starts(model, xp, y)
            serial = reference_runs(serial_formulas, model, xp, y, starts, opts)
            _, cost, iters, reason = _descend(model, xp, y, starts, opts)
            for s, (_, ref_cost, ref_iters, _, ref_reason) in enumerate(serial):
                assert (STOP_REASONS[reason[s]], iters[s]) == (ref_reason, ref_iters)
                assert cost[s] == pytest.approx(ref_cost, rel=1e-12, abs=0)

            old = min(range(len(serial)), key=lambda s: serial[s][1])
            old_params = _decode(serial[old][0])
            params, norm, report = least_squares(model, xp.T, y, opts)
            assert report.n_starts == len(starts)
            assert report.iterations == serial[report.start_index][2]
            assert report.stop_reason == serial[report.start_index][4]
            if report.start_index == old:
                assert params == pytest.approx(old_params, rel=1e-9), label
            else:
                assert norm ** 2 <= serial[old][1] * (1 + 1e-12), label
                assert params == pytest.approx(old_params, rel=1e-6), label

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), joint=st.booleans())
    def test_seeded_laws_descend_as_alone(self, seed, joint):
        rng = np.random.default_rng(seed)
        d = np.array(DIMS, dtype=float)
        a, alpha = rng.uniform(1, 200), rng.uniform(0.3, 2.5)
        delta = rng.uniform(0, 0.3)
        if joint:
            model = JOINT_LAW
            nm = np.array([5.0, 40.0, 300.0])
            xp = np.array([np.tile(d, 3), np.repeat(nm, d.size)])
            b, beta = rng.uniform(0.1, 10), rng.uniform(0.3, 2.0)
            y = a * xp[0] ** -alpha + b * xp[1] ** -beta + delta
        else:
            model = DIM_LAW
            xp = d[None]
            y = a * d ** -alpha + delta
        y = y * (1 + 0.01 * rng.standard_normal(y.size))
        starts = _default_starts(model, xp, y)
        if joint:
            starts = starts[np.sort(rng.choice(len(starts), 24, replace=False))]
        opts = FitOptions()
        assert_same_descents(_descend(model, xp, y, starts, opts),
                             reference_runs(batch_of_one, model, xp, y, starts, opts))

    def test_non_finite_jacobian_leaves_other_starts_alone(self, bert_trec_table):
        series = filter_by(bert_trec_table, model_name="BERT-L12-H128-A2",
                           dataset="trecdl")
        xp = _prepare(DIM_LAW, [row.embed_dim for row in series])
        y = np.array([row.entropy for row in series])
        starts = _default_starts(DIM_LAW, xp, y)
        # Start 7 leaves finite territory in its third iteration.
        grid = starts[[11, 7, 3]]
        opts = FitOptions()
        t, cost, iters, reason = _descend(DIM_LAW, xp, y, grid, opts)
        assert STOP_REASONS[reason[1]] == "non-finite jacobian"
        assert iters[1] == 3 and np.isfinite(cost[1])
        for s in (0, 2):
            alone = _descend(DIM_LAW, xp, y, grid[s:s + 1], opts)
            assert STOP_REASONS[reason[s]] in CONVERGED
            assert (cost[s], iters[s], reason[s]) == (alone[1][0], alone[2][0],
                                                     alone[3][0])
            np.testing.assert_array_equal(t[s], alone[0][0])
        _, _, report = least_squares(DIM_LAW, xp[0], y,
                                     FitOptions(multistart_grid=tuple(grid)))
        assert report.start_index == int(np.argmin(cost))
        assert report.converged

    def test_tied_best_cost_goes_to_earliest_start(self):
        table = dim_table(50.0, 1.2, 0.05,
                          noise=1.0 + 0.03 * np.random.default_rng(2).standard_normal(7))
        x = [row.embed_dim for row in table]
        y = [row.entropy for row in table]
        good = (math.log(40.0), math.log(1.0), math.log(0.04 + DELTA_EPS))
        worse = (math.log(1e6), math.log(3.0), math.log(1e-9))
        overflowing = (800.0, 0.0, 0.0)
        grid = (overflowing, worse, good, worse, good)
        opts = FitOptions(max_iters=5, multistart_grid=grid)
        t, cost, iters, reason = _descend(DIM_LAW, _prepare(DIM_LAW, x),
                                          np.array(y), np.array(grid), opts)
        assert STOP_REASONS[reason[0]] == "non-finite start" and cost[0] == np.inf
        assert cost[2] == cost[4] < cost[1]
        _, norm, report = least_squares(DIM_LAW, x, y, opts)
        assert report.start_index == 2
        assert norm == math.sqrt(cost[2])

    def test_max_iters_is_counted_per_start(self):
        noise = 1.0 + 0.01 * np.random.default_rng(3).standard_normal(len(DIMS))
        table = dim_table(100.0, 1.5, 0.1, noise=noise)
        xp = _prepare(DIM_LAW, [row.embed_dim for row in table])
        y = np.array([row.entropy for row in table])
        near = (math.log(100.0), math.log(1.5), math.log(0.1 + DELTA_EPS))
        far = (math.log(1e6), math.log(3.0), math.log(1e-9))
        grid = np.array([far, near])
        free = _descend(DIM_LAW, xp, y, grid, FitOptions())
        cap = int(free[2][1]) + 2
        assert free[2][0] > cap
        opts = FitOptions(max_iters=cap)
        t, cost, iters, reason = _descend(DIM_LAW, xp, y, grid, opts)
        assert (iters[0], STOP_REASONS[reason[0]]) == (cap, "max_iters reached")
        assert (iters[1], reason[1]) == (free[2][1], free[3][1])
        np.testing.assert_array_equal(t[1], free[0][1])
        capped_far = _descend(DIM_LAW, xp, y, grid[:1], opts)
        np.testing.assert_array_equal(t[0], capped_far[0][0])
        _, _, report = least_squares(DIM_LAW, xp[0], y,
                                     FitOptions(max_iters=cap,
                                                multistart_grid=tuple(grid)))
        assert report.start_index == 1
        assert report.iterations == free[2][1] and report.converged
