import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from embedscale import (DIM_LAW, JOINT_LAW, DataError, LawFit,
                        NumericError, Observation, ObservationTable,
                        filter_by, fit_from_report, fit_law, fit_to_report,
                        least_squares, parse_observations, predict,
                        r_squared)
from embedscale import law
from embedscale.fit import (DECREMENT_TOLERANCE, EXPONENT_RANGE, FD_STEP,
                            GRID_POINTS, MAX_ITERS, _descend, _prepare, _profile,
                            _terms)
from embedscale.law import total_variance

DATA = Path(__file__).parent / "data"
DIMS = (32, 64, 128, 256, 512, 1024, 2048)
WIDE_DIMS = DIMS + (4096,)
FIXTURES = sorted(p.name for p in DATA.glob("obs_*.csv"))
CONVERGED = ("decrement below tolerance", "no step lowers the cost")
# SSE and parameters of every fixture fit (the joint law and each model's
# dimension law) from the earlier engine, which descended from all 27
# (dimension law) or 243 (joint law) starts of multistart_grid below.
PINNED = json.loads((DATA / "pinned_fits.json").read_text())


# ---------------------------------------------------------------------------
# reference: the engine's descent, one start at a time, over numpy formulas
# of the law's projected residuals in log-exponents s.


def reference_newton(residual, jacobian, t0, max_iters=MAX_ITERS):
    """One line-search Newton descent from t0; returns (t, cost, iters, converged, reason).

    The Hessian is the forward difference of the gradient 2 J^T r over
    FD_STEP; where it is missing or singular, or its step does not
    descend, the Gauss-Newton matrix 2 J^T J gives the step. The descent
    stops on a Newton decrement -g.step of at most DECREMENT_TOLERANCE
    times the cost (0 where no step descends), and otherwise halves the
    step until Armijo's rule holds, stopping if the trial point reaches t.
    """
    def cost_at(t):
        with np.errstate(all="ignore"):
            r = residual(t)
            if not np.all(np.isfinite(r)):
                return None, np.inf
            cost = float(r @ r)
        return (r, cost) if np.isfinite(cost) else (None, np.inf)

    def slope(t):
        """(J, gradient) at t; None where the residuals or J are not finite."""
        r = cost_at(t)[0]
        if r is None:
            return None
        with np.errstate(all="ignore"):
            jac = jacobian(t)
        return (jac, 2.0 * (jac.T @ r)) if np.all(np.isfinite(jac)) else None

    t = np.array(t0, dtype=float)
    cost = cost_at(t)[1]
    if cost == np.inf:
        return t, np.inf, 0, False, "non-finite start"
    for iteration in range(1, max_iters + 1):
        here = slope(t)
        if here is None:
            return t, cost, iteration, False, "non-finite jacobian"
        jac, grad = here
        nears = [slope(t + FD_STEP * unit) for unit in np.eye(t.size)]
        matrices = [2.0 * (jac.T @ jac)]
        if all(near is not None for near in nears):
            matrices.insert(0, np.array([(near[1] - grad) / FD_STEP for near in nears]))
        step, decrement = None, 0.0
        for matrix in matrices:
            try:
                candidate = np.linalg.solve(matrix, -grad)
            except np.linalg.LinAlgError:
                continue
            if 0 < -float(grad @ candidate) < np.inf:
                step, decrement = candidate, -float(grad @ candidate)
                break
        if decrement <= DECREMENT_TOLERANCE * cost:
            return t, cost, iteration, True, "decrement below tolerance"
        length = 1.0
        while True:
            trial = t + length * step
            if np.array_equal(trial, t):
                return t, cost, iteration, True, "no step lowers the cost"
            cost_new = cost_at(trial)[1]
            if cost_new < cost - 1e-4 * length * decrement:
                break
            length /= 2.0
        t, cost = trial, cost_new
    return t, cost, max_iters, False, "max_iters reached"


def total(a):
    """a summed over its last axis left to right, as the engine sums."""
    return np.cumsum(a, axis=-1)[..., -1]


def svd_fit(basis, v, free):
    """(c, constant) of the least-squares fit of v on the basis rows, by np.linalg.lstsq."""
    phi = np.column_stack([*basis, np.ones(v.size)]) if free else basis.T
    coef = np.linalg.lstsq(phi, v, rcond=None)[0]
    return coef[:len(basis)], (coef[-1] if free else 0.0)


def normal_fit(basis, v, free):
    """svd_fit in the engine's arithmetic: centred normal equations, summed
    left to right and solved by Cramer's rule."""
    n, gram, sums, uv = v.size, total(basis[:, None] * basis[None]), total(basis), total(basis * v)
    if free:
        mean = total(v) / n
        gram = gram - sums[:, None] * sums[None] / n
        uv = uv - sums * mean
    if len(basis) == 1:
        c = uv / gram[0]
    else:
        det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
        c = np.array([gram[1, 1] * uv[0] - gram[0, 1] * uv[1],
                      gram[0, 0] * uv[1] - gram[1, 0] * uv[0]]) / det
    return c, (mean - total(c * sums) / n if free else 0.0)


def projected_formulas(cols, y, fit=svd_fit):
    """Residual, Jacobian and natural parameters at log-exponents s, with numpy.

    Each s is solved by fit for (c, delta), again at delta = 0 when delta
    comes out negative; a coefficient c_k <= 0 makes the residuals inf.
    The Jacobian is Kaufman's: the slopes of the residuals in s at fixed
    (c, delta), less their fit on the same columns; with svd_fit that is
    the projection I - Phi Phi^+. The basis and log(x) come from Python's
    pow and math.log, as in the engine: numpy's power rounds differently.
    """
    y = np.array(y)
    log_x = np.array([[math.log(v) for v in xs] for xs in cols])

    def cell(s):
        exponents = np.array([math.exp(v) for v in s])
        basis = np.array([[v ** -e for v in xs] for e, xs in zip(exponents.tolist(), cols)])
        if not np.all(np.isfinite(basis)):
            return None
        with np.errstate(all="ignore"):
            c, delta = fit(basis, y, True)
            free = delta >= 0
            if not free:
                c, delta = fit(basis, y, False)
        return (exponents, basis, c, delta, free) if np.all(c > 0) else None

    def combine(c, basis):
        return total((c[:, None] * basis).T)

    def residual(s):
        solved = cell(s)
        if solved is None:
            return np.full(y.size, np.inf)
        _, basis, c, delta, _ = solved
        return combine(c, basis) + delta - y

    def jacobian(s):
        exponents, basis, c, _, free = cell(s)
        columns = []
        for slope in -(c * exponents)[:, None] * log_x * basis:
            a, a0 = fit(basis, slope, free)
            columns.append(slope - combine(a, basis) - a0)
        return np.array(columns).T

    def params(s):
        exponents, _, c, delta, _ = cell(s)
        return (*map(float, c), *map(float, exponents), float(delta))
    return residual, jacobian, params


def multistart_grid(model, cols, y):
    """The earlier engine's 3^(2K+1) starts, in natural parameters.

    Each c_k is scaled so that c_k / x_k has the data's magnitude at the
    geometric mean of x_k; exponents take 0.5, 1 and 2; delta takes 0,
    half and 0.99 of the smallest target.
    """
    axes = []
    for xk in cols:
        base = max(float(np.mean(y)) * float(np.exp(np.mean(np.log(xk)))), 1e-12)
        axes.append([0.1 * base, base, 10.0 * base])
    axes += [[0.5, 1.0, 2.0]] * model.n_terms
    axes.append([0.0, min(y) / 2.0, 0.99 * min(y)])
    return list(itertools.product(*axes))


def exponent_starts(model):
    """That grid's 3^K exponent parts, as log-exponent starts."""
    return [[math.log(e) for e in exponents]
            for exponents in itertools.product((0.5, 1.0, 2.0), repeat=model.n_terms)]


def law_residuals(model, cols, y):
    """The law's residuals as a numpy function of its natural parameters."""
    k, x, y = model.n_terms, np.array(cols), np.array(y)
    return lambda p: (p[:k, None] * x ** -p[k:2 * k, None]).sum(axis=0) + p[-1] - y


def sse(model, cols, y, params):
    """Sum of squared residuals of the law at natural parameters."""
    r = law_residuals(model, cols, y)(np.asarray(params, dtype=float))
    return float(r @ r)


def polished_sse(model, cols, y, params):
    """SSE after a bounded scipy polish of all 2K+1 parameters from params."""
    optimize = pytest.importorskip("scipy.optimize")
    result = optimize.least_squares(law_residuals(model, cols, y),
                                    np.asarray(params, dtype=float),
                                    bounds=(0.0, np.inf),
                                    xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return sse(model, cols, y, result.x)


def use_starts(monkeypatch, grid):
    """Make least_squares descend from each row of grid, in order, instead
    of from the profile's starts."""
    monkeypatch.setattr("embedscale.fit._profile",
                        lambda *a: [(i, list(t0)) for i, t0 in enumerate(grid)])


def fixture_laws(name):
    """(label, model, table) for the joint law and each model's dim law."""
    table = parse_observations((DATA / name).read_text())
    cases = [("joint", JOINT_LAW, table)]
    for model_name in table.model_names:
        cases.append((model_name, DIM_LAW, filter_by(
            table, model_name=model_name, dataset=table.datasets[0])))
    return cases


def law_inputs(model, table):
    """Prepared input columns and targets of a table for a law."""
    cols = [[row.embed_dim for row in table], [row.n_params / 1e6 for row in table]]
    y = [row.entropy for row in table]
    return _prepare(model, cols[:model.n_terms], y)


def dim_table(a, alpha, delta, dims=DIMS, noise=None):
    rows = []
    for i, d in enumerate(dims):
        y = a / d ** alpha + delta
        if noise is not None:
            y *= noise[i]
        rows.append(Observation("synthetic", 1.0e7, d, "bench", y))
    return ObservationTable(tuple(rows))


def series_table(dims, entropies):
    return ObservationTable(tuple(Observation("synthetic", 1.0e7, d, "bench", y)
                                  for d, y in zip(dims, entropies)))


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
        # The winning fit may never be worse than any start of the earlier
        # engine's grid, untouched.
        noise = 1.0 + 0.05 * np.random.default_rng(11).standard_normal(len(DIMS))
        table = dim_table(50.0, 1.2, 0.05, noise=noise)
        fit = fit_law(table, DIM_LAW)
        cols, y = law_inputs(DIM_LAW, table)
        fitted_cost = fit.residual_norm ** 2
        for start in multistart_grid(DIM_LAW, cols, y):
            assert fitted_cost <= sse(DIM_LAW, cols, y, start) + 1e-12

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

    @pytest.mark.parametrize("law, table", [
        (DIM_LAW, dim_table(0.0, 1.0, 0.2)),
        (JOINT_LAW, joint_table(0.0, 0.0, 1.0, 1.0, 0.2)),
    ], ids=["dim", "joint"])
    def test_constant_series_fails_before_any_descent(self, law, table,
                                                      monkeypatch):
        def no_fit(*args):
            raise AssertionError("the engine ran on a constant series")

        monkeypatch.setattr("embedscale.fit._profile", no_fit)
        monkeypatch.setattr("embedscale.fit._descend", no_fit)
        with pytest.raises(DataError, match="zero total variance"):
            fit_law(table, law)

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

    def test_variance_past_the_doubles_is_not_zero(self):
        # fit_law checks the variance before fitting: squared deviations
        # that overflow must not raise there.
        assert total_variance([0.2, 1e308, 1.5e308]) == math.inf


class TestEngine:
    def test_custom_grid_single_start(self, monkeypatch):
        table = dim_table(100.0, 1.5, 0.1)
        x = [row.embed_dim for row in table]
        y = [row.entropy for row in table]
        use_starts(monkeypatch, ([math.log(1.0)],))
        params, residual_norm, report = least_squares(DIM_LAW, [x], y)
        assert report.n_starts == 1
        assert params[0] == pytest.approx(100.0, rel=1e-5)
        assert residual_norm < 1e-7

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="needs 4 entries, one per target"):
            least_squares(DIM_LAW, [[32, 64, 128]], [0.5, 0.4, 0.3, 0.2])

    def test_no_finite_start_is_data_error(self, monkeypatch):
        # A rising series has no positive coefficient at any exponent, so
        # the one start's cell is infeasible and its descent ends at once.
        use_starts(monkeypatch, ([0.0],))
        with pytest.raises(DataError, match="no multistart run produced a finite cost"):
            least_squares(DIM_LAW, [DIMS], [0.1 * i for i in range(len(DIMS))])

    def test_power_past_the_doubles_is_inf(self):
        # 1e-300 ** -4 overflows, so the column is taken in log space.
        assert _terms(4.0, [1e-300, 4.0]) == [math.inf,
                                                pytest.approx(4.0 ** -4, rel=1e-15)]

    @pytest.mark.parametrize("model, x, y, message", [
        (DIM_LAW, [[10 ** 400, 64, 128, 256]], [0.5, 0.4, 0.3, 0.2],
         "must not exceed the largest double"),
        (JOINT_LAW, [[32, 64, 128, 256, 512, 1024]], [0.6, 0.5, 0.4, 0.3, 0.2, 0.1],
         "takes 2 input column\\(s\\)"),
        (DIM_LAW, [[0.5, 64, 128, 256]], [0.5, 0.4, 0.3, 0.2], "need dimension >= 1"),
        (JOINT_LAW, [[32, 64, 128, 256, 512, 1024], [0.0, 1.0, 1.0, 1.0, 1.0, 1.0]],
         [0.6, 0.5, 0.4, 0.3, 0.2, 0.1], "need dimension >= 1"),
        (DIM_LAW, [[32, 64, 128, 256]], [0.5, math.nan, 0.3, 0.2],
         "targets must be finite"),
        (DIM_LAW, [5], [0.5, 0.4, 0.3, 0.2, 0.1], "must be columns of real numbers"),
        (DIM_LAW, [["x"] * 5], [0.5, 0.4, 0.3, 0.2, 0.1],
         "must be columns of real numbers"),
        # float() would read these digits: text is refused as it is.
        (DIM_LAW, ["12345"], [0.5, 0.4, 0.3, 0.2, 0.1], "must be columns of real numbers"),
        (DIM_LAW, [[1j, 2, 3, 4, 5]], [0.5, 0.4, 0.3, 0.2, 0.1],
         "must be columns of real numbers"),
        (DIM_LAW, [[None, 2, 3, 4, 5]], [0.5, 0.4, 0.3, 0.2, 0.1],
         "must be columns of real numbers"),
        # Targets follow the columns' rule.
        (DIM_LAW, [[32, 64, 128, 256, 512]], ["1", "0.8", "0.7", "0.65", "0.6"],
         "must be columns of real numbers"),
        (DIM_LAW, [[32, 64, 128, 256, 512]], [None] * 5, "must be columns of real numbers"),
        (DIM_LAW, [[32, 64, 128, 256, 512]], [1j] * 5, "must be columns of real numbers"),
        (DIM_LAW, [[32, 64, 128, 256, 512]], ["x"] * 5, "must be columns of real numbers"),
        (DIM_LAW, [[32, 64, 128, 256, 512]], 5, "must be columns of real numbers"),
        (DIM_LAW, [[32, 64, 128, 256, 512]], iter([0.5, 0.4, 0.3, 0.2, 0.1]),
         "must be columns of real numbers"),
    ], ids=["input-past-the-doubles", "joint-law-given-scalars", "dimension-below-1",
            "size-zero", "nan-target", "scalar-column", "text-in-column", "text-column",
            "complex-in-column", "none-in-column", "text-targets", "none-targets",
            "complex-targets", "word-targets", "scalar-targets", "iterator-targets"])
    def test_input_checks(self, model, x, y, message):
        with pytest.raises(DataError, match=message):
            least_squares(model, x, y)

    def test_iteration_cap_flags_non_convergence(self, monkeypatch):
        noise = 1.0 + 0.01 * np.random.default_rng(3).standard_normal(len(DIMS))
        table = dim_table(100.0, 1.5, 0.1, noise=noise)
        use_starts(monkeypatch, ([math.log(3.0)],))
        monkeypatch.setattr("embedscale.fit.MAX_ITERS", 3)
        fit = fit_law(table, DIM_LAW)
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

    def test_fixture_report_loads(self, bert_trec_joint_fit):
        assert bert_trec_joint_fit.model is JOINT_LAW
        assert (fit_to_report(bert_trec_joint_fit)["parameters"]["param_unit"]
                == "millions")
        assert bert_trec_joint_fit.n_points == 58

    def test_report_keys_are_the_fit_fields(self):
        assert tuple(law._FIELDS) == LawFit._fields[2:]
        for fit in (JOINT_FIT, DIM_FIT):
            assert set(fit_to_report(fit)) == {"law", "parameters", *law._FIELDS}

    def test_optional_fields_default(self, data_dir, bert_trec_joint_fit):
        report = json.loads((data_dir / "fit_report_bert_trecdl.json").read_text())
        for key in ("converged", "multistart_index", "warnings"):
            del report[key]
        fit = fit_from_report(report)
        assert (fit.converged, fit.multistart_index, fit.warnings) == (True, 0, ())
        assert fit == bert_trec_joint_fit

    def test_malformed_report(self):
        with pytest.raises(DataError):
            fit_from_report({"law": "cubic", "parameters": {}})
        with pytest.raises(DataError):
            fit_from_report({"law": "dim", "parameters": {"a_coeff": 1.0}})
        report = fit_to_report(DIM_FIT)
        negative_alpha = dict(report, parameters=dict(report["parameters"], alpha=-1.5))
        with pytest.raises(DataError, match="must be positive"):
            fit_from_report(negative_alpha)
        with pytest.raises(DataError, match="r2 must be <= 1"):
            fit_from_report(dict(report, r2=1.5))
        # Every field holds its JSON type, and a bool is not a number.
        with pytest.raises(DataError, match="alpha must be a finite number"):
            fit_from_report(dict(report, parameters=dict(report["parameters"],
                                                         alpha=True)))
        for key, value in (("r2", math.nan), ("r2", "0.9"), ("r2", None),
                           ("residual_norm", math.inf), ("residual_norm", False),
                           ("n_points", "many"), ("n_points", 9.0),
                           ("n_points", True), ("multistart_index", 0.0),
                           ("converged", 1), ("converged", "true"),
                           ("warnings", "abc"), ("warnings", [1]),
                           ("warnings", {"a": "b"})):
            with pytest.raises(DataError, match=f"{key} must be "):
                fit_from_report(dict(report, **{key: value}))

    @pytest.mark.parametrize("key, value, refused", [
        ("n_points", -3, True), ("residual_norm", -1.0, True),
        ("residual_norm", -5e-324, True), ("multistart_index", -7, True),
        ("n_points", 0, False), ("residual_norm", 0.0, False),
        ("residual_norm", -0.0, False), ("multistart_index", 0, False),
        # r2 falls below 0 for any fit worse than the targets' mean, and
        # has no lower bound.
        ("r2", -1e300, False)])
    def test_diagnostic_fields_in_range(self, data_dir, key, value, refused):
        report = json.loads((data_dir / "fit_report_bert_trecdl.json").read_text())
        report[key] = value
        if refused:
            with pytest.raises(DataError, match=f"{key} must be a nonnegative"):
                fit_from_report(report)
        else:
            assert getattr(fit_from_report(report), key) == value

    @settings(max_examples=40, deadline=None)
    @given(obj=st.one_of(JSON_VALUES, mutated_reports()))
    @example(obj=dict(fit_to_report(JOINT_FIT), parameters=[1, 2]))
    def test_reader_returns_fit_or_data_error(self, obj):
        try:
            fit = fit_from_report(obj)
        except DataError:
            return
        assert isinstance(fit, LawFit)


def assert_same_descent(run, ref, where):
    """The engine's descent stops for the reference's reason at its cost.

    A stop on the Newton decrement may come up to two iterations apart:
    the two implementations' gradients differ in their last digits, which
    can flip its comparison with DECREMENT_TOLERANCE times the cost.
    """
    _, cost, iters, reason = run
    _, ref_cost, ref_iters, _, ref_reason = ref
    assert reason == ref_reason, where
    if reason == "decrement below tolerance":
        assert abs(iters - ref_iters) <= 2, where
    else:
        assert iters == ref_iters, where
    if reason in CONVERGED:
        assert cost == pytest.approx(ref_cost, rel=1e-12, abs=0)


class TestPolish:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_descends_as_reference(self, fixture):
        # From each of the profile's starts.
        for label, model, table in fixture_laws(fixture):
            cols, y = law_inputs(model, table)
            residual, jacobian, _ = projected_formulas(cols, y)
            for _, s0 in _profile(model, cols, y):
                assert_same_descent(_descend(model, cols, y, s0),
                                    reference_newton(residual, jacobian, s0),
                                    (label, s0))

    def test_negative_floor_is_profiled_at_delta_zero(self):
        # The law's exponent sits on a profile grid point and its floor is
        # below 0, so that cell's free delta is negative; it is solved again
        # at delta = 0, and the polish, solving each cell the same way,
        # ends exactly at that bound.
        (lo, hi), points = EXPONENT_RANGE, GRID_POINTS[1]
        table = dim_table(100.0, lo * (hi / lo) ** (49 / (points - 1)), -0.0005)
        fit = fit_law(table, DIM_LAW)
        assert fit.delta == 0.0
        assert fit.converged and fit.r2 > 0.99

    def test_residual_norm_is_the_reported_parameters_sse(self):
        # A series whose free delta ends just below 0: the residual norm is
        # that of the reported parameters, delta = 0 included.
        y = [14.68545240202034, 9.878384152493062, 6.51668868724104,
             4.233465931886629, 2.685472896851667, 1.8175588789581978,
             1.2618248230641562, 0.8633521267024489]
        fit = fit_law(series_table(WIDE_DIMS, y), DIM_LAW)
        a, alpha, delta = fit.params
        own = math.fsum((a * d ** -alpha + delta - v) ** 2 for d, v in zip(WIDE_DIMS, y))
        assert fit.residual_norm ** 2 == pytest.approx(own, rel=1e-12, abs=0)

    def test_flat_series_reaches_the_optimum(self):
        # A nearly flat, non-monotone series: the fit converges, and a polish
        # of every parameter from it gains at most 1e-9 relative.
        y = [0.526998582342461, 0.522634265764102, 0.5191286374379402,
             0.5177462427429524, 0.5198905618384316, 0.5258697087039572,
             0.5154254191188653, 0.5094617049353986]
        fit = fit_law(series_table(WIDE_DIMS, y), DIM_LAW)
        assert fit.converged
        cols = [list(map(float, WIDE_DIMS))]
        best = sse(DIM_LAW, cols, y, fit.params)
        assert best - polished_sse(DIM_LAW, cols, y, fit.params) <= 1e-9 * best

    def test_curved_flat_series_converges_on_the_decrement(self):
        # A nearly flat series whose large residuals make the Gauss-Newton
        # model misjudge the curvature: Newton converges within 10
        # iterations, and a polish of every parameter gains at most 1e-12.
        y = [0.5445461994693808, 0.5402446427710037, 0.5315831974417392,
             0.5235808149739991, 0.5214444832803642, 0.5197608211560496,
             0.5363814434325959, 0.5282583192036966]
        fit = fit_law(series_table(WIDE_DIMS, y), DIM_LAW)
        report = least_squares(DIM_LAW, [WIDE_DIMS], y)[2]
        assert report.stop_reason == "decrement below tolerance"
        assert report.iterations <= 10
        cols = [list(map(float, WIDE_DIMS))]
        best = sse(DIM_LAW, cols, y, fit.params)
        assert best - polished_sse(DIM_LAW, cols, y, fit.params) <= 1e-12 * best

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_restarts_near_the_optimum_stop_on_it(self, fixture):
        # From the fit's log-exponents shifted by +-1e-3 or +0.3, each one
        # alone and all together, the descent returns the fit's parameters:
        # its stop pins the stationary point, not just the cost.
        for label, model, table in fixture_laws(fixture):
            fit = fit_law(table, model)
            cols, y = law_inputs(model, table)
            k = model.n_terms
            s = [math.log(e) for e in fit.params[k:2 * k]]
            for mask in itertools.product((0, 1), repeat=k):
                for shift in (1e-3, -1e-3, 0.3) if any(mask) else ():
                    s0 = [v + shift * m for v, m in zip(s, mask)]
                    params = _descend(model, cols, y, s0)[0]
                    assert params == pytest.approx(fit.params, rel=1e-7), (label, s0)


class TestBatchedEngine:
    """Explicit starts in place of the profile's: each descends on its own."""

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_fits_agree_with_serial_engine(self, fixture, monkeypatch):
        # The exponents of the earlier engine's grid: every start descends
        # as the serial reference does, and the fit keeps the best of them.
        for label, model, table in fixture_laws(fixture):
            cols, y = law_inputs(model, table)
            # The reference solves each cell in the engine's arithmetic, so a
            # descent from the same start ends where the engine's does.
            residual, jacobian, params_at = projected_formulas(cols, y, normal_fit)
            grid = exponent_starts(model)
            serial = [reference_newton(residual, jacobian, s0) for s0 in grid]
            runs = [_descend(model, cols, y, s0) for s0 in grid]
            for s0, run, ref in zip(grid, runs, serial):
                assert_same_descent(run, ref, (label, s0))

            old = min(range(len(serial)), key=lambda s: serial[s][1])
            old_params = params_at(serial[old][0])
            use_starts(monkeypatch, grid)
            params, norm, report = least_squares(model, cols, y)
            assert report.n_starts == len(grid)
            winner = runs[report.start_index]
            assert (report.iterations, report.stop_reason) == winner[2:]
            assert norm == math.sqrt(winner[1])
            # Nor does any start reach a lower cost when its cells are solved by SVD.
            svd_residual, svd_jacobian, _ = projected_formulas(cols, y)
            svd_best = min(reference_newton(svd_residual, svd_jacobian, s0)[1] for s0 in grid)
            assert norm ** 2 <= svd_best * (1 + 1e-12), label
            if report.start_index == old:
                assert params == pytest.approx(old_params, rel=1e-9), label
            else:
                assert norm ** 2 <= serial[old][1] * (1 + 1e-12), label
                assert params == pytest.approx(old_params, rel=1e-6), label

    def test_non_finite_jacobian_leaves_other_starts_alone(self, monkeypatch):
        dims = [2.0 ** i for i in range(7)]
        y = [10.0 / d ** 1.5 + 0.1 for d in dims]
        # At e = 1e308, c * e overflows and meets log(1) = 0 in the first
        # Jacobian, while the cell itself is finite.
        grid = [[math.log(2.0)], [math.log(1e308)], [math.log(0.5)]]
        runs = [_descend(DIM_LAW, [dims], y, s0) for s0 in grid]
        assert runs[1][3] == "non-finite jacobian"
        assert runs[1][2] == 1 and math.isfinite(runs[1][1])
        assert runs[0][3] in CONVERGED and runs[2][3] in CONVERGED
        use_starts(monkeypatch, grid)
        _, norm, report = least_squares(DIM_LAW, [dims], y)
        best = min(range(3), key=lambda s: runs[s][1])
        assert report.start_index == best and report.n_starts == 3
        assert norm == math.sqrt(runs[best][1])
        assert report.converged

    def test_tied_best_cost_goes_to_earliest_start(self, monkeypatch):
        table = dim_table(50.0, 1.2, 0.05,
                          noise=1.0 + 0.03 * np.random.default_rng(2).standard_normal(7))
        cols, y = law_inputs(DIM_LAW, table)
        # From e = 0.1 the descent needs 8 iterations, so at the cap of 5
        # it stops above the optimum that e = 1 reaches in 4.
        good, worse = [math.log(1.0)], [math.log(0.1)]
        overflowing = [800.0]
        grid = (overflowing, worse, good, worse, good)
        use_starts(monkeypatch, grid)
        monkeypatch.setattr("embedscale.fit.MAX_ITERS", 5)
        runs = [_descend(DIM_LAW, cols, y, s0) for s0 in grid]
        assert runs[0][3] == "non-finite start" and runs[0][1] == math.inf
        assert runs[2][1] == runs[4][1] < runs[1][1]
        _, norm, report = least_squares(DIM_LAW, cols, y)
        assert report.start_index == 2
        assert norm == math.sqrt(runs[2][1])

    def test_max_iters_is_counted_per_start(self, monkeypatch):
        noise = 1.0 + 0.01 * np.random.default_rng(3).standard_normal(len(DIMS))
        table = dim_table(100.0, 1.5, 0.1, noise=noise)
        cols, y = law_inputs(DIM_LAW, table)
        near, far = [math.log(1.5)], [math.log(0.1)]
        free_far, free_near = (_descend(DIM_LAW, cols, y, s0) for s0 in (far, near))
        cap = free_near[2] + 2
        assert free_far[2] > cap
        use_starts(monkeypatch, (far, near))
        monkeypatch.setattr("embedscale.fit.MAX_ITERS", cap)
        capped = _descend(DIM_LAW, cols, y, far)
        assert capped[2:] == (cap, "max_iters reached")
        assert _descend(DIM_LAW, cols, y, near) == free_near
        _, _, report = least_squares(DIM_LAW, cols, y)
        assert report.start_index == 1
        assert report.iterations == free_near[2] and report.converged


class TestPinnedFits:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_no_worse_than_multistart_engine(self, fixture):
        # One polish per fit. The SSE may not exceed the earlier engine's;
        # the parameters match it unless the SSE is lower by more than 1e-12.
        stem = Path(fixture).stem
        for label, model, table in fixture_laws(fixture):
            pinned = PINNED[f"{stem}/{label}"]
            fit = fit_law(table, model)
            fit_sse = fit.residual_norm ** 2
            assert fit_sse <= pinned["sse"] * (1 + 1e-12), label
            if fit_sse >= pinned["sse"] * (1 - 1e-12):
                assert fit.params == pytest.approx(pinned["params"], rel=1e-6), label
            cols, y = law_inputs(model, table)
            assert least_squares(model, cols, y)[2].n_starts == 1

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_no_polish_of_every_parameter_gains(self, fixture):
        # A bounded polish of all 2K+1 parameters, started at each fit, finds
        # no SSE lower by more than 1e-12 relative.
        for label, model, table in fixture_laws(fixture):
            fit = fit_law(table, model)
            cols, y = law_inputs(model, table)
            best = sse(model, cols, y, fit.params)
            assert best - polished_sse(model, cols, y, fit.params) <= 1e-12 * best, label
