"""How a law of embedscale.law is fitted, with math only.

Residuals are taken in raw entropy space, unweighted. For fixed exponents
the law sum_k c_k x_k^(-e_k) + delta is linear in (c, delta), so the fit
is a separable least-squares problem (variable projection). It first
profiles the exponents: on a geometric grid over EXPONENT_RANGE, each
cell solves the normal equations for (c, delta) in closed form, keeping
delta >= 0 and marking cells with a coefficient c_k <= 0 infeasible.
Every feasible cell whose SSE is a local minimum among its grid
neighbours then starts one polish: a damped Gauss-Newton
(Levenberg-Marquardt) descent with an analytic Jacobian on log-space
vectors t = (log c_1..c_K, log e_1..e_K, log(delta + 1e-9)), so every
parameter stays positive and delta = 0 stays reachable. The lowest
polished cost wins. Repeated fits are bit-identical.
"""

from __future__ import annotations

from itertools import product
from math import exp, inf, isfinite, log, sqrt
from operator import mul
from typing import Sequence

from .core import DataError, NumericError, ObservationTable, record
from .law import MILLION, LawFit, PowerLaw, _term, r_squared, total_variance

DELTA_EPS = 1e-9         # offset inside log(delta + eps); keeps delta=0 reachable
COST_REL_TOL = 1e-12     # relative cost decrease below this counts as converged
GRADIENT_TOLERANCE = 1e-12   # largest |gradient| entry below this counts as converged
MAX_ITERS = 500          # descent iterations per start
LAMBDA_INIT = 1e-3
LAMBDA_MAX = 1e15
EXPONENT_RANGE = (0.05, 4.0)
GRID_POINTS = {1: 64, 2: 24}   # profile grid points per exponent axis, by K

# Why a descent stopped, indexed by the codes _descend returns.
STOP_REASONS = ("non-finite start", "non-finite jacobian",
                "gradient below tolerance", "cost decrease below tolerance",
                "max_iters reached")
_NONFINITE_START, _NONFINITE_JACOBIAN, _GRADIENT, _COST, _MAX_ITERS = range(5)


@record
class ConvergenceReport:
    """How the winning descent stopped.

    start_index is the start it descended from: a flat index into the
    profile grid (first exponent axis slowest). n_starts counts the
    descents run.
    """

    converged: bool
    iterations: int
    stop_reason: str
    start_index: int
    n_starts: int


def _dot(u, v) -> float:
    return sum(map(mul, u, v))


def _exp(v: float) -> float:
    """exp(v), inf where it overflows, as IEEE arithmetic has it."""
    try:
        return exp(v)
    except OverflowError:
        return inf


def _terms(c: float, e: float, xs) -> list[float]:
    """c * x^-e for each x of xs; a power that overflows is inf."""
    try:
        return [c * x ** -e for x in xs]
    except OverflowError:
        return [c * _exp(-e * log(x)) for x in xs]


def _solve(a, b):
    """x with a x = b, by Gaussian elimination with partial pivoting; None if singular."""
    n = len(b)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[pivot][col] == 0.0:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for row in m[col + 1:]:
            f = row[col] / m[col][col]
            for j in range(col, n + 1):
                row[j] -= f * m[col][j]
    x = [0.0] * n
    for r in reversed(range(n)):
        x[r] = (m[r][n] - _dot(m[r][r + 1:n], x[r + 1:])) / m[r][r]
    return x


def _prepare(model: PowerLaw, x: Sequence) -> list[list[float]]:
    """The caller's inputs (scalars for K = 1, K-tuples otherwise) as K columns."""
    def inputs(entry):
        try:
            return tuple(map(float, entry))
        except TypeError:       # a scalar input of a one-input law
            return (float(entry),)

    try:
        rows = [inputs(entry) for entry in x]
    except OverflowError:
        raise DataError(f"{model.name} law inputs must not exceed the largest "
                        "double") from None
    if any(len(row) != model.n_terms for row in rows):
        raise DataError(f"{model.name} law takes {model.n_terms} input(s) per target")
    cols = [list(col) for col in zip(*rows)]
    if not (all(v >= 1 for v in cols[0])
            and all(v > 0 for col in cols[1:] for v in col)):
        raise DataError(f"{model.name} law inputs need dimension >= 1 "
                        "and every other input > 0")
    return cols


def _decode(t: Sequence[float]) -> tuple[float, ...]:
    """Natural parameters, in param_names order, of one log-space vector."""
    natural = [_exp(v) for v in t]
    natural[-1] -= DELTA_EPS
    return tuple(natural)


def _closed_form(a, b):
    """x with a x = b for a 1x1 or 2x2 system, by Cramer's rule; None if singular."""
    if len(b) == 1:
        return [b[0] / a[0][0]] if a[0][0] else None
    (p, q), (r, s) = a
    det = p * s - q * r
    if not det:
        return None
    return [(s * b[0] - q * b[1]) / det, (p * b[1] - r * b[0]) / det]


def _profile(model: PowerLaw, cols, y) -> list[tuple[int, list[float]]]:
    """(flat cell index, log-space start) of each local minimum of the profile grid.

    Each cell fixes the exponents and solves for (c, delta), centring the
    normal equations to take delta out; when that delta is negative the
    cell is solved again with delta = 0. A cell is a local minimum when its
    SSE, yy - b.c, is finite and no neighbour's (diagonals included) is lower.

    Raises:
        NumericError: no cell has all coefficients positive.
    """
    k = model.n_terms
    lo, hi = EXPONENT_RANGE
    points = GRID_POINTS[k]
    exponents = [lo * (hi / lo) ** (i / (points - 1)) for i in range(points)]
    n, y_sum, yy = len(y), sum(y), _dot(y, y)
    y_mean = y_sum / n
    # Per axis and exponent: the basis column u = x^-e, its sum, u.u and u.y.
    axes = []
    for xs in cols:
        axis = []
        for e in exponents:
            u = _terms(1.0, e, xs)
            axis.append((u, sum(u), _dot(u, u), _dot(u, y)))
        axes.append(axis)

    cells = list(product(range(points), repeat=k))
    sse = {}
    solved = {}
    for cell in cells:
        us, sums, squares, uys = zip(*(axis[i] for axis, i in zip(axes, cell)))
        # Only the cross products u_a.u_b (a != b) depend on the whole cell.
        gram = [list(squares)]
        if k == 2:
            cross = _dot(*us)
            gram = [[squares[0], cross], [cross, squares[1]]]
        centred = [[g - sa * sb / n for g, sb in zip(row, sums)]
                   for row, sa in zip(gram, sums)]
        rhs = [uy - s * y_mean for uy, s in zip(uys, sums)]
        c = _closed_form(centred, rhs)
        delta = None if c is None else y_mean - _dot(c, sums) / n
        if c is not None and delta >= 0:
            cost = (yy - y_sum * y_mean) - _dot(c, rhs)
        else:
            c, delta = _closed_form(gram, uys), 0.0
            cost = inf if c is None else yy - _dot(c, uys)
        if c is None or not all(v > 0 for v in c) or not isfinite(cost):
            cost = inf
        sse[cell] = cost
        solved[cell] = (c, delta)

    offsets = [o for o in product((-1, 0, 1), repeat=k) if any(o)]
    starts = []
    for index, cell in enumerate(cells):
        cost = sse[cell]
        if cost == inf:
            continue
        neighbours = (tuple(map(sum, zip(cell, o))) for o in offsets)
        if all(cost <= sse.get(other, inf) for other in neighbours):
            c, delta = solved[cell]
            t0 = ([log(v) for v in c] + [log(exponents[i]) for i in cell]
                  + [log(delta + DELTA_EPS)])
            starts.append((index, t0))
    if not starts:
        raise NumericError(
            f"no {model.name} law with positive coefficients fits: at every "
            f"exponent in {list(EXPONENT_RANGE)} the best coefficients are "
            "not all positive (the targets do not fall with each input)")
    return starts


def _evaluate(model: PowerLaw, cols, y, t):
    """(cost, residuals, terms) at log-space t; cost inf where not finite."""
    k = model.n_terms
    natural = [_exp(v) for v in t]
    terms = list(map(_terms, natural[:k], natural[k:2 * k], cols))
    delta = natural[-1] - DELTA_EPS
    r = [sum(parts) + delta - target for *parts, target in zip(*terms, y)]
    cost = _dot(r, r)
    return (cost, r, terms) if isfinite(cost) else (inf, None, None)


def _descend(model: PowerLaw, cols, y, t0):
    """One damped Gauss-Newton descent from log-space t0.

    Levenberg-Marquardt rules: Marquardt diagonal damping, lambda x10 on a
    rejected, singular or non-finite step (up to LAMBDA_MAX) and /10
    (floored at 1e-15) on an accepted one, and a stop on a small gradient,
    a relative cost drop below COST_REL_TOL, no acceptable step, or
    MAX_ITERS.

    Returns:
        (t, cost, iterations, reason): the final log-space vector, its cost
        (inf for a non-finite start), the iteration count and an index
        into STOP_REASONS.
    """
    k = model.n_terms
    log_x = [[log(v) for v in xs] for xs in cols]
    t = list(t0)
    cost, r, terms = _evaluate(model, cols, y, t)
    if r is None:
        return t, inf, 0, _NONFINITE_START
    lam = LAMBDA_INIT
    for iteration in range(1, MAX_ITERS + 1):
        natural = [_exp(v) for v in t]
        jac = terms + [[-term * lx * e for term, lx in zip(tk, lxs)]
                       for tk, lxs, e in zip(terms, log_x, natural[k:2 * k])]
        jac.append([natural[-1]] * len(y))
        if not all(isfinite(v) for col in jac for v in col):
            return t, cost, iteration, _NONFINITE_JACOBIAN
        jtr = [_dot(col, r) for col in jac]
        if max(abs(2.0 * g) for g in jtr) < GRADIENT_TOLERANCE:
            return t, cost, iteration, _GRADIENT
        jtj = [[_dot(a, b) for b in jac] for a in jac]
        # Marquardt scaling: damp each parameter relative to its own curvature.
        damping = [max(jtj[i][i], 1e-12) for i in range(len(t))]
        neg_jtr = [-g for g in jtr]
        while lam <= LAMBDA_MAX:
            normal = [[v + lam * damping[i] if i == j else v
                       for j, v in enumerate(row)] for i, row in enumerate(jtj)]
            step = _solve(normal, neg_jtr)
            if step is not None and all(map(isfinite, step)):
                trial = [a + b for a, b in zip(t, step)]
                cost_new, r_new, terms_new = _evaluate(model, cols, y, trial)
                if cost_new < cost:
                    drop = (cost - cost_new) / cost
                    t, cost, r, terms = trial, cost_new, r_new, terms_new
                    lam = max(lam / 10.0, 1e-15)
                    if drop < COST_REL_TOL:
                        return t, cost, iteration, _COST
                    break
            lam *= 10.0
        else:
            # No step improves even under maximal damping: decrease is 0 < tol.
            return t, cost, iteration, _COST
    return t, cost, MAX_ITERS, _MAX_ITERS


def least_squares(model: PowerLaw, x: Sequence, y: Sequence[float]):
    """Fit model parameters by variable projection and a damped Gauss-Newton polish.

    Minimizes sum((model(x_i; theta) - y_i)^2) in raw target space. One
    descent runs from each local minimum of the profile grid; the lowest
    final cost wins, ties going to the earliest start.

    Args:
        model: a PowerLaw, one of LAWS.
        x: model inputs, one entry per target.
        y: observed targets.

    Returns:
        (parameters, residual_norm, report): natural-space parameter tuple
        in model.param_names order, the Euclidean norm sqrt(sum r^2), and a
        ConvergenceReport for the winning start.

    Raises:
        DataError: length mismatch, under-determined system, or every
            start failing to produce a finite cost.
        NumericError: no profile cell has all coefficients positive.
    """
    y = [float(v) for v in y]
    if len(x) != len(y):
        raise DataError(f"{len(x)} inputs vs {len(y)} targets")
    if not all(map(isfinite, y)):
        raise DataError("targets must be finite")
    n_params = len(model.param_names)
    if len(y) < n_params + 1:
        raise DataError(
            f"under-determined: {len(y)} points for {n_params} parameters "
            f"(need at least {n_params + 1})"
        )
    cols = _prepare(model, x)
    starts = _profile(model, cols, y)
    runs = [(*_descend(model, cols, y, t0), index) for index, t0 in starts]
    # min keeps the first of equal costs, so ties go to the earliest start.
    t, cost, iterations, reason, index = min(runs, key=lambda run: run[1])
    if cost == inf:
        raise DataError("no multistart run produced a finite cost")
    report = ConvergenceReport(
        converged=reason in (_GRADIENT, _COST),
        iterations=iterations,
        stop_reason=STOP_REASONS[reason],
        start_index=index,
        n_starts=len(starts),
    )
    return _decode(t), sqrt(cost), report


def fit_law(table: ObservationTable, model: PowerLaw) -> LawFit:
    """Fit a law to one dataset's observations.

    The dimension law (K = 1) takes exactly one model's series; the joint
    law (K = 2) takes at least two models, with parameter counts divided by
    one million before fitting. Delta is clipped at 0.

    Raises:
        DataError: mixed datasets, the wrong number of models for the law,
            all-identical entropies, or too few points.
        NumericError: no law with positive coefficients fits the series.
    """
    if len(table.datasets) != 1:
        raise DataError(
            f"mixed datasets {table.datasets}; filter to a single dataset first"
        )
    models = table.model_names
    if model.n_terms == 1 and len(models) != 1:
        raise DataError(f"mixed models {models}; the dim law needs exactly one")
    if model.n_terms > 1 and len(models) < 2:
        raise DataError(f"{model.name} law needs at least 2 distinct models; "
                        "fit the dim law to one")
    x = [(row.embed_dim, row.n_params / MILLION)[:model.n_terms] for row in table]
    y = [row.entropy for row in table]
    # r_squared would reject a constant series only after the whole fit.
    total_variance(y)
    params, residual_norm, report = least_squares(model, x, y)
    params = params[:-1] + (max(0.0, params[-1]),)
    # The law as predict evaluates it; x holds sizes in millions, so each scale is 1.
    k = model.n_terms
    predictions = [sum(map(_term, params[:k], row, (1.0, 1.0), params[k:2 * k]))
                   + params[-1] for row in x]
    warnings = []
    if not report.converged:
        warnings.append(f"fit did not converge: {report.stop_reason}")
    if params[-1] > min(y):
        warnings.append("delta exceeds the smallest observed entropy")
    return LawFit(model, params,
                  r2=r_squared(predictions, y),
                  residual_norm=residual_norm,
                  n_points=len(x),
                  converged=report.converged,
                  start_index=report.start_index,
                  warnings=tuple(warnings))
