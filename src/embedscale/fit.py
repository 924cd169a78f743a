"""How a law of embedscale.law is fitted, with math only.

Residuals are taken in raw entropy space, unweighted. For fixed exponents
the law sum_k c_k x_k^(-e_k) + delta is linear in (c, delta), so the fit
is a separable least-squares problem (variable projection) and only the
exponents are searched. Each set of exponents is one cell: _cell solves
the normal equations for (c, delta) in closed form, keeping delta >= 0
and marking cells with a coefficient c_k <= 0 infeasible. The search
first profiles a geometric grid of cells over EXPONENT_RANGE. Every
feasible cell whose SSE is a local minimum among its grid neighbours then
starts one polish: a line-search Newton descent over the log-exponents
s = log e, which solves each trial cell the same way and takes the
cost's exact gradient from Kaufman's Jacobian of the projected residuals.
The lowest polished cost wins. Repeated fits are bit-identical.
"""

from __future__ import annotations

from itertools import product
from math import exp, inf, isfinite, log, sqrt
from operator import mul
from typing import Sequence

from .core import DataError, NumericError, ObservationTable, record
from .law import MILLION, LawFit, PowerLaw, _value, r_squared, total_variance

DECREMENT_TOLERANCE = 1e-15   # Newton decrement at most this times the cost: converged
FD_STEP = 1e-6           # log-exponent step of the Hessian's forward differences
MAX_ITERS = 500          # descent iterations per start
EXPONENT_RANGE = (0.05, 4.0)
GRID_POINTS = {1: 64, 2: 24}   # profile grid points per exponent axis, by K

# Why a descent stopped: the reasons _descend returns.
STOP_REASONS = ("non-finite start", "non-finite jacobian",
                "decrement below tolerance", "no step lowers the cost",
                "max_iters reached")
_NONFINITE_START, _NONFINITE_JACOBIAN, _DECREMENT, _NO_STEP, _MAX_ITERS = STOP_REASONS


@record
class ConvergenceReport:
    """How the winning descent stopped.

    stop_reason is one of STOP_REASONS. start_index is the start it
    descended from: a flat index into the profile grid (first exponent
    axis slowest). n_starts counts the descents run.
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


def _terms(e: float, xs) -> list[float]:
    """x^-e for each x of xs: a basis column. A power that overflows is inf."""
    try:
        return [x ** -e for x in xs]
    except OverflowError:
        return [_exp(-e * log(x)) for x in xs]


def _prepare(model: PowerLaw, cols: Sequence, y):
    """(cols, y): the K input columns, dimension first, and the targets, as floats.

    Each column, and y, is a sized sequence of real numbers; float() would
    also read a str or bytes of digits, so those are refused first.
    """
    try:
        count, lengths = len(cols), [len(col) for col in (*cols, y)]
        if any(isinstance(v, (str, bytes)) for col in (*cols, y) for v in col):
            raise TypeError
        *cols, y = [[float(v) for v in col] for col in (*cols, y)]
    except OverflowError:
        raise DataError(f"{model.name} law inputs and targets must not exceed "
                        "the largest double") from None
    except (TypeError, ValueError):
        raise DataError(f"{model.name} law inputs and targets must be columns "
                        "of real numbers") from None
    if not all(map(isfinite, y)):
        raise DataError("targets must be finite")
    if count != model.n_terms:
        raise DataError(f"{model.name} law takes {model.n_terms} input column(s)")
    if any(n != len(y) for n in lengths):
        raise DataError(f"each input column needs {len(y)} entries, one per target")
    if not (all(v >= 1 for v in cols[0])
            and all(v > 0 for col in cols[1:] for v in col)):
        raise DataError(f"{model.name} law inputs need dimension >= 1 "
                        "and every other input > 0")
    return cols, y


def _closed_form(a, b):
    """x with a x = b for a 1x1 or 2x2 system, by Cramer's rule; None if singular."""
    if len(b) == 1:
        return [b[0] / a[0][0]] if a[0][0] else None
    (p, q), (r, s) = a
    det = p * s - q * r
    if not det:
        return None
    return [(s * b[0] - q * b[1]) / det, (p * b[1] - r * b[0]) / det]


def _linear(gram, sums, uvs, n, v_sum, free):
    """(c, constant, c.rhs) of the least-squares fit of a target v; None if singular.

    The fit is sum_k c_k u_k, plus a constant when free (else 0), from the
    columns' Gram matrix and sums, u_k.v and sum(v). A free constant is
    taken out by centring the normal equations; rhs is the side solved.
    """
    if free:
        mean = v_sum / n
        gram = [[g - sa * sb / n for g, sb in zip(row, sums)]
                for row, sa in zip(gram, sums)]
        uvs = [uv - s * mean for uv, s in zip(uvs, sums)]
    c = _closed_form(gram, uvs)
    if c is None:
        return None
    return c, mean - _dot(c, sums) / n if free else 0.0, _dot(c, uvs)


def _cell(gram, sums, uys, n, y_sum, yy):
    """(c, delta, sse, free) of the best law at fixed exponents; None if infeasible.

    The basis columns u_k = x_k^-e_k enter as in _linear. When the free
    delta is negative the cell is solved again at delta = 0 (free False).
    A cell is infeasible when its system is singular, a coefficient c_k is
    not positive or the SSE, taken from the normal equations, is not finite.
    """
    fit = _linear(gram, sums, uys, n, y_sum, True)
    free = fit is not None and fit[1] >= 0
    if not free:
        fit = _linear(gram, sums, uys, n, y_sum, False)
    if fit is None or not all(v > 0 for v in fit[0]):
        return None
    sse = (yy - y_sum * (y_sum / n) if free else yy) - fit[2]
    return (*fit[:2], sse, free) if isfinite(sse) else None


def _profile(model: PowerLaw, cols, y) -> list[tuple[int, list[float]]]:
    """(flat cell index, log-exponent start) of each local minimum of the profile grid.

    Each grid cell is solved by _cell. A cell is a local minimum when it is
    feasible and no neighbour's (diagonals included) SSE is lower.

    Raises:
        NumericError: no cell has all coefficients positive.
    """
    k = model.n_terms
    lo, hi = EXPONENT_RANGE
    points = GRID_POINTS[k]
    exponents = [lo * (hi / lo) ** (i / (points - 1)) for i in range(points)]
    n, y_sum, yy = len(y), sum(y), _dot(y, y)
    # Per axis and exponent: the basis column u = x^-e, its sum, u.u and u.y.
    axes = [[(u, sum(u), _dot(u, u), _dot(u, y))
             for u in (_terms(e, xs) for e in exponents)] for xs in cols]

    cells = list(product(range(points), repeat=k))
    sse = {}
    for cell in cells:
        us, sums, squares, uys = zip(*(axis[i] for axis, i in zip(axes, cell)))
        # Only the cross products u_a.u_b (a != b) depend on the whole cell.
        gram = [list(squares)]
        if k == 2:
            cross = _dot(*us)
            gram = [[squares[0], cross], [cross, squares[1]]]
        solved = _cell(gram, sums, uys, n, y_sum, yy)
        sse[cell] = inf if solved is None else solved[2]

    offsets = [o for o in product((-1, 0, 1), repeat=k) if any(o)]
    starts = []
    for index, cell in enumerate(cells):
        cost = sse[cell]
        if cost == inf:
            continue
        neighbours = (tuple(map(sum, zip(cell, o))) for o in offsets)
        if all(cost <= sse.get(other, inf) for other in neighbours):
            starts.append((index, [log(exponents[i]) for i in cell]))
    if not starts:
        raise NumericError(
            f"no {model.name} law with positive coefficients fits: at every "
            f"exponent in {list(EXPONENT_RANGE)} the best coefficients are "
            "not all positive (the targets do not fall with each input)")
    return starts


def _descend(model: PowerLaw, cols, y, s0):
    """One line-search Newton descent over the log-exponents s, from s0.

    Each trial s is the cell e = exp(s), solved by _cell; an infeasible
    cell costs inf. point evaluates each s once, its cost, J and g together.
    The gradient g = 2 J^T r is exact, with Kaufman's J: column k, the
    residuals' slope -c_k e_k log(x_k) u_k in s_k at fixed (c, delta), less
    its _linear fit on the cell's columns. The Hessian is g's forward
    difference over FD_STEP; where it is missing or singular or its step
    does not descend, 2 J^T J (Gauss-Newton) steps instead. The descent
    stops on a Newton decrement -g.step of at most DECREMENT_TOLERANCE times
    the cost (0 where no step descends), or when halving the step until
    Armijo's rule holds brings it back to s.

    Returns:
        (params, cost, iterations, reason): the final cell's natural
        parameters in param_names order and its cost (None and inf for a
        non-finite start), the iteration count and one of STOP_REASONS.
    """
    k = model.n_terms
    n, y_sum, yy = len(y), sum(y), _dot(y, y)
    log_x = [[log(v) for v in xs] for xs in cols]

    def point(s):
        """(cost, params, J, g) of the cell at s; cost inf and the rest None
        where the cell is infeasible, J and g None where J is not finite."""
        e = [_exp(v) for v in s]
        us = [_terms(ek, xs) for ek, xs in zip(e, cols)]
        sums = [sum(u) for u in us]
        gram = [[_dot(a, b) for b in us] for a in us]
        solved = _cell(gram, sums, [_dot(u, y) for u in us], n, y_sum, yy)
        if solved is None:
            return inf, None, None, None
        c, delta, _, free = solved
        r = [_dot(c, ui) + delta - target for *ui, target in zip(*us, y)]
        cost = _dot(r, r)
        if not isfinite(cost):
            return inf, None, None, None
        jac = []
        for ck, ek, lxs, u in zip(c, e, log_x, us):
            v = [-ck * ek * lx * uj for lx, uj in zip(lxs, u)]
            a, a0, _ = _linear(gram, sums, [_dot(w, v) for w in us], n, sum(v), free)
            jac.append([vj - _dot(a, wj) - a0 for vj, *wj in zip(v, *us)])
        if not all(isfinite(v) for col in jac for v in col):
            return cost, (*c, *e, delta), None, None
        return cost, (*c, *e, delta), jac, [2.0 * _dot(col, r) for col in jac]

    s = list(s0)
    cost, params, jac, g = point(s)
    if params is None:
        return None, inf, 0, _NONFINITE_START
    for iteration in range(1, MAX_ITERS + 1):
        if jac is None:
            return params, cost, iteration, _NONFINITE_JACOBIAN
        # Row i: g's forward difference in s_i (the Hessian is symmetric).
        nears = [point([v + FD_STEP * (i == j) for j, v in enumerate(s)])[3]
                 for i in range(k)]
        hessian = all(nears) and [[(b - a) / FD_STEP for a, b in zip(g, near)]
                                  for near in nears]
        steps = (matrix and _closed_form(matrix, [-v for v in g])
                 for matrix in (hessian, [[2.0 * _dot(a, b) for b in jac] for a in jac]))
        step = next((p for p in steps if p and 0 < -_dot(g, p) < inf), None)
        decrement = -_dot(g, step) if step else 0.0
        if decrement <= DECREMENT_TOLERANCE * cost:
            return params, cost, iteration, _DECREMENT
        t = 1.0
        while True:
            trial = [a + t * b for a, b in zip(s, step)]
            if trial == s:
                return params, cost, iteration, _NO_STEP
            new = point(trial)
            if new[0] < cost - 1e-4 * t * decrement:    # Armijo's sufficient decrease
                break
            t /= 2.0
        s, (cost, params, jac, g) = trial, new
    return params, cost, MAX_ITERS, _MAX_ITERS


def least_squares(model: PowerLaw, cols: Sequence, y: Sequence[float]):
    """Fit model parameters by variable projection and a Newton polish.

    Minimizes sum((model(x_i; theta) - y_i)^2) in raw target space. One
    descent runs from each local minimum of the profile grid; the lowest
    final cost wins, ties going to the earliest start.

    Args:
        model: a PowerLaw, one of LAWS.
        cols: the K input columns, dimension first, one entry per target.
        y: observed targets.

    Returns:
        (parameters, residual_norm, report): natural-space parameter tuple
        in model.param_names order (delta >= 0), the Euclidean norm
        sqrt(sum r^2) of its residuals, and the winner's ConvergenceReport.

    Raises:
        DataError: a column or y that is not a sequence of real numbers,
            a target that is not finite, a column count or length that
            does not match, an input out of range, an under-determined
            system, or every start failing to produce a finite cost.
        NumericError: no profile cell has all coefficients positive.
    """
    cols, y = _prepare(model, cols, y)
    n_params = len(model.param_names)
    if len(y) < n_params + 1:
        raise DataError(
            f"under-determined: {len(y)} points for {n_params} parameters "
            f"(need at least {n_params + 1})"
        )
    starts = _profile(model, cols, y)
    runs = [(*_descend(model, cols, y, s0), index) for index, s0 in starts]
    # min keeps the first of equal costs, so ties go to the earliest start.
    params, cost, iterations, reason, index = min(runs, key=lambda run: run[1])
    if cost == inf:
        raise DataError("no multistart run produced a finite cost")
    report = ConvergenceReport(
        converged=reason in (_DECREMENT, _NO_STEP),
        iterations=iterations,
        stop_reason=reason,
        start_index=index,
        n_starts=len(starts),
    )
    return params, sqrt(cost), report


def fit_law(table: ObservationTable, model: PowerLaw) -> LawFit:
    """Fit a law to one dataset's observations.

    The dimension law (K = 1) takes exactly one model's series; the joint
    law (K = 2) takes at least two models, with parameter counts divided by
    one million before fitting.

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
    cols = [[row.embed_dim for row in table],
            [row.n_params / MILLION for row in table]][:model.n_terms]
    y = [row.entropy for row in table]
    # r_squared would reject a constant series only after the whole fit.
    total_variance(y)
    params, residual_norm, report = least_squares(model, cols, y)
    # The law as predict evaluates it, on the table's raw rows.
    predictions = [_value(params, model.n_terms, (row.embed_dim, row.n_params))
                   for row in table]
    warnings = []
    if not report.converged:
        warnings.append(f"fit did not converge: {report.stop_reason}")
    if params[-1] > min(y):
        warnings.append("delta exceeds the smallest observed entropy")
    return LawFit(model, params,
                  r2=r_squared(predictions, y),
                  residual_norm=residual_norm,
                  n_points=len(y),
                  converged=report.converged,
                  multistart_index=report.start_index,
                  warnings=tuple(warnings))
