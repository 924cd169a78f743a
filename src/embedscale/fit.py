"""How a law of embedscale.law is fitted: its array math and the engine.

Residuals are taken in raw entropy space, unweighted. The engine works on
log-space vectors t = (log c_1..c_K, log e_1..e_K, log(delta + 1e-9)), so
every parameter stays positive and delta = 0 stays reachable. It runs a
damped Gauss-Newton (Levenberg-Marquardt) iteration with an analytic
Jacobian from every start of a deterministic multistart grid at once:
residuals, Jacobians and normal equations are stacked over the starts,
each damping round is one batched solve, and each start keeps its own
damping, stop test, iteration count and last accepted power terms, so it
descends exactly as it would alone. Repeated fits are bit-identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import sqrt
from typing import Optional, Sequence

import numpy as np

from .core import DataError, ObservationTable
from .law import MILLION, LawFit, PowerLaw, r_squared

DELTA_EPS = 1e-9         # offset inside log(delta + eps); keeps delta=0 reachable
COST_REL_TOL = 1e-12     # relative cost decrease below this counts as converged
LAMBDA_INIT = 1e-3
LAMBDA_MAX = 1e15

# Why a start stopped, indexed by the codes the engine keeps per start.
STOP_REASONS = ("non-finite start", "non-finite jacobian",
                "gradient below tolerance", "cost decrease below tolerance",
                "max_iters reached")
_NONFINITE_START, _NONFINITE_JACOBIAN, _GRADIENT, _COST, _MAX_ITERS = range(5)


@dataclass(frozen=True)
class FitOptions:
    """Engine knobs. multistart_grid entries are log-space parameter vectors."""

    max_iters: int = 500
    gradient_tolerance: float = 1e-10
    multistart_grid: Optional[tuple] = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise DataError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.gradient_tolerance > 0:
            raise DataError("gradient_tolerance must be positive")


@dataclass(frozen=True)
class ConvergenceReport:
    """How the winning multistart run stopped."""

    converged: bool
    iterations: int
    stop_reason: str
    start_index: int
    n_starts: int


def _prepare(model: PowerLaw, x: Sequence) -> np.ndarray:
    """The caller's inputs (scalars for K = 1, K-tuples otherwise) as a (K, n) array."""
    cols = np.asarray(x, dtype=float).reshape(len(x), -1).T
    if cols.shape[0] != model.n_terms:
        raise DataError(f"{model.name} law takes {model.n_terms} input(s) per target")
    if not (np.all(cols[0] >= 1) and np.all(cols[1:] > 0)):
        raise DataError(f"{model.name} law inputs need dimension >= 1 "
                        "and every other input > 0")
    return cols


def _decode(t: Sequence[float]) -> tuple[float, ...]:
    """Natural parameters, in param_names order, of one log-space vector."""
    natural = np.exp(np.asarray(t, dtype=float))
    natural[-1] -= DELTA_EPS
    return tuple(map(float, natural))


def _values(model: PowerLaw, params: Sequence[float], x) -> np.ndarray:
    """The law at prepared inputs x; a 1-d x is the single input of K = 1."""
    k = model.n_terms
    value = sum(params[i] * xk ** (-params[k + i])
                for i, xk in enumerate(np.atleast_2d(x)))
    return value + params[-1]


def _default_starts(model: PowerLaw, x, y) -> np.ndarray:
    """The 3^(2K+1) grid of log-space starts, one row per start.

    Each c_k is scaled so that c_k / x_k has the data's magnitude at the
    geometric mean of x_k; exponents take 0.5, 1 and 2; delta takes 0,
    half and 0.99 of the smallest target.
    """
    y = np.asarray(y, dtype=float)
    ymin = float(np.min(y))
    axes = []
    for xk in np.atleast_2d(x):
        base = max(float(np.mean(y)) * float(np.exp(np.mean(np.log(xk)))), 1e-12)
        axes.append(np.log([0.1 * base, base, 10.0 * base]))
    axes += [np.log([0.5, 1.0, 2.0])] * model.n_terms
    axes.append(np.log(np.array([0.0, ymin / 2.0, 0.99 * ymin]) + DELTA_EPS))
    return np.array(list(itertools.product(*axes)))


def _terms(model: PowerLaw, t: np.ndarray, x: np.ndarray):
    """exp(t) and the terms c_k * x_k^(-e_k), shape (S, K, n), of S starts t."""
    k = model.n_terms
    natural = np.exp(t)
    return natural, natural[:, :k, None] * x ** (-natural[:, k:2 * k, None])


def _residuals(natural: np.ndarray, terms: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Model minus targets, shape (S, n), from _terms of S starts."""
    return terms.sum(axis=1) + (natural[:, -1:] - DELTA_EPS) - y


def _jacobian(natural: np.ndarray, terms: np.ndarray, log_x: np.ndarray) -> np.ndarray:
    """d residual / d t, shape (S, n, p), from _terms of S starts and log x."""
    k = terms.shape[1]
    jac = np.empty((terms.shape[0], terms.shape[2], natural.shape[1]))
    jac[:, :, :k] = terms.transpose(0, 2, 1)
    jac[:, :, k:2 * k] = (-terms * log_x * natural[:, k:2 * k, None]
                          ).transpose(0, 2, 1)
    jac[:, :, -1] = natural[:, -1:]
    return jac


def _costs(r: np.ndarray) -> np.ndarray:
    """Sum of squared residuals per start; inf where a residual or the sum is not finite."""
    cost = (r[:, None, :] @ r[:, :, None])[:, 0, 0]
    cost[~(np.isfinite(r).all(axis=1) & np.isfinite(cost))] = np.inf
    return cost


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve each system a[s] x = b[s]; NaN rows where a[s] is singular."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for s in range(len(a)):
            try:
                out[s] = np.linalg.solve(a[s], b[s])
            except np.linalg.LinAlgError:
                pass
        return out


def _descend(model: PowerLaw, xp: np.ndarray, y: np.ndarray,
             t0: np.ndarray, opts: FitOptions):
    """Damped Gauss-Newton descents from every row of t0 at once.

    Each start follows its own Levenberg-Marquardt rules: Marquardt
    diagonal damping, lambda x10 on a rejected or non-finite step (up to
    LAMBDA_MAX) and /10 (floored at 1e-15) on an accepted one, and a stop
    on a small gradient, a relative cost drop below COST_REL_TOL, no
    acceptable step, or max_iters.

    Returns:
        (t, cost, iterations, reason): final log-space vectors (S, p), final
        costs (inf for a non-finite start), iteration counts, and indices
        into STOP_REASONS.
    """
    t = t0.copy()
    log_x = np.log(xp)
    with np.errstate(all="ignore"):
        natural, terms = _terms(model, t, xp)
        r = _residuals(natural, terms, y)
        cost = _costs(r)
    live = np.isfinite(cost)
    iters = np.where(live, opts.max_iters, 0)
    reason = np.where(live, _MAX_ITERS, _NONFINITE_START)
    lam = np.full(len(t), LAMBDA_INIT)

    def stop(where, code):
        live[where], iters[where], reason[where] = False, iteration, code

    for iteration in range(1, opts.max_iters + 1):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        with np.errstate(all="ignore"):
            # Each start's terms are those of its last accepted evaluation.
            jac = _jacobian(np.exp(t[idx]), terms[idx], log_x)
        ok = np.isfinite(jac).all(axis=(1, 2))
        stop(idx[~ok], _NONFINITE_JACOBIAN)
        idx, jac = idx[ok], jac[ok]
        jtr = (jac.transpose(0, 2, 1) @ r[idx, :, None])[:, :, 0]
        flat = np.max(np.abs(2.0 * jtr), axis=1) < opts.gradient_tolerance
        stop(idx[flat], _GRADIENT)
        idx, jac, jtr = idx[~flat], jac[~flat], jtr[~flat]
        jtj = jac.transpose(0, 2, 1) @ jac
        # Marquardt scaling: damp each parameter relative to its own curvature.
        damping = np.maximum(np.diagonal(jtj, axis1=1, axis2=2), 1e-12)
        diag = np.arange(jtj.shape[1])
        accepted = np.zeros(idx.size, dtype=bool)
        search = np.flatnonzero(lam[idx] <= LAMBDA_MAX)   # positions in idx
        while search.size:
            s = idx[search]
            normal = jtj[search]
            normal[:, diag, diag] += lam[s, None] * damping[search]
            with np.errstate(all="ignore"):
                step = _solve(normal, -jtr[search])
                finite = np.isfinite(step).all(axis=1)
                trial = t[s[finite]] + step[finite]
                natural_new, terms_new = _terms(model, trial, xp)
                r_new = _residuals(natural_new, terms_new, y)
                cost_new = np.full(s.size, np.inf)
                cost_new[finite] = _costs(r_new)
            better = cost_new < cost[s]
            take = better[finite]
            moved = s[better]
            drop = (cost[moved] - cost_new[better]) / cost[moved]
            t[moved], r[moved], cost[moved] = trial[take], r_new[take], cost_new[better]
            terms[moved] = terms_new[take]
            lam[moved] = np.maximum(lam[moved] / 10.0, 1e-15)
            stop(moved[drop < COST_REL_TOL], _COST)
            accepted[search[better]] = True
            lam[s[~better]] *= 10.0
            search = search[~better]
            search = search[lam[idx[search]] <= LAMBDA_MAX]
        # No step improves even under maximal damping: decrease is 0 < tol.
        stop(idx[~accepted], _COST)
    return t, cost, iters, reason


def least_squares(model: PowerLaw, x: Sequence, y: Sequence[float],
                  opts: Optional[FitOptions] = None):
    """Fit model parameters by damped Gauss-Newton over a multistart grid.

    Minimizes sum((model(x_i; theta) - y_i)^2) in raw target space. Every
    start in the grid is descended independently, all in one batch; the
    lowest final cost wins, ties going to the earliest grid index.

    Args:
        model: a PowerLaw, one of LAWS.
        x: model inputs, one entry per target.
        y: observed targets.
        opts: engine options; defaults to FitOptions().

    Returns:
        (parameters, residual_norm, report): natural-space parameter tuple
        in model.param_names order, the Euclidean norm sqrt(sum r^2), and a
        ConvergenceReport for the winning start.

    Raises:
        DataError: length mismatch, under-determined system, or every
            start failing to produce a finite cost.
    """
    if opts is None:
        opts = FitOptions()
    y_arr = np.asarray(y, dtype=float)
    if len(x) != y_arr.size:
        raise DataError(f"{len(x)} inputs vs {y_arr.size} targets")
    if not np.all(np.isfinite(y_arr)):
        raise DataError("targets must be finite")
    n_params = len(model.param_names)
    if y_arr.size < n_params + 1:
        raise DataError(
            f"under-determined: {y_arr.size} points for {n_params} parameters "
            f"(need at least {n_params + 1})"
        )
    xp = _prepare(model, x)
    starts = opts.multistart_grid
    if starts is None:
        starts = _default_starts(model, xp, y_arr)
    if len(starts) == 0:
        raise DataError("multistart grid is empty")
    for index, t0 in enumerate(starts):
        if np.shape(t0) != (n_params,):
            raise DataError(
                f"start {index} has shape {np.shape(t0)}, expected ({n_params},)"
            )

    t, cost, iters, reason = _descend(model, xp, y_arr,
                                      np.array(starts, dtype=float), opts)
    if not np.isfinite(cost).any():
        raise DataError("no multistart run produced a finite cost")
    best = int(np.argmin(cost))   # the first of equal minima
    report = ConvergenceReport(
        converged=bool(reason[best] in (_GRADIENT, _COST)),
        iterations=int(iters[best]),
        stop_reason=STOP_REASONS[reason[best]],
        start_index=best,
        n_starts=len(starts),
    )
    return _decode(t[best]), sqrt(cost[best]), report


def fit_law(table: ObservationTable, model: PowerLaw,
            opts: Optional[FitOptions] = None) -> LawFit:
    """Fit a law to one dataset's observations.

    The dimension law (K = 1) takes exactly one model's series; the joint
    law (K = 2) takes at least two models, with parameter counts divided by
    one million before fitting. Delta is clipped at 0.

    Raises:
        DataError: mixed datasets, the wrong number of models for the law,
            or too few points.
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
    y = np.asarray([row.entropy for row in table], dtype=float)
    params, residual_norm, report = least_squares(model, x, y, opts)
    params = params[:-1] + (max(0.0, params[-1]),)
    predictions = _values(model, params, _prepare(model, x))
    warnings = []
    if not report.converged:
        warnings.append(f"fit did not converge: {report.stop_reason}")
    if params[-1] > float(np.min(y)):
        warnings.append("delta exceeds the smallest observed entropy")
    return LawFit(model, params,
                  r2=r_squared(predictions.tolist(), y.tolist()),
                  residual_norm=residual_norm,
                  n_points=len(x),
                  converged=report.converged,
                  start_index=report.start_index,
                  warnings=tuple(warnings))
