"""Scaling-law models and the nonlinear least-squares engine behind them.

Two model families are fitted to observation tables:

  dimension-only   L(D)    = A / D^alpha + delta
  joint            L(D, N) = A / D^alpha + B / (N/1e6)^beta + delta

Residuals are taken in raw (linear) entropy space, unweighted. Positivity
of every parameter is enforced by optimizing logarithms; the floor term
uses log(delta + 1e-9) so delta = 0 stays reachable. The engine is a damped
Gauss-Newton (Levenberg-Marquardt) iteration with analytic Jacobians and a
deterministic multistart grid, so repeated fits of the same table are
bit-identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import fsum, inf, isfinite, sqrt
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import DataError, NumericError, ObservationTable

DELTA_EPS = 1e-9         # offset inside log(delta + eps); keeps delta=0 reachable
COST_REL_TOL = 1e-12     # relative cost decrease below this counts as converged
LAMBDA_INIT = 1e-3
LAMBDA_MAX = 1e15
MILLION = 1e6


@dataclass(frozen=True)
class FitOptions:
    """Engine knobs. multistart_grid entries are log-space parameter vectors."""

    max_iters: int = 500
    gradient_tolerance: float = 1e-10
    multistart_grid: Optional[tuple] = None
    seed: int = 0

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


@dataclass(frozen=True)
class ModelFamily:
    """A residual-function family expressed over log-space parameters.

    prepare turns the caller's x sequence into arrays; decode maps a
    log-space vector to natural parameters; predict and jacobian evaluate
    the model and its derivative w.r.t. the log-space vector.
    """

    name: str
    param_names: tuple[str, ...]
    prepare: Callable
    decode: Callable
    predict: Callable
    jacobian: Callable
    default_starts: Callable


def _dim_prepare(x: Sequence) -> np.ndarray:
    d = np.asarray(x, dtype=float)
    if d.ndim != 1 or not np.all(d >= 1):
        raise DataError("dimension inputs must be scalars >= 1")
    return d


def _dim_decode(t: np.ndarray) -> tuple[float, float, float]:
    a, alpha, delta = np.exp(t[0]), np.exp(t[1]), np.exp(t[2]) - DELTA_EPS
    return float(a), float(alpha), float(delta)


def _dim_predict(params, d: np.ndarray) -> np.ndarray:
    a, alpha, delta = params
    return a * d ** (-alpha) + delta


def _dim_jacobian(t: np.ndarray, d: np.ndarray) -> np.ndarray:
    a, alpha = np.exp(t[0]), np.exp(t[1])
    term = a * d ** (-alpha)
    return np.column_stack([
        term,
        -term * np.log(d) * alpha,
        np.full(d.size, np.exp(t[2])),
    ])


def _floor_start_values(y: np.ndarray) -> list[float]:
    ymin = float(np.min(y))
    return [0.0, ymin / 2.0, 0.99 * ymin]


def _scale_start_values(y: np.ndarray, geo: float) -> list[float]:
    base = max(float(np.mean(y)) * geo, 1e-12)
    return [0.1 * base, base, 10.0 * base]


def _dim_starts(d: np.ndarray, y: np.ndarray) -> list[list[float]]:
    # 3x3x3 heuristic grid; A is scaled so A/D^1 has the data's magnitude.
    geo = float(np.exp(np.mean(np.log(d))))
    a_values = _scale_start_values(y, geo)
    alpha_values = [0.5, 1.0, 2.0]
    delta_values = _floor_start_values(y)
    return [
        [np.log(a), np.log(al), np.log(dl + DELTA_EPS)]
        for a, al, dl in itertools.product(a_values, alpha_values, delta_values)
    ]


DIM_LAW = ModelFamily(
    name="dim",
    param_names=("a_coeff", "alpha", "delta"),
    prepare=_dim_prepare,
    decode=_dim_decode,
    predict=_dim_predict,
    jacobian=_dim_jacobian,
    default_starts=_dim_starts,
)


def _joint_prepare(x: Sequence) -> tuple[np.ndarray, np.ndarray]:
    pairs = np.asarray(x, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise DataError("joint inputs must be (dimension, params-in-millions) pairs")
    d, nm = pairs[:, 0], pairs[:, 1]
    if not (np.all(d >= 1) and np.all(nm > 0)):
        raise DataError("joint inputs must have dimension >= 1 and size > 0")
    return d, nm


def _joint_decode(t: np.ndarray) -> tuple[float, float, float, float, float]:
    return (float(np.exp(t[0])), float(np.exp(t[1])), float(np.exp(t[2])),
            float(np.exp(t[3])), float(np.exp(t[4]) - DELTA_EPS))


def _joint_predict(params, x) -> np.ndarray:
    a, b, alpha, beta, delta = params
    d, nm = x
    return a * d ** (-alpha) + b * nm ** (-beta) + delta


def _joint_jacobian(t: np.ndarray, x) -> np.ndarray:
    d, nm = x
    a, b, alpha, beta = np.exp(t[0]), np.exp(t[1]), np.exp(t[2]), np.exp(t[3])
    dim_term = a * d ** (-alpha)
    size_term = b * nm ** (-beta)
    return np.column_stack([
        dim_term,
        size_term,
        -dim_term * np.log(d) * alpha,
        -size_term * np.log(nm) * beta,
        np.full(d.size, np.exp(t[4])),
    ])


def _joint_starts(x, y: np.ndarray) -> list[list[float]]:
    d, nm = x
    a_values = _scale_start_values(y, float(np.exp(np.mean(np.log(d)))))
    b_values = _scale_start_values(y, float(np.exp(np.mean(np.log(nm)))))
    exponent_values = [0.5, 1.0, 2.0]
    delta_values = _floor_start_values(y)
    return [
        [np.log(a), np.log(b), np.log(al), np.log(be), np.log(dl + DELTA_EPS)]
        for a, b, al, be, dl in itertools.product(
            a_values, b_values, exponent_values, exponent_values, delta_values)
    ]


JOINT_LAW = ModelFamily(
    name="joint",
    param_names=("a_coeff", "b_coeff", "alpha", "beta", "delta"),
    prepare=_joint_prepare,
    decode=_joint_decode,
    predict=_joint_predict,
    jacobian=_joint_jacobian,
    default_starts=_joint_starts,
)


def _cost_at(model: ModelFamily, t: np.ndarray, xp, y: np.ndarray):
    with np.errstate(all="ignore"):
        r = model.predict(model.decode(t), xp) - y
        if not np.all(np.isfinite(r)):
            return None, np.inf
        cost = float(r @ r)
    return (r, cost) if np.isfinite(cost) else (None, np.inf)


def _levenberg_marquardt(model: ModelFamily, xp, y: np.ndarray,
                         t0: np.ndarray, opts: FitOptions):
    """One damped Gauss-Newton descent from t0; returns (t, cost, iters, converged, reason)."""
    t = np.array(t0, dtype=float)
    r, cost = _cost_at(model, t, xp, y)
    if r is None:
        return t, np.inf, 0, False, "non-finite start"
    lam = LAMBDA_INIT
    for iteration in range(1, opts.max_iters + 1):
        with np.errstate(all="ignore"):
            jac = model.jacobian(t, xp)
        if not np.all(np.isfinite(jac)):
            return t, cost, iteration, False, "non-finite jacobian"
        grad = 2.0 * (jac.T @ r)
        if float(np.max(np.abs(grad))) < opts.gradient_tolerance:
            return t, cost, iteration, True, "gradient below tolerance"
        jtj = jac.T @ jac
        # Marquardt scaling: damp each parameter relative to its own curvature.
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
            r_new, cost_new = _cost_at(model, t + step, xp, y)
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
            # No step improves even under maximal damping: decrease is 0 < tol.
            return t, cost, iteration, True, "cost decrease below tolerance"
    return t, cost, opts.max_iters, False, "max_iters reached"


def least_squares(model: ModelFamily, x: Sequence, y: Sequence[float],
                  opts: Optional[FitOptions] = None):
    """Fit model parameters by damped Gauss-Newton over a multistart grid.

    Minimizes sum((model(x_i; theta) - y_i)^2) in raw target space. Every
    start in the grid is descended independently; the lowest final cost
    wins, ties going to the earliest grid index.

    Args:
        model: a ModelFamily (DIM_LAW or JOINT_LAW).
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
    xp = model.prepare(x)
    n_params = len(model.param_names)
    if y_arr.size < n_params + 1:
        raise DataError(
            f"under-determined: {y_arr.size} points for {n_params} parameters "
            f"(need at least {n_params + 1})"
        )
    starts = opts.multistart_grid
    if starts is None:
        starts = model.default_starts(xp, y_arr)
    if not starts:
        raise DataError("multistart grid is empty")

    best = None
    for index, t0 in enumerate(starts):
        t0_arr = np.asarray(t0, dtype=float)
        if t0_arr.shape != (n_params,):
            raise DataError(
                f"start {index} has shape {t0_arr.shape}, expected ({n_params},)"
            )
        t, cost, iters, converged, reason = _levenberg_marquardt(
            model, xp, y_arr, t0_arr, opts)
        if np.isfinite(cost) and (best is None or cost < best[1]):
            best = (t, cost, iters, converged, reason, index)
    if best is None:
        raise DataError("no multistart run produced a finite cost")

    t, cost, iters, converged, reason, index = best
    report = ConvergenceReport(
        converged=converged,
        iterations=iters,
        stop_reason=reason,
        start_index=index,
        n_starts=len(starts),
    )
    return model.decode(t), sqrt(cost), report


@dataclass(frozen=True)
class DimLawFit:
    """Fitted dimension-only law L(D) = a_coeff / D^alpha + delta."""

    a_coeff: float
    alpha: float
    delta: float
    r2: float
    residual_norm: float
    n_points: int
    converged: bool = True
    start_index: int = 0
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not (self.a_coeff > 0 and self.alpha > 0):
            raise DataError("a_coeff and alpha must be positive")
        if self.delta < 0:
            raise DataError("delta must be nonnegative")
        if self.r2 > 1.0:
            raise DataError(f"r2 must be <= 1, got {self.r2}")


@dataclass(frozen=True)
class JointLawFit:
    """Fitted joint law L(D, N) = a_coeff/D^alpha + b_coeff/(N/1e6)^beta + delta.

    param_unit records that b_coeff is calibrated against parameter counts
    expressed in millions; predict_joint does the division internally.
    """

    a_coeff: float
    b_coeff: float
    alpha: float
    beta: float
    delta: float
    r2: float
    residual_norm: float
    n_points: int
    param_unit: str = "millions"
    converged: bool = True
    start_index: int = 0
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not (self.a_coeff > 0 and self.b_coeff > 0
                and self.alpha > 0 and self.beta > 0):
            raise DataError("a_coeff, b_coeff, alpha, beta must be positive")
        if self.delta < 0:
            raise DataError("delta must be nonnegative")
        if self.r2 > 1.0:
            raise DataError(f"r2 must be <= 1, got {self.r2}")
        if self.param_unit != "millions":
            raise DataError(f"param_unit must be 'millions', got {self.param_unit!r}")


def _single_dataset(table: ObservationTable) -> None:
    if len(table.datasets) != 1:
        raise DataError(
            f"mixed datasets {table.datasets}; filter to a single dataset first"
        )


def _fit_warnings(delta: float, y: np.ndarray, report: ConvergenceReport) -> tuple:
    warnings = []
    if not report.converged:
        warnings.append(f"fit did not converge: {report.stop_reason}")
    if delta > float(np.min(y)):
        warnings.append("delta exceeds the smallest observed entropy")
    return tuple(warnings)


def fit_dim_law(table: ObservationTable,
                opts: Optional[FitOptions] = None) -> DimLawFit:
    """Fit the dimension-only law to a single model's series on one dataset.

    Args:
        table: observations for exactly one (model, dataset), >= 4 points.
        opts: optional engine options.

    Raises:
        DataError: mixed models or datasets, or too few points.
    """
    _single_dataset(table)
    if len(table.model_names) != 1:
        raise DataError(
            f"mixed models {table.model_names}; fit_dim_law needs exactly one"
        )
    x = [row.embed_dim for row in table]
    y = np.asarray([row.entropy for row in table], dtype=float)
    (a, alpha, delta), residual_norm, report = least_squares(DIM_LAW, x, y, opts)
    delta = max(0.0, delta)
    predictions = _dim_predict((a, alpha, delta), np.asarray(x, dtype=float))
    return DimLawFit(
        a_coeff=a, alpha=alpha, delta=delta,
        r2=r_squared(predictions.tolist(), y.tolist()),
        residual_norm=residual_norm,
        n_points=len(x),
        converged=report.converged,
        start_index=report.start_index,
        warnings=_fit_warnings(delta, y, report),
    )


def fit_joint_law(table: ObservationTable,
                  opts: Optional[FitOptions] = None) -> JointLawFit:
    """Fit the joint law to several models' series on one dataset.

    Parameter counts are divided by one million before fitting, so b_coeff
    and beta are calibrated in that unit (param_unit = "millions").

    Raises:
        DataError: a single-model table (use fit_dim_law), mixed datasets,
            or fewer than 6 points.
    """
    _single_dataset(table)
    if len(table.model_names) < 2:
        raise DataError(
            "joint law needs at least 2 distinct models; use fit_dim_law for one"
        )
    x = [(row.embed_dim, row.n_params / MILLION) for row in table]
    y = np.asarray([row.entropy for row in table], dtype=float)
    params, residual_norm, report = least_squares(JOINT_LAW, x, y, opts)
    a, b, alpha, beta, delta = params
    delta = max(0.0, delta)
    d_arr = np.asarray([p[0] for p in x], dtype=float)
    nm_arr = np.asarray([p[1] for p in x], dtype=float)
    predictions = _joint_predict((a, b, alpha, beta, delta), (d_arr, nm_arr))
    return JointLawFit(
        a_coeff=a, b_coeff=b, alpha=alpha, beta=beta, delta=delta,
        r2=r_squared(predictions.tolist(), y.tolist()),
        residual_norm=residual_norm,
        n_points=len(x),
        converged=report.converged,
        start_index=report.start_index,
        warnings=_fit_warnings(delta, y, report),
    )


def _law_value(delta: float, *terms: tuple[float, float, float]) -> float:
    """delta + sum of c / x**e over (c, x, e); NumericError unless finite."""
    try:
        value = sum(c / x ** e for c, x, e in terms) + delta
    except (OverflowError, ZeroDivisionError):
        value = inf
    if not isfinite(value):
        raise NumericError(f"fitted law is not finite at {terms}: {value}")
    return value


def predict_dim(fit: DimLawFit, d) -> float:
    """Evaluate a_coeff / D^alpha + delta.

    D is a positive real; observed dimensions are integers but the law is
    defined on the whole positive axis. Raises NumericError on overflow.
    """
    if not d > 0:
        raise DataError(f"dimension must be positive, got {d}")
    return _law_value(fit.delta, (fit.a_coeff, float(d), fit.alpha))


def predict_joint(fit: JointLawFit, d, n_params) -> float:
    """Evaluate a_coeff/D^alpha + b_coeff/(N/1e6)^beta + delta.

    Raises NumericError on overflow.

    Args:
        d: embedding dimension, positive real.
        n_params: model size in raw parameters (not millions).
    """
    if not d > 0:
        raise DataError(f"dimension must be positive, got {d}")
    if not n_params > 0:
        raise DataError(f"n_params must be positive, got {n_params}")
    return _law_value(fit.delta, (fit.a_coeff, float(d), fit.alpha),
                      (fit.b_coeff, float(n_params) / MILLION, fit.beta))


def r_squared(predictions: Sequence[float], targets: Sequence[float]) -> float:
    """Coefficient of determination in raw target space.

    Raises:
        DataError: length mismatch, empty input, or all-identical targets
            (zero total variance).
    """
    if len(predictions) != len(targets) or not targets:
        raise DataError(
            f"predictions ({len(predictions)}) and targets ({len(targets)}) "
            "must be equal-length and nonempty"
        )
    mean = fsum(targets) / len(targets)
    ss_tot = fsum((t - mean) ** 2 for t in targets)
    if ss_tot == 0.0:
        raise DataError("zero total variance: targets are all identical")
    ss_res = fsum((p - t) ** 2 for p, t in zip(predictions, targets))
    return 1.0 - ss_res / ss_tot


def fit_to_report(fit: Union[DimLawFit, JointLawFit],
                  opts: Optional[FitOptions] = None) -> dict:
    """Serialize a fit to the report-JSON structure (law, parameters, diagnostics)."""
    if isinstance(fit, DimLawFit):
        law = "dim"
        parameters = {"a_coeff": fit.a_coeff, "alpha": fit.alpha,
                      "delta": fit.delta}
    elif isinstance(fit, JointLawFit):
        law = "joint"
        parameters = {"a_coeff": fit.a_coeff, "b_coeff": fit.b_coeff,
                      "alpha": fit.alpha, "beta": fit.beta,
                      "delta": fit.delta, "param_unit": fit.param_unit}
    else:
        raise DataError(f"not a fit object: {type(fit).__name__}")
    report = {
        "law": law,
        "parameters": parameters,
        "r2": fit.r2,
        "residual_norm": fit.residual_norm,
        "n_points": fit.n_points,
        "converged": fit.converged,
        "multistart_index": fit.start_index,
        "warnings": list(fit.warnings),
    }
    if opts is not None:
        report["options"] = {
            "max_iters": opts.max_iters,
            "gradient_tolerance": opts.gradient_tolerance,
            "seed": opts.seed,
            "n_starts": None if opts.multistart_grid is None
            else len(opts.multistart_grid),
        }
    return report


def fit_from_report(obj: dict) -> Union[DimLawFit, JointLawFit]:
    """Rebuild a fit object from report JSON; inverse of fit_to_report.

    Raises:
        DataError: unknown law tag or missing fields.
    """
    try:
        law = obj["law"]
        params = obj["parameters"]
        common = dict(
            r2=obj["r2"],
            residual_norm=obj["residual_norm"],
            n_points=obj["n_points"],
            converged=obj.get("converged", True),
            start_index=obj.get("multistart_index", 0),
            warnings=tuple(obj.get("warnings", ())),
        )
        if law == "dim":
            return DimLawFit(a_coeff=params["a_coeff"], alpha=params["alpha"],
                             delta=params["delta"], **common)
        if law == "joint":
            return JointLawFit(a_coeff=params["a_coeff"], b_coeff=params["b_coeff"],
                               alpha=params["alpha"], beta=params["beta"],
                               delta=params["delta"],
                               param_unit=params.get("param_unit", "millions"),
                               **common)
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed fit report: {exc}") from None
    raise DataError(f"unknown law {law!r} in fit report")
