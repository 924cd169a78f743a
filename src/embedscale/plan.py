"""FLOPs cost models and budget-constrained (model size, dimension) planning.

Per-query cost is split between encoding the query with an N-parameter
model (2NT FLOPs for T tokens) and scoring it against a corpus of M
vectors: 2MD for exhaustive scoring, 2*D*ln(M) for the ANN proxy. The log
base in the ANN regime is fixed to the natural log here and noted in every
output, since cost constants are only meaningful up to such factors.
Projection-layer FLOPs are deliberately not counted.

A fraction gamma of the budget goes to encoding, the rest to scoring.
Predicted entropy under the joint scaling law is convex in gamma, so the
optimal allocation is the root of its slope, found by bisection over the
feasible interval where D >= 1.
"""

from __future__ import annotations

from math import isfinite, log, log1p, nextafter
from typing import Sequence

from .core import DataError, _check_double, record
from .law import JOINT_LAW, MILLION, LawFit, predict

REGIMES = ("exhaustive", "ann")


@record
class BudgetSpec:
    """Per-query FLOPs budget and the retrieval workload it must cover."""

    total_flops: float
    query_tokens: int
    corpus_size: int
    regime: str = "exhaustive"

    def __post_init__(self):
        if not (isfinite(self.total_flops) and self.total_flops > 0):
            raise DataError(f"total_flops must be positive, got {self.total_flops}")
        # The cost functions hold the rules for T, M and the regime.
        flops_encode(1.0, self.query_tokens)
        flops_score(self.corpus_size, 1.0, self.regime)


@record
class AllocationResult:
    """Optimal split of one budget.

    n_hat and d_hat are the raw real-valued optimizers; the rounded forms
    snap to 1e6-parameter and multiple-of-8 granularity. budget_overshoot
    is the rounded allocation's cost minus the budget (negative when
    rounding lands inside it). enc_flops and score_flops are the raw
    allocation's costs and sum to the budget up to float rounding.
    """

    gamma: float
    n_hat: float
    d_hat: float
    n_hat_rounded: float
    d_hat_rounded: int
    predicted_entropy: float
    enc_flops: float
    score_flops: float
    budget_overshoot: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise DataError(f"gamma must lie in (0,1), got {self.gamma}")
        if not (self.n_hat > 0 and self.d_hat > 0):
            raise DataError("n_hat and d_hat must be positive")


@record
class BudgetCurve:
    """Entropy-vs-dimension curve at a fixed budget; skipped dims were infeasible."""

    points: tuple[tuple[float, float], ...]
    skipped: tuple[float, ...]


def flops_encode(n_params: float, tokens: int) -> float:
    """Query encoding cost 2*N*T."""
    if not n_params > 0:
        raise DataError(f"n_params must be positive, got {n_params}")
    if tokens < 1:
        raise DataError(f"tokens must be >= 1, got {tokens}")
    _check_double("tokens", tokens)
    return 2.0 * n_params * tokens


def flops_score(corpus_size: int, dim: float, regime: str = "exhaustive") -> float:
    """Corpus scoring cost: 2*M*D exhaustive, 2*D*ln(M) for the ANN proxy."""
    if corpus_size < 2:
        raise DataError(f"corpus_size must be >= 2, got {corpus_size}")
    if not dim > 0:
        raise DataError(f"dim must be positive, got {dim}")
    _check_double("dim", dim)
    if regime == "exhaustive":
        _check_double("corpus_size", corpus_size)
        return 2.0 * corpus_size * dim
    if regime == "ann":
        return 2.0 * dim * log(corpus_size)
    raise DataError(f"regime must be one of {REGIMES}, got {regime!r}")


def allocation_from_gamma(gamma: float, b: BudgetSpec) -> tuple[float, float]:
    """(N, D) implied by giving fraction gamma of the budget to encoding.

    N = gamma*B/(2T); D = (1-gamma)*B / flops_score(M, 1), the price of
    one dimension in the regime. Outputs are real-valued, unrounded.
    """
    if not 0.0 < gamma < 1.0:
        raise DataError(f"gamma must lie in (0,1), got {gamma}")
    n = gamma * b.total_flops / (2.0 * b.query_tokens)
    d = (1.0 - gamma) * b.total_flops / flops_score(b.corpus_size, 1.0, b.regime)
    return n, d


def round_dim(d: float) -> int:
    """Snap a dimension to the nearest multiple of 8, floored at 8."""
    return max(8, 8 * round(d / 8.0))


def round_params(n: float) -> float:
    """Snap a parameter count to the nearest million, floored at 1e6."""
    return max(1e6, round(n / 1e6) * 1e6)


def optimal_allocation(fit: LawFit, b: BudgetSpec) -> AllocationResult:
    """Minimize predicted entropy over the gamma split of one budget.

    The objective a*(c_D(1-gamma))^-alpha + b*(c_N gamma)^-beta + delta has
    a strictly increasing slope, so its minimizer is the slope's one root.
    Bisection on the sign of the slope, compared in log space, runs over
    the feasible interval (0, 1 - flops_score(M, 1)/B], where D >= 1,
    until the bracket ends are adjacent doubles; a root past the interval
    gives its D = 1 end. The law is evaluated at the final bracket ends and
    the lower value wins. The returned allocation reports the raw optimizer
    plus rounded forms and the rounding's budget overshoot.

    Raises:
        DataError: non-joint fit, or a budget below the cost of the
            smallest allocation the rounding reports (N = 1e6, D = 8).
        NumericError: the law is not finite at the optimizer.
    """
    if getattr(fit, "model", None) is not JOINT_LAW:
        raise DataError("optimal_allocation requires a joint-law fit")
    # round_params and round_dim never report less than N = 1e6 and D = 8.
    smallest = (flops_encode(1e6, b.query_tokens)
                + flops_score(b.corpus_size, 8, b.regime))
    if b.total_flops < smallest:
        raise DataError(f"budget {b.total_flops!r} FLOPs is below {smallest!r}, "
                        "the cost of the smallest allocation (N=1e6, D=8)")

    per_dim = flops_score(b.corpus_size, 1.0, b.regime)
    log_c_d = log(b.total_flops / per_dim)
    log_c_n = log(b.total_flops / (2.0 * b.query_tokens * MILLION))
    # Logs of a*alpha*c_D^-alpha and b*beta*c_N^-beta, the slope terms'
    # factors, summed term by term so that no product overflows.
    a_coeff, b_coeff, alpha, beta, _ = fit.params
    k_d = log(a_coeff) + log(alpha) - alpha * log_c_d
    k_n = log(b_coeff) + log(beta) - beta * log_c_n

    def slope_nonnegative(gamma: float) -> bool:
        return (k_d - (alpha + 1.0) * log1p(-gamma)
                - k_n + (beta + 1.0) * log(gamma)) >= 0.0

    # When per_dim/B is below half an ulp of 1, the D = 1 end rounds to 1.0;
    # the largest double below 1 still gives D >= 1.
    lo, hi = 0.0, min(1.0 - per_dim / b.total_flops, nextafter(1.0, 0.0))
    if slope_nonnegative(hi):
        # Doubles are at least 2^-1074 apart: the bracket closes in ~1075 steps.
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if slope_nonnegative(mid):
                hi = mid
            else:
                lo = mid

    def objective(gamma: float) -> float:
        n, d = allocation_from_gamma(gamma, b)
        return predict(fit, d, n)

    value, gamma_hat = min((objective(g), g) for g in (lo, hi) if g > 0.0)
    n_hat, d_hat = allocation_from_gamma(gamma_hat, b)
    n_rounded = round_params(n_hat)
    d_rounded = round_dim(d_hat)
    rounded_cost = (flops_encode(n_rounded, b.query_tokens)
                    + flops_score(b.corpus_size, d_rounded, b.regime))
    return AllocationResult(
        gamma=gamma_hat,
        n_hat=n_hat,
        d_hat=d_hat,
        n_hat_rounded=n_rounded,
        d_hat_rounded=d_rounded,
        predicted_entropy=value,
        enc_flops=flops_encode(n_hat, b.query_tokens),
        score_flops=flops_score(b.corpus_size, d_hat, b.regime),
        budget_overshoot=rounded_cost - b.total_flops,
    )


def budget_curve(fit: LawFit, b: BudgetSpec,
                 dims: Sequence[float]) -> BudgetCurve:
    """Predicted entropy at each dimension when the leftover budget buys N.

    For each D with flops_score(M, D) < B, the model size is the largest
    affordable, N = (B - flops_score) / (2T); dims whose scoring cost
    alone exhausts the budget are skipped and reported.

    Raises:
        DataError: non-joint fit, empty dims, a dim < 1, or every dim
            infeasible.
    """
    if getattr(fit, "model", None) is not JOINT_LAW:
        raise DataError("budget_curve requires a joint-law fit")
    if not len(dims):
        raise DataError("dims must be nonempty")
    points = []
    skipped = []
    for d in dims:
        if not d >= 1:
            raise DataError(f"dimensions must be >= 1, got {d}")
        score = flops_score(b.corpus_size, d, b.regime)
        if not score < b.total_flops:
            skipped.append(d)
            continue
        n = (b.total_flops - score) / (2.0 * b.query_tokens)
        points.append((d, predict(fit, d, n)))
    if not points:
        raise DataError(
            f"all {len(dims)} dimensions infeasible for budget {b.total_flops}"
        )
    return BudgetCurve(points=tuple(points), skipped=tuple(skipped))
