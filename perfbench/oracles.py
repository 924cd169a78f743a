"""Independent numpy/scipy checks of embedscale's outputs.

Nothing here imports embedscale: every expected value is recomputed from the
generated inputs with a different method (vectorized log-sum-exp, a bounded
scipy polish, a dense numpy scan), so a check cannot share a bug with the
code it checks. Each check returns None when the output is correct and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
import math

import numpy as np

ENTROPY_RTOL = 1e-12      # measured gap at the seed commit: <= 1.3e-16
# A per-query entropy log(z), with z = 1 + (tiny negative mass), carries an
# absolute error of a few ulp(1.0) however it is summed.
QUERY_ENTROPY_ATOL = 1e-15
SSE_RTOL = 1e-9           # residual_norm**2 against the recomputed SSE
POLISH_RTOL = 1e-9        # largest SSE decrease a bounded polish may find
SCAN_RTOL = 1e-13         # pow() in numpy and libm may differ by an ulp
BUDGET_RTOL = 1e-9        # enc_flops + score_flops against the budget
COSINE_ATOL = 1e-12
SCAN_POINTS = 1 << 14      # four times the seed planner's grid, plus crowded ends
# The encoding shares the planner searches at the seed commit: its grid
# gamma_j = j/(G+1), j = 1..G, with G = 4096, and golden-section refinement
# between grid points. A planner that searches more of (0, 1) still passes.
PLANNER_STEP = 1.0 / 4097
PLANNER_SPAN = (1 * PLANNER_STEP, 4096 * PLANNER_STEP)


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in JSON")


def load_report(text: str):
    """Parse a JSON artifact, refusing NaN and Infinity; returns (obj, reason)."""
    try:
        return json.loads(text, parse_constant=_reject_constant), None
    except ValueError as exc:
        return None, f"report does not parse: {exc}"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# -- contrastive entropy -----------------------------------------------------

def entropy_oracle(records, tau) -> tuple[float, np.ndarray]:
    """Dataset entropy and per-query entropies of (positives, negatives) pairs.

    A query's entropy is the mean over its positives of -log softmax of the
    positive against the negatives, computed as log1p(sum exp(n - p)): no
    cancellation when the entropy is tiny, and no overflow for the score
    ranges generated here. The dataset entropy is the mean over queries.
    """
    scale = 1.0 if tau is None else 1.0 / tau
    per_query = np.empty(len(records))
    for i, (pos, neg) in enumerate(records):
        p = np.asarray(pos, dtype=float) * scale
        n = np.asarray(neg, dtype=float) * scale
        per_query[i] = np.mean(np.log1p(np.exp(n[None, :] - p[:, None]).sum(axis=1)))
    return float(np.mean(per_query)), per_query


def check_entropy(value: float, expected: float, atol: float = 0.0) -> str | None:
    if not (math.isfinite(value)
            and abs(value - expected) <= max(atol, ENTROPY_RTOL * abs(expected))):
        return f"entropy {value!r} differs from oracle {expected!r}"
    return None


# -- law fits ----------------------------------------------------------------

def joint_law(params: dict, d, n_params):
    return (params["a_coeff"] * np.asarray(d, float) ** -params["alpha"]
            + params["b_coeff"] * (np.asarray(n_params, float) / 1e6) ** -params["beta"]
            + params["delta"])


def dim_law(params: dict, d):
    return params["a_coeff"] * np.asarray(d, float) ** -params["alpha"] + params["delta"]


JOINT_NAMES = ("a_coeff", "b_coeff", "alpha", "beta", "delta")
DIM_NAMES = ("a_coeff", "alpha", "delta")


def _law(law: str, rows):
    """(parameter names, residual function of a parameter vector) for a table."""
    d = np.array([r[0] for r in rows], float)
    n = np.array([r[1] for r in rows], float)
    y = np.array([r[2] for r in rows], float)
    names = JOINT_NAMES if law == "joint" else DIM_NAMES

    def residuals(vec):
        params = dict(zip(names, vec))
        pred = joint_law(params, d, n) if law == "joint" else dim_law(params, d)
        return pred - y

    return names, residuals


def sse(law: str, params: dict, rows) -> float:
    """Sum of squared residuals of a law on rows of (dim, n_params, entropy)."""
    names, residuals = _law(law, rows)
    r = residuals([params[k] for k in names])
    return math.fsum(r * r)


def check_fit(report: dict, law: str, rows, reference: dict | None = None) -> str | None:
    """Check a fit report against its table.

    residual_norm**2 must equal the SSE of the reported parameters, and a
    bounded scipy polish from those parameters (delta >= 0, the rest > 0)
    must not lower the SSE by more than POLISH_RTOL. When the generating
    parameters are known (reference), the fit's SSE may not exceed theirs.
    """
    from scipy.optimize import least_squares

    if report.get("law") != law:
        return f"report law {report.get('law')!r}, expected {law!r}"
    params = report["parameters"]
    names, residuals = _law(law, rows)
    got = sse(law, params, rows)
    if _rel(report["residual_norm"] ** 2, got) > SSE_RTOL:
        return f"residual_norm**2 {report['residual_norm'] ** 2!r} != SSE {got!r}"
    start = np.array([params[k] for k in names], float)
    polished = least_squares(residuals, start, bounds=(0.0, np.inf),
                             method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    better = math.fsum(polished.fun * polished.fun)
    if better < got * (1.0 - POLISH_RTOL):
        return f"polish lowers SSE from {got!r} to {better!r}"
    if reference is not None and got > sse(law, reference, rows):
        return f"SSE {got!r} above the generating parameters' {sse(law, reference, rows)!r}"
    return None


# -- planning ----------------------------------------------------------------

def scan_gammas(lo: float, hi: float) -> np.ndarray:
    """Uniform points on [lo, hi] plus geometric points crowding both ends,
    where the optimum sits when one term of the law is negligible."""
    uniform = np.linspace(lo, hi, SCAN_POINTS)
    width = (hi - lo) / SCAN_POINTS
    edge = np.geomspace(width * 1e-9, width, 512)
    return np.unique(np.concatenate([uniform, lo + edge, hi - edge, [lo, hi]]))


SPAN_GAMMAS = scan_gammas(*PLANNER_SPAN)
FULL_GAMMAS = scan_gammas(1e-12, 1.0 - 1e-12)


def scan_minimum(params: dict, budget: float, tokens: int, corpus: int,
                 regime: str, gammas: np.ndarray) -> float:
    """Smallest predicted entropy over a scan of the encoding share."""
    g = gammas
    n = g * budget / (2.0 * tokens)
    per_dim = 2.0 * corpus if regime == "exhaustive" else 2.0 * math.log(corpus)
    d = (1.0 - g) * budget / per_dim
    return float(np.min(joint_law(params, d, n)))


def check_plan(report: dict, params: dict, tokens: int, corpus: int,
               regime: str) -> str | None:
    """Each allocation spends exactly its budget and is no worse than a dense
    scan of the planner's search span."""
    for alloc in report["allocations"]:
        budget = alloc["budget"]
        spent = alloc["enc_flops"] + alloc["score_flops"]
        if _rel(spent, budget) > BUDGET_RTOL:
            return f"budget {budget!r}: allocation spends {spent!r}"
        best = scan_minimum(params, budget, tokens, corpus, regime, SPAN_GAMMAS)
        if alloc["predicted_entropy"] > best * (1.0 + SCAN_RTOL):
            return (f"budget {budget!r}: predicted_entropy "
                    f"{alloc['predicted_entropy']!r} above scan minimum {best!r}")
    return None


def missed_optima(report: dict, params: dict, tokens: int, corpus: int,
                  regime: str) -> int:
    """Allocations that a scan of all of (0, 1) beats: optima outside the span
    the planner searches, reported as a count rather than as a failure."""
    return sum(
        alloc["predicted_entropy"] > (1.0 + SCAN_RTOL) * scan_minimum(
            params, alloc["budget"], tokens, corpus, regime, FULL_GAMMAS)
        for alloc in report["allocations"])


# -- embeddings --------------------------------------------------------------

def cosine_scores(q: np.ndarray, d: np.ndarray) -> np.ndarray:
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    dn = d / np.linalg.norm(d, axis=1, keepdims=True)
    return qn @ dn.T


def check_scores(scores: np.ndarray, q: np.ndarray, d: np.ndarray) -> str | None:
    expected = cosine_scores(q, d)
    if scores.shape != expected.shape:
        return f"score matrix shape {scores.shape}, expected {expected.shape}"
    worst = float(np.max(np.abs(scores - expected)))
    if not worst <= COSINE_ATOL:
        return f"scores differ from numpy cosines by {worst!r}"
    return None
