"""Contrastive-entropy evaluation, training losses, and ranking metrics.

The entropy kernel is the negative log softmax probability of the relevant
score among itself and a set of negative scores. One per-record kernel,
contrastive_entropy_query, serves evaluation and training alike: every
entropy goes through it, it checks the temperature it is given, and
contrastive_loss_grad derives from the entropy it returns, so the module
holds one softmax, with math only. Only sample_negatives loads numpy,
when it is called.

score_file, which eval-ce runs, scores a JSONL score file on every CPU
the process may use, through core._read_in_parts, as load_matrix reads
matrix files: each contiguous part of the lines but the first is scored in
a forked child, and core decides every fault, so the result and the fault
are the same for any number of CPUs.

Determinism notes, relied on by the reproducibility contract:
  - Sums over scores and over queries use math.fsum (exactly rounded), so
    a value does not depend on the order or grouping of records.
  - Negative sampling runs a partial Fisher-Yates shuffle driven by a
    PCG64 generator (numpy.random.Generator); the seed is the only state.
"""

from __future__ import annotations

import json
from array import array
from itertools import chain
from math import exp, expm1, fsum, inf, isfinite, log, log1p
from typing import Iterable, Iterator, Optional, Sequence

from .core import DataError, NumericError, _append, _read_in_parts, record


@record
class QueryScoreRecord:
    """Similarity scores for one query: positives and sampled negatives."""

    query_id: str
    positives: tuple[float, ...]
    negatives: tuple[float, ...]

    def __post_init__(self):
        if not self.query_id:
            raise DataError("query_id must be nonempty")
        if not self.positives:
            raise DataError(f"query {self.query_id!r}: positives must be nonempty")
        for name, values in (("positives", self.positives),
                             ("negatives", self.negatives)):
            if not all(map(isfinite, values)):
                raise DataError(
                    f"query {self.query_id!r}: non-finite score in {name}"
                )


@record
class EvalConfig:
    """Evaluation protocol knobs: the temperature scores are divided by."""

    temperature: Optional[float] = None

    def __post_init__(self):
        _check_temperature(self.temperature)


@record
class TeacherMargin:
    """Teacher scores for one (query, hard negative) pair."""

    s_teacher_pos: float
    s_teacher_neg: float

    def __post_init__(self):
        if not (isfinite(self.s_teacher_pos) and isfinite(self.s_teacher_neg)):
            raise DataError("teacher scores must be finite")

    @property
    def margin(self) -> float:
        return self.s_teacher_pos - self.s_teacher_neg


def _check_temperature(tau: Optional[float]):
    if tau is not None and not 0 < tau < inf:
        raise DataError(f"temperature must be positive and finite, got {tau}")


def contrastive_entropy_query(rec: QueryScoreRecord,
                              tau: Optional[float] = None) -> float:
    """Entropy of one record: the mean, over its positives, of the entropy
    of that positive against all of the record's negatives.

    tau is checked first. The negatives are divided by tau (when given),
    shifted by their maximum and exponentiated once; each positive then
    costs one exp and one log. A positive at or below the top negative
    scores (top - positive) + log(z), z being the sum of every term; one
    above it scores log1p of the negatives' mass relative to it, so tiny
    entropies keep their relative precision. Sums use math.fsum.

    Raises:
        DataError: tau not in (0, inf), or a record without negatives.
        NumericError: a scaled score or the entropy is not finite.
    """
    _check_temperature(tau)
    negatives = rec.negatives
    if not negatives:
        raise DataError(f"query {rec.query_id!r}: negatives must be nonempty")
    t = 1.0 if tau is None else tau
    # Division by t > 0 is monotone: these are the scaled extremes.
    top = max(negatives) / t
    bottom = min(negatives) / t
    positives = [p / t for p in rec.positives]
    if not (isfinite(top) and isfinite(bottom) and all(map(isfinite, positives))):
        raise NumericError(f"scores scaled by temperature {tau} are not finite")
    terms = [exp(n / t - top) for n in negatives]
    # z + rest is the terms' sum to about twice double precision; only
    # a positive at or below the top negative reads rest.
    z = fsum(terms)
    rest = fsum(chain(terms, (-z,))) if min(positives) <= top else 0.0
    rows = [(top - s) + log(fsum((exp(s - top), z, rest))) if s <= top
            else log1p(exp(top - s) * z) for s in positives]
    return mean_entropy(rows)


def mean_entropy(values: Sequence[float]) -> float:
    """fsum(values) / len(values) over nonempty, nonnegative entropies.

    Raises:
        NumericError: an entropy is infinite, or their sum overflows.
    """
    try:
        mean = fsum(values) / len(values)
    except OverflowError:
        mean = inf
    if not isfinite(mean):
        raise NumericError("contrastive entropy is not finite: the scaled "
                           "scores span more than a double can hold")
    return mean


def contrastive_entropy_single(positive: float, negatives: Sequence[float],
                               tau: Optional[float] = None) -> float:
    """Entropy of one (positive, negatives) score set.

    Scores are divided by tau (when given) before exponentiation. The
    log-sum-exp is stabilized by subtracting the maximum scaled score, so
    the exponentials cannot overflow.

    Args:
        positive: similarity score of the relevant document.
        negatives: similarity scores of the sampled negatives, nonempty.
        tau: optional positive, finite temperature.

    Returns:
        -log(exp(s+) / (exp(s+) + sum_i exp(s-_i))) on the scaled scores.
        Nonnegative; rounds to exactly 0 only when the negatives' entire
        softmax mass underflows double precision.

    Raises:
        DataError: a non-finite score, empty negatives or tau not in (0, inf).
        NumericError: the scaled scores or the entropy are not finite.
    """
    rec = QueryScoreRecord("single", (positive,), tuple(negatives))
    return contrastive_entropy_query(rec, tau)


def contrastive_entropy_dataset(records: Iterable[QueryScoreRecord],
                                cfg: EvalConfig) -> float:
    """Unweighted mean of per-query entropies, accumulated with math.fsum.

    records may be any iterable, a generator included; it is read once.

    Raises:
        DataError: no records, or a record without negatives.
        NumericError: an entropy, or the sum of the entropies, is not finite.
    """
    entropies = [contrastive_entropy_query(rec, cfg.temperature) for rec in records]
    if not entropies:
        raise DataError("no query records")
    return mean_entropy(entropies)


def sample_negatives(corpus_ids: Sequence[str], positive_ids: set,
                     k: int, seed: int) -> list[str]:
    """Draw k distinct negative ids uniformly, excluding known positives.

    The eligible pool is corpus_ids in their given order minus positive_ids.
    Selection is a k-step partial Fisher-Yates shuffle whose swap indices
    come from a PCG64 generator seeded with `seed`; the same seed always
    yields the same ids in the same order.

    Raises:
        DataError: k < 1 or eligible pool smaller than k.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    pool = [cid for cid in corpus_ids if cid not in positive_ids]
    if len(pool) < k:
        raise DataError(
            f"need {k} negatives but only {len(pool)} eligible ids "
            f"(corpus {len(corpus_ids)}, positives excluded {len(corpus_ids) - len(pool)})"
        )
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    # One draw for all k swaps; below 2^32 it is the stream of k scalar draws.
    offsets = rng.integers(0, len(pool) - np.arange(k)).tolist()
    for i, offset in enumerate(offsets):
        j = i + offset
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def contrastive_loss_grad(positive: float, negatives: Sequence[float],
                          tau: Optional[float] = None
                          ) -> tuple[float, list[float]]:
    """Analytic gradient of contrastive_entropy_single w.r.t. the raw scores.

    With L the entropy, t the effective temperature (1 when tau is absent)
    and p = exp(-L) the positive's probability: dL/ds+ = (p - 1)/t =
    expm1(-L)/t, to full relative precision also when p is near 1, and
    dL/ds-_i = exp(s-_i/t - s+/t - L)/t.

    Raises:
        DataError: as contrastive_entropy_single raises it.
        NumericError: the scaled scores, the entropy or the gradient are
            not finite.
    """
    negatives = tuple(negatives)
    loss = contrastive_entropy_single(positive, negatives, tau)
    t = tau or 1.0
    grad_pos = expm1(-loss) / t
    grad_neg = [exp(n / t - positive / t - loss) / t for n in negatives]
    if not (isfinite(grad_pos) and all(map(isfinite, grad_neg))):
        raise NumericError(f"contrastive gradient at temperature {tau} is not finite")
    return grad_pos, grad_neg


def margin_mse(student_pos: float, student_neg: float,
               teacher: TeacherMargin) -> float:
    """Squared error between student and teacher score margins.

    Raises:
        DataError: non-finite student score.
    """
    if not (isfinite(student_pos) and isfinite(student_neg)):
        raise DataError("student scores must be finite")
    diff = (student_pos - student_neg) - teacher.margin
    return diff * diff


def margin_mse_grad(student_pos: float, student_neg: float,
                    teacher: TeacherMargin) -> tuple[float, float]:
    """Analytic gradient of margin_mse w.r.t. (student_pos, student_neg)."""
    if not (isfinite(student_pos) and isfinite(student_neg)):
        raise DataError("student scores must be finite")
    e = (student_pos - student_neg) - teacher.margin
    return 2.0 * e, -2.0 * e


def rr_at_k(ranked_ids: Sequence[str], relevant_ids: set, k: int) -> float:
    """Reciprocal rank of the first relevant id within the top k, else 0.

    Raises:
        DataError: k < 1.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    for rank, rid in enumerate(ranked_ids[:k], start=1):
        if rid in relevant_ids:
            return 1.0 / rank
    return 0.0


def recall_at_k(ranked_ids: Sequence[str], relevant_ids: set, k: int) -> float:
    """Fraction of the relevant ids present in the top k.

    Raises:
        DataError: k < 1 or empty relevant set.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if not relevant_ids:
        raise DataError("relevant_ids must be nonempty")
    hit = len(set(ranked_ids[:k]) & set(relevant_ids))
    return hit / len(relevant_ids)


_NUMBER = {int, float}
_FLOAT = {float}
_decode = json.JSONDecoder().raw_decode


def _parse_line(lineno: int, line: str) -> Optional[QueryScoreRecord]:
    """The record on line number lineno, or None for a blank line.

    Raises:
        DataError: malformed JSON or an invalid record, reported with its
            line number.
    """
    # A line holding one JSON value and at most its \n is decoded once;
    # any other, bytes included, goes to json.loads, whose result or
    # error it gets.
    try:
        obj, end = _decode(line)
        decoded = line[end:] in ("", "\n")
    except (ValueError, RecursionError, TypeError):
        decoded = False
    if not decoded:
        if not line.strip():
            return None
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and integer literals past
            # the interpreter's digit limit; RecursionError, deep nesting.
            raise DataError(f"line {lineno}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError(f"line {lineno}: expected a JSON object")
    missing = {"query_id", "positives", "negatives"} - obj.keys()
    if missing:
        raise DataError(f"line {lineno}: missing keys {sorted(missing)}")
    qid = obj["query_id"]
    if not isinstance(qid, str):
        raise DataError(f"line {lineno}: query_id must be a string")
    scores = {}
    for key in ("positives", "negatives"):
        values = obj[key]
        # type() is exact: bool, an int subclass, is not a number here.
        if (not isinstance(values, list)
                or not (kinds := set(map(type, values))) <= _NUMBER):
            raise DataError(f"line {lineno}: {key} must be a list of numbers")
        # float() of a float returns that float, so a float list is kept.
        try:
            scores[key] = (tuple(values) if kinds == _FLOAT
                           else tuple(map(float, values)))
        except OverflowError:
            raise DataError(f"line {lineno}: {key} holds an integer "
                            "too large for a double") from None
    try:
        return QueryScoreRecord(query_id=qid, **scores)
    except DataError as exc:
        raise DataError(f"line {lineno}: {exc}") from None


def iter_score_records(lines: Iterable[str]) -> Iterator[QueryScoreRecord]:
    """Parse QueryScoreRecord JSONL one line at a time; blank lines skipped.

    Each object needs "query_id" (string), "positives" (nonempty list of
    finite numbers), "negatives" (list of finite numbers, possibly empty
    for ranking-only records). Line numbers count the items of lines from 1.

    Raises:
        DataError: malformed JSON or invalid record, reported with its
            line number, when the generator reaches that line.
    """
    for lineno, line in enumerate(lines, start=1):
        rec = _parse_line(lineno, line)
        if rec is not None:
            yield rec


def _score_lines(lines, tau: Optional[float]) -> list:
    """[query ids, entropies as an array('d')] of the records on the (line
    number, line) pairs of lines; raises at the first bad line, with its
    number."""
    ids, entropies = [], array("d")
    for lineno, line in lines:
        if rec := _parse_line(lineno, line):
            ids.append(rec.query_id)
            entropies.append(contrastive_entropy_query(rec, tau))
    return [ids, entropies]


def score_file(path: str, tau: Optional[float] = None) -> tuple[list, array]:
    """The records of a JSONL score file as two columns, in file order:
    (query ids, a list of str; entropies, an array('d')), scored on every
    CPU this process may use.

    tau is checked first. Each part of core._read_in_parts is scored by
    _score_lines; a child sends its two columns through marshal (ids and
    entropies exactly), and core._append appends them to part 0's as they
    arrive, so no per-query tuple or float object is kept.

    Raises:
        DataError, NumericError: the first fault in file order; or a child
            that ended without sending its rows.
    """
    _check_temperature(tau)
    ids, entropies = _read_in_parts(path, "scoring",
                                    lambda lines: _score_lines(lines, tau),
                                    _append)[0]
    return ids, entropies
