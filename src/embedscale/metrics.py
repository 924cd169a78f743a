"""Contrastive-entropy evaluation, training losses, and ranking metrics.

The entropy kernel is the negative log softmax probability of the relevant
score among itself and a set of negative scores. One batched kernel,
contrastive_entropy_records, serves evaluation and training alike: it lays
the score rows of many records out in one float64 array, a fixed number of
scores at a time, and takes their max-shifted exponentials with numpy.

Determinism notes, relied on by the reproducibility contract:
  - Sums over scores and over queries use math.fsum (exactly rounded), so
    a value does not depend on how records are grouped into kernel chunks.
  - Negative sampling runs a partial Fisher-Yates shuffle driven by a
    PCG64 generator (numpy.random.Generator); the seed is the only state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, islice
from math import exp, fsum, isfinite
from typing import Optional, Sequence

import numpy as np

from .core import DataError, NumericError

DEFAULT_N_NEGATIVES = 256
# Scores per kernel pass. Bounds the kernel's working set, which would
# otherwise grow with the whole score file.
KERNEL_CHUNK = 1 << 16


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation protocol knobs: temperature, negative count, sampling seed."""

    temperature: Optional[float] = None
    n_negatives: int = DEFAULT_N_NEGATIVES
    rng_seed: int = 0

    def __post_init__(self):
        if self.temperature is not None and not self.temperature > 0:
            raise DataError(f"temperature must be positive, got {self.temperature}")
        if self.n_negatives < 1:
            raise DataError(f"n_negatives must be >= 1, got {self.n_negatives}")
        if self.rng_seed < 0:
            raise DataError(f"rng_seed must be nonnegative, got {self.rng_seed}")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class BatchQueryScores:
    """Student scores for one query inside a training batch.

    hard_negatives are the query's own mined negatives; teacher holds one
    margin per hard negative when distillation targets exist;
    in_batch_negatives are scores against the other in-batch passages
    appropriate to the recipe in use.
    """

    positive: float
    hard_negatives: tuple[float, ...] = ()
    teacher: Optional[tuple[TeacherMargin, ...]] = None
    in_batch_negatives: tuple[float, ...] = ()

    def __post_init__(self):
        for v in (self.positive, *self.hard_negatives, *self.in_batch_negatives):
            if not isfinite(v):
                raise DataError("batch scores must be finite")
        if self.teacher is not None and len(self.teacher) != len(self.hard_negatives):
            raise DataError(
                f"teacher margins ({len(self.teacher)}) must align with "
                f"hard negatives ({len(self.hard_negatives)})"
            )


def _check_scores(positive: float, negatives: Sequence[float],
                  tau: Optional[float]):
    if not negatives:
        raise DataError("negatives must be nonempty")
    if not isfinite(positive):
        raise DataError(f"non-finite positive score {positive}")
    for v in negatives:
        if not isfinite(v):
            raise DataError(f"non-finite negative score {v}")
    if tau is not None and not tau > 0:
        raise DataError(f"temperature must be positive, got {tau}")


def contrastive_entropy_records(records: Sequence[QueryScoreRecord],
                                tau: Optional[float] = None) -> list[float]:
    """Per-query entropy of each record, in record order.

    A query's entropy is the mean, over its positives, of the entropy of
    that positive against all of the query's negatives. Scores are divided
    by tau (when given) once. Each score row is shifted by its maximum
    before exponentiation, so large scores cannot overflow. Row sums and
    the means over positives use math.fsum. Records are scored in chunks of
    at most KERNEL_CHUNK scores (a larger record is a chunk of its own), and
    a value does not depend on the chunking.

    Raises:
        DataError: a record without negatives, or tau <= 0.
        NumericError: a scaled score or an entropy is not finite.
    """
    if tau is not None and not tau > 0:
        raise DataError(f"temperature must be positive, got {tau}")
    out: list[float] = []
    chunk: list[QueryScoreRecord] = []
    size = 0
    for rec in records:
        if not rec.negatives:
            raise DataError(f"query {rec.query_id!r}: negatives must be nonempty")
        cost = len(rec.positives) * (len(rec.negatives) + 1)
        if chunk and size + cost > KERNEL_CHUNK:
            out += _entropy_chunk(chunk, tau)
            chunk, size = [], 0
        chunk.append(rec)
        size += cost
    if chunk:
        out += _entropy_chunk(chunk, tau)
    return out


def _entropy_chunk(records: list[QueryScoreRecord],
                   tau: Optional[float]) -> list[float]:
    n_pos = np.array([len(r.positives) for r in records], dtype=np.int64)
    n_neg = np.array([len(r.negatives) for r in records], dtype=np.int64)
    rows = int(n_pos.sum())
    # scores[:rows] holds every positive, scores[rows:] every negative.
    scores = np.fromiter(
        chain(chain.from_iterable(r.positives for r in records),
              chain.from_iterable(r.negatives for r in records)),
        np.float64, count=rows + int(n_neg.sum()))
    with np.errstate(over="ignore", under="ignore"):
        if tau is not None:
            scores /= tau
        if not np.isfinite(scores).all():
            raise NumericError(f"scores scaled by temperature {tau} are not finite")
        # Row r is [positive r, negatives of its record]; gather every row
        # into one flat array of `width`-long rows starting at `starts`.
        record_of_row = np.repeat(np.arange(len(records)), n_pos)
        width = n_neg[record_of_row] + 1
        starts = np.cumsum(width) - width
        neg_start = np.cumsum(n_neg) - n_neg + rows
        index = np.repeat(neg_start[record_of_row] - 1 - starts, width)
        index += np.arange(index.size)
        index[starts] = np.arange(rows)
        flat = scores[index]
        peak = np.maximum.reduceat(flat, starts)
        flat -= np.repeat(peak, width)
        np.exp(flat, out=flat)
        terms = iter(flat.tolist())
        z = np.array([fsum(islice(terms, w)) for w in width.tolist()])
        # (peak - positive) first: exact whenever the positive is the max
        # score, so tiny entropies are not absorbed into ulp(peak).
        row_entropy = (peak - scores[:rows]) + np.log(z)
        if not np.isfinite(row_entropy).all():
            raise NumericError("contrastive entropy is not finite: the scaled "
                               "scores span more than a double can hold")
    entropies = iter(row_entropy.tolist())
    return [fsum(islice(entropies, p)) / p for p in n_pos.tolist()]


def contrastive_entropy_single(positive: float, negatives: Sequence[float],
                               tau: Optional[float] = None) -> float:
    """Entropy of one (positive, negatives) score set.

    Scores are divided by tau (when given) before exponentiation. The
    log-sum-exp is stabilized by subtracting the maximum scaled score, so
    the exponentials cannot overflow.

    Args:
        positive: similarity score of the relevant document.
        negatives: similarity scores of the sampled negatives, nonempty.
        tau: optional positive temperature.

    Returns:
        -log(exp(s+) / (exp(s+) + sum_i exp(s-_i))) on the scaled scores.
        Nonnegative; rounds to exactly 0 only when the negatives' entire
        softmax mass underflows double precision.

    Raises:
        DataError: empty negatives, non-finite score, or tau <= 0.
        NumericError: the scaled scores or the entropy are not finite.
    """
    _check_scores(positive, negatives, tau)
    record = QueryScoreRecord("single", (positive,), tuple(negatives))
    return contrastive_entropy_records([record], tau)[0]


def contrastive_entropy_query(rec: QueryScoreRecord, cfg: EvalConfig) -> float:
    """Mean entropy over a query's positives, each scored against the same negatives."""
    return contrastive_entropy_records([rec], cfg.temperature)[0]


def contrastive_entropy_dataset(records: Sequence[QueryScoreRecord],
                                cfg: EvalConfig) -> float:
    """Unweighted mean of per-query entropies, accumulated with math.fsum.

    Raises:
        DataError: empty record list.
    """
    if not records:
        raise DataError("no query records")
    return fsum(contrastive_entropy_records(records, cfg.temperature)) / len(records)


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
    rng = np.random.Generator(np.random.PCG64(seed))
    n = len(pool)
    for i in range(k):
        j = i + int(rng.integers(0, n - i))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def contrastive_loss_grad(positive: float, negatives: Sequence[float],
                          tau: Optional[float] = None
                          ) -> tuple[float, list[float]]:
    """Analytic gradient of contrastive_entropy_single w.r.t. the raw scores.

    With p = softmax of the scaled scores and t the effective temperature
    (1 when tau is absent): dL/ds+ = (p+ - 1)/t and dL/ds-_i = p_i/t.
    """
    _check_scores(positive, negatives, tau)
    t = 1.0 if tau is None else tau
    scaled_pos = positive / t
    scaled_neg = [v / t for v in negatives]
    m = max(scaled_pos, max(scaled_neg))
    terms = [exp(scaled_pos - m)] + [exp(v - m) for v in scaled_neg]
    z = fsum(terms)
    p_pos = terms[0] / z
    return (p_pos - 1.0) / t, [w / z / t for w in terms[1:]]


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


def combined_loss(batch: Sequence[BatchQueryScores], recipe: str,
                  tau: Optional[float] = None) -> float:
    """Batch training loss under one of the two published recipes.

    recipe="bert": mean MarginMSE over every (query, hard negative) pair in
    the batch, plus the mean contrastive loss whose negatives are the
    in_batch_negatives field alone (other queries' positives).

    recipe="ettin": mean contrastive loss only, with each query's negatives
    being its hard_negatives plus in_batch_negatives (every in-batch passage
    except its own positive); tau is required.

    Raises:
        DataError: empty batch, unknown recipe, bert without aligned teacher
            margins or without any (query, hard negative) pair, ettin
            without tau, or a query with no negatives at all.
    """
    if not batch:
        raise DataError("empty batch")
    if recipe == "ettin":
        if tau is None:
            raise DataError("ettin recipe requires a temperature")
        per_query = [
            contrastive_entropy_single(
                q.positive, list(q.hard_negatives) + list(q.in_batch_negatives),
                tau)
            for q in batch
        ]
        return fsum(per_query) / len(per_query)
    if recipe == "bert":
        pair_losses = []
        for q in batch:
            if q.hard_negatives and q.teacher is None:
                raise DataError("bert recipe requires teacher margins")
            for hn, tm in zip(q.hard_negatives, q.teacher or ()):
                pair_losses.append(margin_mse(q.positive, hn, tm))
        if not pair_losses:
            raise DataError("bert recipe requires at least one (query, hard negative) pair")
        mm = fsum(pair_losses) / len(pair_losses)
        ct = [contrastive_entropy_single(q.positive, q.in_batch_negatives, tau)
              for q in batch]
        return mm + fsum(ct) / len(ct)
    raise DataError(f"unknown recipe {recipe!r}")


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


def parse_score_records(text: str) -> list[QueryScoreRecord]:
    """Parse QueryScoreRecord JSONL: one object per line, blank lines skipped.

    Each object needs "query_id" (string), "positives" (nonempty list of
    finite numbers), "negatives" (list of finite numbers, possibly empty
    for ranking-only records).

    Raises:
        DataError: malformed JSON or invalid record, reported with its
            line number.
    """
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
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
            if not isinstance(values, list) or not set(map(type, values)) <= _NUMBER:
                raise DataError(f"line {lineno}: {key} must be a list of numbers")
            try:
                scores[key] = tuple(map(float, values))
            except OverflowError:
                raise DataError(f"line {lineno}: {key} holds an integer "
                                "too large for a double") from None
        try:
            records.append(QueryScoreRecord(query_id=qid, **scores))
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
    return records
