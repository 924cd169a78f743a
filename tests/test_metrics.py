import io
import json
import math
from decimal import Decimal, localcontext
from itertools import chain, repeat
from operator import sub, truediv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from embedscale import (DataError, EvalConfig, NumericError, QueryScoreRecord,
                        TeacherMargin, contrastive_entropy_dataset,
                        contrastive_entropy_query, contrastive_entropy_single,
                        contrastive_loss_grad, iter_score_records, margin_mse,
                        margin_mse_grad, recall_at_k, rr_at_k, sample_negatives)


def read_records(text):
    """Every record of JSONL text, its lines split as in a file eval-ce reads."""
    return list(iter_score_records(io.StringIO(text, newline=None)))

# ---------------------------------------------------------------------------
# oracle: the same entropy evaluated in 50-digit decimal arithmetic


def oracle_entropy(positive, negatives, tau=None):
    with localcontext() as ctx:
        ctx.prec = 50
        pos = Decimal(positive)
        negs = [Decimal(v) for v in negatives]
        if tau is not None:
            t = Decimal(tau)
            pos = pos / t
            negs = [v / t for v in negs]
        z = pos.exp() + sum(v.exp() for v in negs)
        return float(-(pos.exp() / z).ln())


def oracle_gradient(positive, negatives, tau=None):
    """contrastive_loss_grad in 50-digit decimal arithmetic.

    dL/ds+ is -(mass of the negatives)/z/t, taken without the cancellation
    of p+ - 1.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        t = Decimal(1) if tau is None else Decimal(tau)
        pos = Decimal(positive) / t
        terms = [(Decimal(v) / t).exp() for v in negatives]
        z = pos.exp() + sum(terms)
        return float(-sum(terms) / z / t), [float(w / z / t) for w in terms]


def reference_entropy(positive, negatives, tau=None):
    """The scalar kernel the batched one replaced: one math.exp per score."""
    if tau is not None:
        positive = positive / tau
        negatives = [v / tau for v in negatives]
    m = max(positive, max(negatives))
    z = math.fsum([math.exp(positive - m)] + [math.exp(v - m) for v in negatives])
    return (m - positive) + math.log(z)


def reference_query_entropy(rec, tau=None):
    values = [reference_entropy(p, rec.negatives, tau) for p in rec.positives]
    return math.fsum(values) / len(values)


def reference_map_chain_entropies(records, tau=None):
    """The kernel before its terms became one comprehension: a map chain."""
    t = tau or 1.0
    out = []
    for rec in records:
        top = max(rec.negatives) / t
        positives = [p / t for p in rec.positives]
        terms = list(map(math.exp, map(sub, map(truediv, rec.negatives, repeat(t)),
                                       repeat(top))))
        z = math.fsum(terms)
        rest = math.fsum(chain(terms, (-z,))) if min(positives) <= top else 0.0
        rows = [(top - s) + math.log(math.fsum((math.exp(s - top), z, rest)))
                if s <= top else math.log1p(math.exp(top - s) * z)
                for s in positives]
        out.append(math.fsum(rows) / len(rows))
    return out


def reference_sample_negatives(corpus_ids, positive_ids, k, seed):
    """The sampler before its draws were batched: one scalar draw per swap."""
    pool = [cid for cid in corpus_ids if cid not in positive_ids]
    rng = np.random.Generator(np.random.PCG64(seed))
    n = len(pool)
    for i in range(k):
        j = i + int(rng.integers(0, n - i))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


finite_scores = st.floats(min_value=-30, max_value=30)


class TestEntropySingle:
    def test_uniform_scores_give_ln_257(self):
        value = contrastive_entropy_single(0.7, [0.7] * 256)
        assert value == pytest.approx(math.log(257), abs=1e-12)

    def test_dominant_positive_effectively_zero(self):
        # True value is log1p(256*e^-40) < 256*e^-40; allow one rounding
        # step of log() near 1 on top of the real-arithmetic bound.
        value = contrastive_entropy_single(40.0, [0.0] * 256)
        assert 0 < value <= 256 * math.exp(-40) + 1e-16
        assert value < 1.2e-15

    def test_temperature_example_matches_oracle(self):
        # -log(e^50 / (e^50 + e^0 + e^25)) once scores are divided by 0.02.
        # The true value is ~1.4e-11; the stabilized double-precision kernel
        # carries ~ulp(50) of cancellation error, hence the absolute bound.
        value = contrastive_entropy_single(1.0, [0.0, 0.5], tau=0.02)
        assert value == pytest.approx(oracle_entropy(1.0, [0.0, 0.5], 0.02),
                                      abs=5e-14)

    def test_tiny_terms_are_not_absorbed(self):
        # z is 2 plus a thousand terms of ~1e-16, each below half an ulp of
        # the 1 or 2 a running (or pairwise) sum adds it to, which drops it.
        # An exactly rounded z keeps the entropy within about an ulp.
        negatives = [0.0] + [-36.8] * 1000
        value = contrastive_entropy_single(0.0, negatives)
        expected = oracle_entropy(0.0, negatives)
        assert abs(value - expected) <= 2 * math.ulp(expected)

    @given(gap=st.floats(min_value=10, max_value=60),
           negs=st.lists(st.floats(min_value=-5, max_value=0), min_size=1,
                         max_size=32))
    @example(gap=20.0, negs=[0.0])
    def test_tiny_entropy_keeps_relative_precision(self, gap, negs):
        # The entropy is about e^-gap. log(z) with z = 1 + e^-gap loses all
        # but ulp(1) / e^-gap of it; log1p of the negatives' mass does not.
        value = contrastive_entropy_single(max(negs) + gap, negs)
        assert value == pytest.approx(oracle_entropy(max(negs) + gap, negs),
                                      rel=1e-12, abs=0)

    def test_tiny_entropy_of_a_generated_record(self):
        rng = np.random.default_rng(8000)
        negs = rng.normal(0.0, 1.0, 32).tolist()
        rec = QueryScoreRecord("q8000", (max(negs) + 22.0, max(negs) + 21.0),
                               tuple(negs))
        value = contrastive_entropy_query(rec)
        expected = math.fsum(oracle_entropy(p, negs) for p in rec.positives) / 2
        assert value < 1e-8
        assert value == pytest.approx(expected, rel=1e-12, abs=0)

    def test_huge_scores_do_not_overflow(self):
        value = contrastive_entropy_single(5000.0, [4999.0, 4998.0])
        assert math.isfinite(value)
        assert value == pytest.approx(oracle_entropy(5000.0, [4999.0, 4998.0]),
                                      rel=1e-11)

    def test_empty_negatives_rejected(self):
        with pytest.raises(DataError, match="nonempty"):
            contrastive_entropy_single(1.0, [])

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            contrastive_entropy_single(float("inf"), [0.0])
        with pytest.raises(DataError, match="non-finite"):
            contrastive_entropy_single(1.0, [float("nan")])

    def test_bad_tau_rejected(self):
        with pytest.raises(DataError, match="temperature"):
            contrastive_entropy_single(1.0, [0.0], tau=0.0)

    @pytest.mark.parametrize("tau", [math.inf, math.nan, 0.0, -0.5])
    def test_non_finite_tau_rejected(self, tau):
        # The kernel checks tau itself: 0 must not read as "no temperature".
        message = f"temperature must be positive and finite, got {tau}"
        with pytest.raises(DataError, match=message):
            contrastive_entropy_single(0.5, [0.1], tau=tau)
        with pytest.raises(DataError, match=message):
            contrastive_entropy_query(QueryScoreRecord("a", (0.9,), (0.1, 0.3)), tau)

    @given(pos=finite_scores,
           negs=st.lists(finite_scores, min_size=1, max_size=40))
    def test_matches_decimal_oracle(self, pos, negs):
        value = contrastive_entropy_single(pos, negs)
        assert value == pytest.approx(oracle_entropy(pos, negs),
                                      rel=1e-12, abs=5e-14)

    @given(pos=finite_scores,
           negs=st.lists(finite_scores, min_size=1, max_size=40),
           shift=st.floats(min_value=-50, max_value=50))
    def test_shift_invariance(self, pos, negs, shift):
        base = contrastive_entropy_single(pos, negs)
        moved = contrastive_entropy_single(pos + shift,
                                           [v + shift for v in negs])
        assert abs(moved - base) <= 1e-12 * max(1.0, base)

    @given(pos=finite_scores,
           negs=st.lists(finite_scores, min_size=1, max_size=40),
           tau=st.floats(min_value=0.01, max_value=10))
    def test_temperature_equivalence_exact(self, pos, negs, tau):
        with_tau = contrastive_entropy_single(pos, negs, tau=tau)
        prescaled = contrastive_entropy_single(pos / tau,
                                               [v / tau for v in negs])
        assert with_tau == prescaled

    def test_bounds_when_positive_is_max(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            negs = rng.uniform(-4, 4, size=rng.integers(1, 30)).tolist()
            pos = max(negs) + rng.uniform(0, 2)
            value = contrastive_entropy_single(pos, negs)
            assert 0 < value <= math.log(1 + len(negs)) + 1e-12

    def test_monotone_in_positive_and_negatives(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            negs = rng.uniform(-4, 4, size=rng.integers(1, 30)).tolist()
            pos = float(rng.uniform(-4, 4))
            base = contrastive_entropy_single(pos, negs)
            assert contrastive_entropy_single(pos + 0.5, negs) < base
            assert contrastive_entropy_single(pos, negs + [0.0]) > base


class TestEntropyAggregation:
    def test_one_positive_reduces_to_single(self):
        rec = QueryScoreRecord("q", (1.2,), (0.3, -0.1))
        assert (contrastive_entropy_query(rec)
                == contrastive_entropy_single(1.2, [0.3, -0.1]))

    def test_identical_positives_change_nothing(self):
        one = contrastive_entropy_query(QueryScoreRecord("q", (1.0,), (0.0,)))
        two = contrastive_entropy_query(QueryScoreRecord("q", (1.0, 1.0), (0.0,)))
        assert one == two

    def test_two_positive_hand_case(self):
        # mean of -log sigmoid(1) and -log sigmoid(0)
        rec = QueryScoreRecord("q", (1.0, 0.0), (0.0,))
        value = contrastive_entropy_query(rec)
        expected = (math.log(1 + math.exp(-1)) + math.log(2)) / 2
        assert value == pytest.approx(expected, rel=1e-14)
        assert value == pytest.approx((0.313262 + 0.693147) / 2, abs=1e-6)

    def test_dataset_single_record_identity(self):
        rec = QueryScoreRecord("q", (1.0,), (0.0, 0.5))
        assert contrastive_entropy_dataset([rec], EvalConfig(temperature=0.02)) == \
            contrastive_entropy_query(rec, 0.02)

    def test_dataset_two_records_average(self):
        r1 = QueryScoreRecord("a", (1.0,), (0.0,))
        r2 = QueryScoreRecord("b", (0.5,), (0.25, 0.75))
        a = contrastive_entropy_query(r1)
        b = contrastive_entropy_query(r2)
        assert contrastive_entropy_dataset([r1, r2], EvalConfig()) == \
            pytest.approx((a + b) / 2, rel=1e-15)

    def test_dataset_fixture_brute_force(self, data_dir):
        records = read_records((data_dir / "scores_small.jsonl").read_text())
        assert [r.query_id for r in records] == ["q1", "q2", "q3"]
        cfg = EvalConfig()
        per_query = []
        for rec in records:
            per_query.append(sum(oracle_entropy(p, rec.negatives)
                                 for p in rec.positives) / len(rec.positives))
        expected = sum(per_query) / len(per_query)
        assert contrastive_entropy_dataset(records, cfg) == \
            pytest.approx(expected, rel=1e-12)

    def test_empty_dataset_rejected(self):
        for records in ([], iter([])):
            with pytest.raises(DataError, match="no query records"):
                contrastive_entropy_dataset(records, EvalConfig())


score_rows = st.lists(
    st.tuples(st.lists(finite_scores, min_size=1, max_size=4),
              st.lists(finite_scores, min_size=1, max_size=40)),
    min_size=1, max_size=8)


@st.composite
def straddling_records(draw, scores, gaps):
    """Records with one positive above the top negative and one at or below."""
    records = []
    for i in range(draw(st.integers(1, 6))):
        negatives = draw(st.lists(scores, min_size=1, max_size=40))
        top = max(negatives)
        above = top + draw(gaps)
        below = top - draw(gaps | st.just(0))
        extra = draw(st.lists(scores, max_size=3))
        records.append(QueryScoreRecord(f"q{i}", tuple([above, below] + extra),
                                        tuple(negatives)))
    return records


class TestEntropyRecords:
    @given(rows=score_rows,
           tau=st.none() | st.floats(min_value=0.01, max_value=10))
    def test_matches_scalar_reference(self, rows, tau):
        records = [QueryScoreRecord(f"q{i}", tuple(p), tuple(n))
                   for i, (p, n) in enumerate(rows)]
        for rec in records:
            assert contrastive_entropy_query(rec, tau) == pytest.approx(
                reference_query_entropy(rec, tau), rel=1e-12, abs=5e-14)

    @given(records=straddling_records(st.integers(-30, 30), st.integers(1, 30))
           | straddling_records(finite_scores, st.floats(1e-3, 30)),
           tau=st.none() | st.floats(min_value=0.01, max_value=10))
    @settings(max_examples=400)
    def test_bit_identical_to_the_map_chain_kernel(self, records, tau):
        assert ([contrastive_entropy_query(rec, tau) for rec in records]
                == reference_map_chain_entropies(records, tau))

    def test_one_call_equals_record_by_record(self):
        # Records of a few thousand scores, one past 2^16, and many small.
        rng = np.random.default_rng(3)
        shapes = [(2, 5000)] * 10 + [(1, 2 ** 16 + 10)] + [(3, 700)] * 60
        records = [QueryScoreRecord(f"q{i}",
                                    tuple(rng.normal(0.5, 0.1, p).tolist()),
                                    tuple(rng.normal(0.3, 0.1, n).tolist()))
                   for i, (p, n) in enumerate(shapes)]
        one_call = contrastive_entropy_dataset(iter(records),
                                               EvalConfig(temperature=0.05))
        one_by_one = [contrastive_entropy_query(r, 0.05) for r in records]
        assert one_call == math.fsum(one_by_one) / len(one_by_one)

    @pytest.mark.parametrize("tau, expected", [
        (None, [0.6802696706417346, 0.5032044340390841, 1.6203493302856142]),
        (0.02, [1.3887943865060459e-11, 0.34657359027997264, 25.000000000183103]),
    ])
    def test_fixture_entropies_pinned(self, data_dir, tau, expected):
        # q1's positive lies above its top negative; q2 and q3 have one at
        # or below it, the branch that reads the terms' remainder.
        records = read_records((data_dir / "scores_small.jsonl").read_text())
        assert [contrastive_entropy_query(rec, tau) for rec in records] == expected

    @pytest.mark.parametrize("tau, expected", [
        (None, 0.8172487426836311), (0.1, 0.029381877735699637)])
    def test_all_positives_above_top_pinned(self, tau, expected):
        rec = QueryScoreRecord("q", (1.0, 2.5, 0.75), (0.5, -0.25, 0.125, 0.0))
        assert contrastive_entropy_query(rec, tau) == expected

    def test_positives_on_both_sides_of_top_pinned(self):
        # The terms' fsum leaves a remainder; dropping it would move the
        # entropy of -0.123, the positive below the top negative, and so
        # the mean.
        rec = QueryScoreRecord("q", (0.109, -0.123),
                               (-0.567, -0.156, -0.942, -0.557, -0.124, -0.008))
        assert contrastive_entropy_query(rec) == 1.667019647618632

    def test_record_without_negatives_rejected(self):
        rec = QueryScoreRecord("q", (1.0,), ())
        with pytest.raises(DataError, match="nonempty"):
            contrastive_entropy_query(rec)

    def test_bad_tau_rejected(self):
        rec = QueryScoreRecord("q", (1.0,), (0.0,))
        with pytest.raises(DataError, match="temperature"):
            contrastive_entropy_query(rec, 0.0)

    @pytest.mark.parametrize("scores, tau", [
        (((0.5,), (0.1,)), 1e-310),       # scaled scores overflow
        (((1e308,), (-1e308,)), 0.5),
        (((-1e308,), (1e308,)), None),    # entropy 2e308 overflows
    ])
    def test_non_finite_result_is_numeric_error(self, scores, tau):
        rec = QueryScoreRecord("q", *scores)
        with pytest.raises(NumericError, match="not finite"):
            contrastive_entropy_query(rec, tau)


class TestSampleNegatives:
    def test_forced_set(self):
        out = sample_negatives(["a", "b", "c"], {"a"}, 2, seed=0)
        assert sorted(out) == ["b", "c"]

    def test_same_seed_same_output(self):
        corpus = [f"p{i}" for i in range(100)]
        first = sample_negatives(corpus, {"p3"}, 10, seed=123)
        second = sample_negatives(corpus, {"p3"}, 10, seed=123)
        assert first == second
        assert len(set(first)) == 10
        assert "p3" not in first

    def test_different_seed_usually_differs(self):
        corpus = [f"p{i}" for i in range(100)]
        a = sample_negatives(corpus, set(), 10, seed=1)
        b = sample_negatives(corpus, set(), 10, seed=2)
        assert a != b

    def test_insufficient_pool(self):
        with pytest.raises(DataError, match="eligible"):
            sample_negatives(["a", "b"], {"a"}, 2, seed=0)

    @pytest.mark.parametrize("n", [1, 2, 9, 300, 2499])
    @pytest.mark.parametrize("k_of", ["one", "half", "all"])
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_matches_scalar_draws(self, n, k_of, seed):
        corpus = [f"d{i}" for i in range(n + 2)]
        positives = {"d0", f"d{n + 1}"}
        k = {"one": 1, "half": max(1, n // 2), "all": n}[k_of]
        assert (sample_negatives(corpus, positives, k, seed)
                == reference_sample_negatives(corpus, positives, k, seed))

    def test_uniformity_monte_carlo(self):
        # corpus of 10 with one positive: each of the 9 eligible ids should
        # be drawn with frequency 1/9 within +-0.01 over 1e5 seeds.
        corpus = [f"p{i}" for i in range(10)]
        counts = {}
        n_seeds = 100_000
        for seed in range(n_seeds):
            picked = sample_negatives(corpus, {"p0"}, 1, seed=seed)[0]
            counts[picked] = counts.get(picked, 0) + 1
        assert "p0" not in counts
        assert len(counts) == 9
        for picked, count in counts.items():
            assert abs(count / n_seeds - 1 / 9) < 0.01, picked


def assert_gradient_near_oracle(pos, negs, tau):
    g_pos, g_negs = contrastive_loss_grad(pos, negs, tau)
    want_pos, want_negs = oracle_gradient(pos, negs, tau)
    assert g_pos == pytest.approx(want_pos, rel=1e-12, abs=0)
    assert g_negs == pytest.approx(want_negs, rel=1e-12, abs=0)


class TestLosses:
    def test_margin_mse_zero_residual(self):
        teacher = TeacherMargin(5.0, 3.0)
        assert margin_mse(3.0, 1.0, teacher) == 0.0

    def test_margin_mse_hand_case(self):
        assert margin_mse(2.0, 1.0, TeacherMargin(5.0, 3.0)) == 1.0

    def test_margin_mse_shift_invariance(self):
        teacher = TeacherMargin(2.0, 0.5)
        base = margin_mse(1.0, 0.2, teacher)
        for c in (-3.0, 0.25, 10.0):
            assert margin_mse(1.0 + c, 0.2 + c, teacher) == \
                pytest.approx(base, rel=1e-12)

    def test_margin_mse_non_finite_rejected(self):
        with pytest.raises(DataError):
            margin_mse(float("nan"), 0.0, TeacherMargin(1.0, 0.0))
        with pytest.raises(DataError, match="student scores must be finite"):
            margin_mse_grad(0.0, float("inf"), TeacherMargin(1.0, 0.0))
        with pytest.raises(DataError):
            TeacherMargin(float("inf"), 0.0)

    def test_contrastive_grad_closed_form(self):
        g_pos, g_negs = contrastive_loss_grad(1.0, [0.0, 0.5], tau=None)
        z = math.exp(1.0) + math.exp(0.0) + math.exp(0.5)
        assert g_pos == pytest.approx(math.exp(1.0) / z - 1, rel=1e-12)
        assert g_negs[0] == pytest.approx(math.exp(0.0) / z, rel=1e-12)
        assert g_negs[1] == pytest.approx(math.exp(0.5) / z, rel=1e-12)

    @pytest.mark.parametrize("pos, negs", [(0.5, [0.1]), (0.0, [0.0])])
    def test_contrastive_grad_non_finite_is_numeric_error(self, pos, negs):
        # 0.5 / 1e-310 overflows the scaled scores; with scores 0 the scaled
        # scores are finite but (p - 1) / 1e-310 overflows the gradient.
        with pytest.raises(NumericError, match="not finite"):
            contrastive_loss_grad(pos, negs, tau=1e-310)

    @pytest.mark.parametrize("tau", [math.inf, math.nan, 0.0])
    def test_contrastive_grad_bad_tau_rejected(self, tau):
        with pytest.raises(DataError, match="temperature"):
            contrastive_loss_grad(0.5, [0.1], tau=tau)

    @pytest.mark.parametrize("loss", [contrastive_entropy_single,
                                      contrastive_loss_grad])
    @pytest.mark.parametrize("positive, negatives, tau, named", [
        (math.inf, [0.1], None, "query 'single': non-finite score in positives"),
        (math.nan, [0.1], None, "query 'single': non-finite score in positives"),
        (0.5, [0.1, -math.inf], None, "query 'single': non-finite score in negatives"),
        (0.5, [], None, "query 'single': negatives must be nonempty"),
        (0.5, [0.1], -1.0, "temperature"),
    ])
    def test_single_fault_names_its_score_set(self, loss, positive, negatives,
                                              tau, named):
        with pytest.raises(DataError, match=named):
            loss(positive, negatives, tau)

    @pytest.mark.parametrize("pos, negs, tau", [
        (50.0, [0.0], None),            # p+ - 1 = -2e-22 rounds to 0 in a softmax
        (40.0, [0.0, 1.0], None),
        (1.0, [0.0, 0.5], None),
        (0.0, [1000.0, 1000.0], None),
        (0.9, [0.1, 0.3], 0.02),        # cosine scores at a contrastive temperature
    ])
    def test_contrastive_grad_matches_decimal_oracle(self, pos, negs, tau):
        assert_gradient_near_oracle(pos, negs, tau)

    @given(scaled=st.lists(st.floats(min_value=-100, max_value=100),
                           min_size=2, max_size=20),
           tau=st.none() | st.floats(min_value=0.01, max_value=2.0))
    def test_contrastive_grad_matches_decimal_oracle_property(self, scaled, tau):
        # Raw scores s * tau, so the scaled scores stay within about 100.
        pos, *negs = (v * tau for v in scaled) if tau else scaled
        assert_gradient_near_oracle(pos, negs, tau)

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(50):
            n = int(rng.integers(1, 12))
            negs = rng.normal(size=n).tolist()
            pos = float(rng.normal())
            tau = float(rng.uniform(0.5, 2.0)) if rng.random() < 0.5 else None
            g_pos, g_negs = contrastive_loss_grad(pos, negs, tau)
            fd_pos = (contrastive_entropy_single(pos + h, negs, tau)
                      - contrastive_entropy_single(pos - h, negs, tau)
                      ) / (2 * h)
            assert abs(g_pos - fd_pos) / max(abs(fd_pos), 1e-8) < 1e-4
            i = int(rng.integers(0, n))
            up = list(negs)
            down = list(negs)
            up[i] += h
            down[i] -= h
            fd_neg = (contrastive_entropy_single(pos, up, tau)
                      - contrastive_entropy_single(pos, down, tau)) / (2 * h)
            assert abs(g_negs[i] - fd_neg) / max(abs(fd_neg), 1e-8) < 1e-4

    def test_margin_mse_grad_matches_central_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-5
        for _ in range(50):
            sp, sn, tp, tn = rng.normal(size=4).tolist()
            teacher = TeacherMargin(tp, tn)
            g_sp, g_sn = margin_mse_grad(sp, sn, teacher)
            fd_sp = (margin_mse(sp + h, sn, teacher)
                     - margin_mse(sp - h, sn, teacher)) / (2 * h)
            fd_sn = (margin_mse(sp, sn + h, teacher)
                     - margin_mse(sp, sn - h, teacher)) / (2 * h)
            assert abs(g_sp - fd_sp) <= 1e-4 * max(abs(fd_sp), 1e-4)
            assert abs(g_sn - fd_sn) <= 1e-4 * max(abs(fd_sn), 1e-4)


class TestRankingMetrics:
    def test_rr_first_rank(self):
        assert rr_at_k(["d1", "d2"], {"d1"}, 10) == 1.0

    def test_rr_beyond_cutoff(self):
        ranked = [f"d{i}" for i in range(1, 12)]
        assert rr_at_k(ranked, {"d11"}, 10) == 0.0

    def test_rr_rank_four(self):
        ranked = ["a", "b", "c", "hit", "e"]
        assert rr_at_k(ranked, {"hit"}, 10) == 0.25

    def test_rr_k_validation(self):
        with pytest.raises(DataError):
            rr_at_k(["a"], {"a"}, 0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(DataError, match=f"k must be >= 1, got {k}"):
            recall_at_k(["a"], {"a"}, k)
        with pytest.raises(DataError, match=f"k must be >= 1, got {k}"):
            sample_negatives(["a", "b"], set(), k, seed=0)

    def test_recall_all_found(self):
        assert recall_at_k(["a", "b", "c"], {"a", "b"}, 3) == 1.0

    def test_recall_none_found(self):
        assert recall_at_k(["x", "y"], {"a"}, 2) == 0.0

    def test_recall_quarter(self):
        assert recall_at_k(["a", "x", "y"], {"a", "b", "c", "d"}, 3) == 0.25

    def test_recall_empty_relevant(self):
        with pytest.raises(DataError, match="nonempty"):
            recall_at_k(["a"], set(), 5)

    @given(st.permutations(list("fghij")))
    def test_rr_ignores_order_below_cutoff(self, tail):
        ranked = ["a", "hit", "c"] + list(tail)
        assert rr_at_k(ranked, {"hit"}, 3) == 0.5

    @given(st.permutations(list("abcde")))
    @settings(max_examples=30)
    def test_recall_ignores_order_within_cutoff(self, head):
        value = recall_at_k(list(head) + ["z"], {"a", "b", "z"}, 5)
        assert value == pytest.approx(2 / 3)


LINE_A = '{"query_id": "a", "positives": [1.5, 2], "negatives": [0.25, -1]}'
LINE_B = '{"query_id": "b", "positives": [0.5], "negatives": [0.75]}'
RECORD_A = ("a", (1.5, 2.0), (0.25, -1.0))
RECORD_B = ("b", (0.5,), (0.75,))


class TestScoreRecordParsing:
    def test_fixture_parses(self, data_dir):
        records = read_records(
            (data_dir / "scores_small.jsonl").read_text())
        assert len(records) == 3
        assert records[1].positives == (1.0, 0.0)

    def test_bad_json_line_number(self):
        with pytest.raises(DataError, match="line 2"):
            read_records(
                '{"query_id": "a", "positives": [1], "negatives": []}\n'
                "not json\n")

    def test_missing_key(self):
        with pytest.raises(DataError, match="missing keys"):
            read_records('{"query_id": "a", "positives": [1]}\n')

    def test_non_numeric_scores(self):
        with pytest.raises(DataError, match="numbers"):
            read_records(
                '{"query_id": "a", "positives": ["x"], "negatives": []}\n')

    def test_empty_positives(self):
        with pytest.raises(DataError, match="line 1"):
            read_records(
                '{"query_id": "a", "positives": [], "negatives": [0.1]}\n')

    @pytest.mark.parametrize("qid, message", [
        ('""', "query_id must be nonempty"), ("7", "query_id must be a string")])
    def test_query_id_checked(self, qid, message):
        with pytest.raises(DataError, match=f"line 1: {message}"):
            read_records(
                f'{{"query_id": {qid}, "positives": [1], "negatives": [0.1]}}\n')

    def test_bool_scores_rejected(self):
        with pytest.raises(DataError, match="line 1: negatives must be a list"):
            read_records(
                '{"query_id": "a", "positives": [1], "negatives": [true]}\n')

    def test_integer_too_large_for_double(self):
        huge = "1" + "0" * 400
        with pytest.raises(DataError, match="line 2: positives .* too large"):
            read_records(
                '{"query_id": "a", "positives": [1], "negatives": [0]}\n'
                f'{{"query_id": "b", "positives": [{huge}], "negatives": [0]}}\n')

    def test_deep_nesting_is_invalid_json(self):
        with pytest.raises(DataError, match="line 1: invalid JSON"):
            read_records("[" * 100_000 + "\n")

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
    def test_line_separator_inside_a_string_is_kept(self, separator):
        records = read_records(f'{{"query_id": "a{separator}b", '
                                      '"positives": [1], "negatives": [0]}\n')
        assert [r.query_id for r in records] == [f"a{separator}b"]

    def test_lines_end_as_in_a_text_file(self):
        rec = '{{"query_id": "{}", "positives": [1], "negatives": [0]}}'.format
        records = read_records(rec("a") + "\r\n" + rec("b") + "\r" + rec("c"))
        assert [r.query_id for r in records] == ["a", "b", "c"]
        # A form feed does not end a line, so two objects share line 2.
        with pytest.raises(DataError, match="line 2: invalid JSON"):
            read_records(rec("a") + "\n" + rec("b") + "\x0c" + rec("c") + "\n")

    def test_each_record_arrives_before_the_next_line_is_read(self):
        def lines():
            yield '{"query_id": "a", "positives": [1], "negatives": [0]}\n'
            raise AssertionError("read past the first record")
        assert next(iter_score_records(lines())).query_id == "a"

    @pytest.mark.parametrize("text, expected", [
        (" " + LINE_A + "\n", [RECORD_A]),
        ("\t" + LINE_A + "\n", [RECORD_A]),
        (LINE_A + "  \n", [RECORD_A]),
        (LINE_A + "\t\n", [RECORD_A]),
        (LINE_A + "\n" + LINE_B, [RECORD_A, RECORD_B]),
        ("\ufeff" + LINE_A + "\n" + LINE_B + "\n",
         "line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
         "line 1 column 1 (char 0)"),
        (LINE_A + " " + LINE_B + "\n",
         "line 1: invalid JSON: Extra data: line 1 column 67 (char 66)"),
        (LINE_A + "x\n",
         "line 1: invalid JSON: Extra data: line 1 column 66 (char 65)"),
        ('{"query_id": "a", "positives": [NaN], "negatives": [0]}\n',
         "line 1: query 'a': non-finite score in positives"),
        ('{"query_id": "a", "positives": [1], "negatives": [Infinity]}\n',
         "line 1: query 'a': non-finite score in negatives"),
        (LINE_A + "\n" + '{"query_id": "a", "positives": [' + "1" * 5000
         + '], "negatives": [0]}\n',
         "line 2: invalid JSON: Exceeds the limit (4300 digits) for integer "
         "string conversion: value has 5000 digits; use "
         "sys.set_int_max_str_digits() to increase the limit"),
    ], ids=["leading space", "leading tab", "trailing spaces", "trailing tab",
            "no final newline", "bom", "two objects", "trailing x", "nan",
            "infinity", "5000 digits"])
    def test_edge_lines_read_as_json_loads_reads_them(self, text, expected):
        # Whether a line is decoded once or falls back to json.loads, its
        # records and messages are those json.loads gives.
        if isinstance(expected, str):
            with pytest.raises(DataError) as info:
                read_records(text)
            assert str(info.value) == expected
        else:
            records = read_records(text)
            assert [(r.query_id, r.positives, r.negatives)
                    for r in records] == expected

    def test_canonical_lines_are_read_without_json_loads(self, data_dir,
                                                         tmp_path,
                                                         monkeypatch):
        rng = np.random.default_rng(19)
        rows = [(f"q{i}", rng.normal(0.5, 0.1, 1 + i % 3).tolist(),
                 rng.normal(0.3, 0.1, i % 40).tolist()) for i in range(200)]
        rows.append(("ints", [2, 1.5], [0, -1]))
        path = tmp_path / "scores.jsonl"
        path.write_text("".join(
            json.dumps({"query_id": q, "positives": p, "negatives": n}) + "\n"
            for q, p, n in rows))

        def refuse(*args, **kwargs):
            raise AssertionError("json.loads called")
        monkeypatch.setattr(json, "loads", refuse)
        small = read_records((data_dir / "scores_small.jsonl").read_text())
        assert [r.query_id for r in small] == ["q1", "q2", "q3"]
        records = read_records(path.read_text())
        assert [(r.query_id, r.positives, r.negatives) for r in records] == [
            (q, tuple(map(float, p)), tuple(map(float, n))) for q, p, n in rows]
        assert {type(v) for r in records for v in r.positives + r.negatives} == {float}

    def test_bytes_lines_are_read_as_json_loads_reads_them(self):
        records = iter_score_records([(LINE_A + "\n").encode(), LINE_B.encode()])
        assert [(r.query_id, r.positives, r.negatives)
                for r in records] == [RECORD_A, RECORD_B]

    def test_config_validation(self):
        with pytest.raises(DataError):
            EvalConfig(temperature=-1.0)
        for tau in (math.inf, math.nan):
            with pytest.raises(DataError, match="temperature"):
                EvalConfig(temperature=tau)
