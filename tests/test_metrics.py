import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedscale import (BatchQueryScores, DataError, EvalConfig,
                        NumericError, QueryScoreRecord, TeacherMargin,
                        combined_loss, contrastive_entropy_dataset,
                        contrastive_entropy_query, contrastive_entropy_records,
                        contrastive_entropy_single, contrastive_loss_grad,
                        margin_mse, margin_mse_grad, parse_score_records,
                        recall_at_k, rr_at_k, sample_negatives)
from embedscale.metrics import KERNEL_CHUNK

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
        cfg = EvalConfig()
        assert contrastive_entropy_query(rec, cfg) == \
            contrastive_entropy_single(1.2, [0.3, -0.1])

    def test_identical_positives_change_nothing(self):
        cfg = EvalConfig()
        one = contrastive_entropy_query(QueryScoreRecord("q", (1.0,), (0.0,)), cfg)
        two = contrastive_entropy_query(
            QueryScoreRecord("q", (1.0, 1.0), (0.0,)), cfg)
        assert one == two

    def test_two_positive_hand_case(self):
        # mean of -log sigmoid(1) and -log sigmoid(0)
        rec = QueryScoreRecord("q", (1.0, 0.0), (0.0,))
        value = contrastive_entropy_query(rec, EvalConfig())
        expected = (math.log(1 + math.exp(-1)) + math.log(2)) / 2
        assert value == pytest.approx(expected, rel=1e-14)
        assert value == pytest.approx((0.313262 + 0.693147) / 2, abs=1e-6)

    def test_dataset_single_record_identity(self):
        rec = QueryScoreRecord("q", (1.0,), (0.0, 0.5))
        cfg = EvalConfig(temperature=0.02)
        assert contrastive_entropy_dataset([rec], cfg) == \
            contrastive_entropy_query(rec, cfg)

    def test_dataset_two_records_average(self):
        cfg = EvalConfig()
        r1 = QueryScoreRecord("a", (1.0,), (0.0,))
        r2 = QueryScoreRecord("b", (0.5,), (0.25, 0.75))
        a = contrastive_entropy_query(r1, cfg)
        b = contrastive_entropy_query(r2, cfg)
        assert contrastive_entropy_dataset([r1, r2], cfg) == \
            pytest.approx((a + b) / 2, rel=1e-15)

    def test_dataset_fixture_brute_force(self, data_dir):
        records = parse_score_records(
            (data_dir / "scores_small.jsonl").read_text())
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
        with pytest.raises(DataError, match="no query records"):
            contrastive_entropy_dataset([], EvalConfig())


score_rows = st.lists(
    st.tuples(st.lists(finite_scores, min_size=1, max_size=4),
              st.lists(finite_scores, min_size=1, max_size=40)),
    min_size=1, max_size=8)


class TestEntropyRecords:
    @given(rows=score_rows,
           tau=st.none() | st.floats(min_value=0.01, max_value=10))
    def test_matches_scalar_reference(self, rows, tau):
        records = [QueryScoreRecord(f"q{i}", tuple(p), tuple(n))
                   for i, (p, n) in enumerate(rows)]
        values = contrastive_entropy_records(records, tau)
        assert len(values) == len(records)
        for rec, value in zip(records, values):
            assert value == pytest.approx(reference_query_entropy(rec, tau),
                                          rel=1e-12, abs=5e-14)

    def test_chunk_boundaries_do_not_change_values(self):
        rng = np.random.default_rng(3)
        shapes = [(2, 5000)] * 10 + [(1, KERNEL_CHUNK + 10)] + [(3, 700)] * 60
        records = [QueryScoreRecord(f"q{i}",
                                    tuple(rng.normal(0.5, 0.1, p).tolist()),
                                    tuple(rng.normal(0.3, 0.1, n).tolist()))
                   for i, (p, n) in enumerate(shapes)]
        assert sum(p * (n + 1) for p, n in shapes) > 3 * KERNEL_CHUNK
        one_call = contrastive_entropy_records(records, 0.05)
        one_by_one = [contrastive_entropy_records([r], 0.05)[0]
                      for r in records]
        assert one_call == one_by_one

    def test_empty_input_gives_empty_output(self):
        assert contrastive_entropy_records([]) == []

    def test_record_without_negatives_rejected(self):
        rec = QueryScoreRecord("q", (1.0,), ())
        with pytest.raises(DataError, match="nonempty"):
            contrastive_entropy_records([rec])

    def test_bad_tau_rejected(self):
        rec = QueryScoreRecord("q", (1.0,), (0.0,))
        with pytest.raises(DataError, match="temperature"):
            contrastive_entropy_records([rec], 0.0)

    @pytest.mark.parametrize("scores, tau", [
        (((0.5,), (0.1,)), 1e-310),       # scaled scores overflow
        (((1e308,), (-1e308,)), 0.5),
        (((-1e308,), (1e308,)), None),    # entropy 2e308 overflows
    ])
    def test_non_finite_result_is_numeric_error(self, scores, tau):
        rec = QueryScoreRecord("q", *scores)
        with pytest.raises(NumericError, match="not finite"):
            contrastive_entropy_records([rec], tau)


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
        with pytest.raises(DataError):
            TeacherMargin(float("inf"), 0.0)

    def test_contrastive_grad_closed_form(self):
        g_pos, g_negs = contrastive_loss_grad(1.0, [0.0, 0.5], tau=None)
        z = math.exp(1.0) + math.exp(0.0) + math.exp(0.5)
        assert g_pos == pytest.approx(math.exp(1.0) / z - 1, rel=1e-12)
        assert g_negs[0] == pytest.approx(math.exp(0.0) / z, rel=1e-12)
        assert g_negs[1] == pytest.approx(math.exp(0.5) / z, rel=1e-12)

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


class TestCombinedLoss:
    def test_ettin_single_query_reduces_to_contrastive(self):
        q = BatchQueryScores(positive=1.0, hard_negatives=(0.0, 0.5))
        assert combined_loss([q], "ettin", tau=0.02) == \
            contrastive_entropy_single(1.0, [0.0, 0.5], tau=0.02)

    def test_ettin_requires_tau(self):
        q = BatchQueryScores(positive=1.0, hard_negatives=(0.0,))
        with pytest.raises(DataError, match="temperature"):
            combined_loss([q], "ettin")

    def test_bert_zero_margin_error_leaves_contrastive(self):
        q1 = BatchQueryScores(positive=2.0, hard_negatives=(1.0,),
                              teacher=(TeacherMargin(5.0, 4.0),),
                              in_batch_negatives=(0.5,))
        q2 = BatchQueryScores(positive=1.5, hard_negatives=(0.5,),
                              teacher=(TeacherMargin(3.0, 2.0),),
                              in_batch_negatives=(0.1,))
        total = combined_loss([q1, q2], "bert")
        ct = (contrastive_entropy_single(2.0, [0.5])
              + contrastive_entropy_single(1.5, [0.1])) / 2
        assert total == pytest.approx(ct, rel=1e-14)

    def test_bert_two_query_brute_force(self):
        q1 = BatchQueryScores(positive=2.0, hard_negatives=(1.0, 0.5),
                              teacher=(TeacherMargin(5.0, 3.0),
                                       TeacherMargin(4.0, 3.8)),
                              in_batch_negatives=(0.3,))
        q2 = BatchQueryScores(positive=1.5, hard_negatives=(0.2,),
                              teacher=(TeacherMargin(2.0, 1.0),),
                              in_batch_negatives=(0.8,))
        total = combined_loss([q1, q2], "bert")

        mm = (((2.0 - 1.0) - 2.0) ** 2
              + ((2.0 - 0.5) - 0.2) ** 2
              + ((1.5 - 0.2) - 1.0) ** 2) / 3
        ct1 = -math.log(math.exp(2.0) / (math.exp(2.0) + math.exp(0.3)))
        ct2 = -math.log(math.exp(1.5) / (math.exp(1.5) + math.exp(0.8)))
        assert total == pytest.approx(mm + (ct1 + ct2) / 2, rel=1e-12)

    def test_ettin_two_query_brute_force(self):
        tau = 0.5
        q1 = BatchQueryScores(positive=1.0, hard_negatives=(0.2,),
                              in_batch_negatives=(0.6, -0.4))
        q2 = BatchQueryScores(positive=0.8, hard_negatives=(),
                              in_batch_negatives=(0.1, 0.9))
        total = combined_loss([q1, q2], "ettin", tau=tau)
        expected = (oracle_entropy(1.0, [0.2, 0.6, -0.4], tau)
                    + oracle_entropy(0.8, [0.1, 0.9], tau)) / 2
        assert total == pytest.approx(expected, rel=1e-12)

    def test_bert_missing_teacher(self):
        q = BatchQueryScores(positive=1.0, hard_negatives=(0.0,),
                             in_batch_negatives=(0.5,))
        with pytest.raises(DataError, match="teacher"):
            combined_loss([q], "bert")

    def test_bert_no_pairs(self):
        q = BatchQueryScores(positive=1.0, in_batch_negatives=(0.5,))
        with pytest.raises(DataError, match="pair"):
            combined_loss([q], "bert")

    def test_misaligned_teacher_rejected(self):
        with pytest.raises(DataError, match="align"):
            BatchQueryScores(positive=1.0, hard_negatives=(0.0, 0.1),
                             teacher=(TeacherMargin(1.0, 0.0),))

    def test_empty_batch(self):
        with pytest.raises(DataError, match="empty batch"):
            combined_loss([], "ettin", tau=1.0)

    def test_unknown_recipe(self):
        q = BatchQueryScores(positive=1.0, hard_negatives=(0.0,))
        with pytest.raises(DataError, match="recipe"):
            combined_loss([q], "roberta", tau=1.0)


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


class TestScoreRecordParsing:
    def test_fixture_parses(self, data_dir):
        records = parse_score_records(
            (data_dir / "scores_small.jsonl").read_text())
        assert len(records) == 3
        assert records[1].positives == (1.0, 0.0)

    def test_bad_json_line_number(self):
        with pytest.raises(DataError, match="line 2"):
            parse_score_records(
                '{"query_id": "a", "positives": [1], "negatives": []}\n'
                "not json\n")

    def test_missing_key(self):
        with pytest.raises(DataError, match="missing keys"):
            parse_score_records('{"query_id": "a", "positives": [1]}\n')

    def test_non_numeric_scores(self):
        with pytest.raises(DataError, match="numbers"):
            parse_score_records(
                '{"query_id": "a", "positives": ["x"], "negatives": []}\n')

    def test_empty_positives(self):
        with pytest.raises(DataError, match="line 1"):
            parse_score_records(
                '{"query_id": "a", "positives": [], "negatives": [0.1]}\n')

    def test_bool_scores_rejected(self):
        with pytest.raises(DataError, match="line 1: negatives must be a list"):
            parse_score_records(
                '{"query_id": "a", "positives": [1], "negatives": [true]}\n')

    def test_integer_too_large_for_double(self):
        huge = "1" + "0" * 400
        with pytest.raises(DataError, match="line 2: positives .* too large"):
            parse_score_records(
                '{"query_id": "a", "positives": [1], "negatives": [0]}\n'
                f'{{"query_id": "b", "positives": [{huge}], "negatives": [0]}}\n')

    def test_deep_nesting_is_invalid_json(self):
        with pytest.raises(DataError, match="line 1: invalid JSON"):
            parse_score_records("[" * 100_000 + "\n")

    def test_config_validation(self):
        with pytest.raises(DataError):
            EvalConfig(temperature=-1.0)
        with pytest.raises(DataError):
            EvalConfig(n_negatives=0)
