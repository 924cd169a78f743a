import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedscale import (DIM_LAW, JOINT_LAW, AllocationResult, BudgetSpec,
                        DataError, LawFit, allocation_from_gamma, budget_curve,
                        flops_encode, flops_score, optimal_allocation, predict,
                        round_dim, round_params)

FIT = LawFit(JOINT_LAW, (85.54365872631361, 2.5888474911923605,
                         1.316978841505815, 0.9617863677214957,
                         0.29587339878428),
             r2=0.9865062029408167, residual_norm=0.18, n_points=58)


class TestFlops:
    def test_encode(self):
        assert flops_encode(5e6, 32) == 3.2e8
        assert flops_encode(1, 1) == 2.0

    def test_encode_guards(self):
        with pytest.raises(DataError):
            flops_encode(0, 32)
        with pytest.raises(DataError):
            flops_encode(5e6, 0)

    def test_score_exhaustive(self):
        assert flops_score(10_000_000, 32) == 6.4e8

    def test_score_ann(self):
        assert flops_score(10_000_000, 32, regime="ann") == pytest.approx(
            64.0 * math.log(1e7), rel=1e-15)

    def test_score_guards(self):
        with pytest.raises(DataError):
            flops_score(1, 32)
        with pytest.raises(DataError):
            flops_score(100, 0)
        with pytest.raises(DataError, match="regime"):
            flops_score(100, 32, regime="ivf")


class TestGammaSplit:
    def test_known_split(self):
        b = BudgetSpec(total_flops=1e9, query_tokens=32, corpus_size=10_000_000)
        # 0.25 is exactly representable, so both outputs are exact.
        n, d = allocation_from_gamma(0.25, b)
        assert n == 3906250.0
        assert d == 37.5
        n, d = allocation_from_gamma(0.32, b)
        assert n == pytest.approx(5.0e6, rel=1e-15)
        assert d == pytest.approx(34.0, rel=1e-15)

    def test_tiny_gamma_starves_encoder(self):
        b = BudgetSpec(total_flops=1e9, query_tokens=32, corpus_size=10_000_000)
        n, d = allocation_from_gamma(1e-9, b)
        assert n < 1.0
        assert d == pytest.approx(50.0, rel=1e-6)

    def test_gamma_bounds(self):
        b = BudgetSpec(total_flops=1e9, query_tokens=32, corpus_size=100)
        for gamma in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DataError):
                allocation_from_gamma(gamma, b)

    @given(gamma=st.floats(min_value=1e-6, max_value=1 - 1e-6),
           log_b=st.floats(min_value=6, max_value=14),
           tokens=st.integers(min_value=1, max_value=512),
           corpus=st.integers(min_value=2, max_value=10 ** 9),
           regime=st.sampled_from(["exhaustive", "ann"]))
    @settings(max_examples=200, deadline=None)
    def test_budget_identity(self, gamma, log_b, tokens, corpus, regime):
        # Pre-rounding, encode + score costs reconstruct the budget exactly.
        b = BudgetSpec(total_flops=10.0 ** log_b, query_tokens=tokens,
                       corpus_size=corpus, regime=regime)
        n, d = allocation_from_gamma(gamma, b)
        total = flops_encode(n, tokens) + flops_score(corpus, d, regime)
        assert total == pytest.approx(b.total_flops, rel=1e-12)


class TestRounding:
    def test_round_dim(self):
        assert round_dim(33.801) == 32
        assert round_dim(4.0) == 8
        assert round_dim(0.01) == 8
        assert round_dim(577.359) == 576

    def test_round_params(self):
        assert round_params(5.0622e6) == 5e6
        assert round_params(1.2e5) == 1e6
        assert round_params(4.59e8) == 459e6


class TestOptimalAllocation:
    def test_interior_optimum(self):
        b = BudgetSpec(total_flops=1e9, query_tokens=32, corpus_size=10_000_000)
        result = optimal_allocation(FIT, b)
        assert 0.0 < result.gamma < 1.0
        assert result.d_hat_rounded % 8 == 0
        assert result.n_hat_rounded % 1e6 == 0
        # The optimizer's entropy can never exceed any grid evaluation.
        for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
            n, d = allocation_from_gamma(gamma, b)
            assert result.predicted_entropy <= predict(FIT, d, n) + 1e-15

    def test_entropy_matches_raw_allocation(self):
        b = BudgetSpec(total_flops=1e10, query_tokens=32,
                       corpus_size=10_000_000)
        result = optimal_allocation(FIT, b)
        assert result.predicted_entropy == pytest.approx(
            predict(FIT, result.d_hat, result.n_hat), rel=1e-12)
        assert result.enc_flops + result.score_flops == pytest.approx(
            b.total_flops, rel=1e-12)

    def test_negligible_dim_term_pushes_gamma_to_edge(self):
        # With no dimension penalty the whole budget should go to the
        # encoder, so the optimizer lands on the D = 1 end of the feasible
        # interval.
        flat = LawFit(JOINT_LAW, (1e-30, 1.0, 1.0, 1.0, 0.1), r2=1.0,
                      residual_norm=0.0, n_points=21)
        b = BudgetSpec(total_flops=1e10, query_tokens=32, corpus_size=1000)
        result = optimal_allocation(flat, b)
        assert result.gamma == 1.0 - flops_score(1000, 1) / b.total_flops
        assert result.d_hat == pytest.approx(1.0, rel=1e-9)
        assert flat.a_coeff / result.d_hat ** flat.alpha < 1e-9
        expected = (flat.b_coeff / (result.n_hat / 1e6) ** flat.beta
                    + flat.delta)
        assert result.predicted_entropy == pytest.approx(expected, abs=1e-9)

    def test_edge_below_one_when_d1_share_is_below_an_ulp(self):
        # Under ANN with M = 2 one dimension costs 2 ln 2 FLOPs, so at
        # B = 1e17 the D = 1 end 1 - 2 ln 2 / B rounds to 1.0; the search
        # must stop at the largest double below 1 instead.
        flat = LawFit(JOINT_LAW, (1e-30, 1.0, 1.0, 1.0, 0.1), r2=1.0,
                      residual_norm=0.0, n_points=21)
        b = BudgetSpec(total_flops=1e17, query_tokens=32, corpus_size=2,
                       regime="ann")
        result = optimal_allocation(flat, b)
        assert result.gamma == math.nextafter(1.0, 0.0)
        assert result.d_hat >= 1.0

    def test_root_among_the_subnormals_closes_its_bracket(self):
        # b_coeff is the smallest subnormal, so the slope's root lies near
        # gamma = 3.7e-319: the deepest bracket, about 1075 halvings.
        tiny = LawFit(JOINT_LAW, (1.0, 5e-324, 1.0, 0.01, 0.1), r2=1.0,
                      residual_norm=0.0, n_points=21)
        b = BudgetSpec(total_flops=1e9, query_tokens=32, corpus_size=100_000)
        result = optimal_allocation(tiny, b)
        assert 0.0 < result.gamma < sys.float_info.min
        for neighbour in (math.nextafter(result.gamma, 0.0),
                          math.nextafter(result.gamma, 1.0)):
            n, d = allocation_from_gamma(neighbour, b)
            assert predict(tiny, d, n) >= result.predicted_entropy

    @pytest.mark.parametrize("budget", [1e11, 1e13])
    def test_no_worse_than_dense_scan_of_whole_interval(self, budget):
        # The joint law fitted to obs_bert_msmarco.csv. Under ANN with
        # M = 1e9 its optimum lies within 1.2e-4 of gamma = 1 (4.1e-5 at
        # B = 1e13), closer than a 4096-point grid reaches; the scan crowds
        # points toward both ends of (0, 1).
        fit = LawFit(JOINT_LAW, (114.88744218701746, 0.8007805510970095,
                                 1.8873265665111827, 1.2473141383056303,
                                 0.0137771781108527),
                     r2=0.99, residual_norm=0.0, n_points=58)
        b = BudgetSpec(total_flops=budget, query_tokens=32,
                       corpus_size=10 ** 9, regime="ann")
        result = optimal_allocation(fit, b)
        edge = np.geomspace(1e-12, 1e-2, 4096)
        gammas = np.unique(np.concatenate(
            [np.linspace(1e-12, 1.0 - 1e-12, 1 << 16), edge, 1.0 - edge]))
        n = gammas * budget / (2.0 * b.query_tokens)
        d = (1.0 - gammas) * budget / (2.0 * math.log(b.corpus_size))
        scan = (fit.a_coeff / d ** fit.alpha
                + fit.b_coeff / (n / 1e6) ** fit.beta + fit.delta)
        assert result.predicted_entropy <= float(np.min(scan)) * (1 + 1e-13)

    def test_budget_below_smallest_allocation_rejected(self):
        # N = 1e6 and D = 8 cost 2e6*32 + 8*2*1000 = 64,016,000 FLOPs.
        for budget in (10.0, 64_015_999.0):
            b = BudgetSpec(total_flops=budget, query_tokens=32,
                           corpus_size=1000)
            with pytest.raises(DataError, match="smallest allocation"):
                optimal_allocation(FIT, b)
        b = BudgetSpec(total_flops=64_016_000.0, query_tokens=32,
                       corpus_size=1000)
        assert optimal_allocation(FIT, b).d_hat > 0

    def test_overshoot_bounded_by_rounding_granularity(self):
        for exponent in (9.0, 9.5, 10.0, 11.0):
            for regime in ("exhaustive", "ann"):
                b = BudgetSpec(total_flops=10.0 ** exponent, query_tokens=32,
                               corpus_size=10_000_000, regime=regime)
                result = optimal_allocation(FIT, b)
                unit_dim_cost = (2.0 * b.corpus_size if regime == "exhaustive"
                                 else 2.0 * math.log(b.corpus_size))
                bound = 2.0 * b.query_tokens * 1e6 + 8.0 * unit_dim_cost
                assert abs(result.budget_overshoot) <= bound

    def test_monotone_in_budget(self):
        b0 = BudgetSpec(total_flops=1e9, query_tokens=32,
                        corpus_size=10_000_000)
        entropies = []
        for k in range(6):
            b = BudgetSpec(total_flops=b0.total_flops * 10 ** (k / 2),
                           query_tokens=32, corpus_size=10_000_000)
            entropies.append(optimal_allocation(FIT, b).predicted_entropy)
        assert all(a >= b for a, b in zip(entropies, entropies[1:]))

    def test_dim_shrinks_as_corpus_grows(self):
        # Exhaustive scoring charges 2MD, so a bigger corpus makes every
        # dimension pricier and the optimum moves toward smaller D.
        dims = []
        for corpus in (10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7):
            b = BudgetSpec(total_flops=1e10, query_tokens=32,
                           corpus_size=corpus)
            dims.append(optimal_allocation(FIT, b).d_hat)
        assert all(a >= b for a, b in zip(dims, dims[1:]))

    def test_ann_never_worse_than_exhaustive(self):
        for exponent in (9.0, 10.0, 11.0):
            exhaustive = optimal_allocation(FIT, BudgetSpec(
                total_flops=10.0 ** exponent, query_tokens=32,
                corpus_size=10_000_000))
            ann = optimal_allocation(FIT, BudgetSpec(
                total_flops=10.0 ** exponent, query_tokens=32,
                corpus_size=10_000_000, regime="ann"))
            assert ann.predicted_entropy <= exhaustive.predicted_entropy

    def test_requires_joint_fit(self):
        b = BudgetSpec(total_flops=1e9, query_tokens=32, corpus_size=100)
        with pytest.raises(DataError, match="joint"):
            optimal_allocation("not a fit", b)
        dim_only = LawFit(DIM_LAW, (1.0, 1.0, 0.1), r2=1.0, residual_norm=0.0,
                          n_points=9)
        with pytest.raises(DataError, match="joint"):
            optimal_allocation(dim_only, b)


class TestBudgetCurve:
    def test_leftover_arithmetic(self):
        b = BudgetSpec(total_flops=1e9, query_tokens=32, corpus_size=10_000_000)
        curve = budget_curve(FIT, b, [32])
        (d, entropy), = curve.points
        n = (1e9 - 6.4e8) / 64.0
        assert d == 32
        assert n == 5.625e6
        assert entropy == pytest.approx(predict(FIT, 32, n), rel=1e-15)

    def test_infeasible_dims_skipped(self):
        b = BudgetSpec(total_flops=1e9, query_tokens=32, corpus_size=10_000_000)
        curve = budget_curve(FIT, b, [16, 32, 50, 64])
        assert curve.skipped == (50, 64)
        assert [p[0] for p in curve.points] == [16, 32]

    def test_exact_budget_is_infeasible(self):
        # D = 50 prices the scoring at exactly B, leaving nothing for N.
        b = BudgetSpec(total_flops=1e9, query_tokens=32, corpus_size=10_000_000)
        assert budget_curve(FIT, b, [32, 50]).skipped == (50,)

    def test_all_infeasible(self):
        b = BudgetSpec(total_flops=1e9, query_tokens=32, corpus_size=10_000_000)
        with pytest.raises(DataError, match="infeasible"):
            budget_curve(FIT, b, [64, 128])

    def test_ann_dominates_exhaustive_pointwise(self):
        dims = [32, 64, 128, 256, 512]
        exhaustive = budget_curve(FIT, BudgetSpec(
            total_flops=1e11, query_tokens=32, corpus_size=10_000_000), dims)
        ann = budget_curve(FIT, BudgetSpec(
            total_flops=1e11, query_tokens=32, corpus_size=10_000_000,
            regime="ann"), dims)
        paired = {d: e for d, e in exhaustive.points}
        for d, entropy in ann.points:
            assert entropy <= paired[d]

    def test_input_guards(self):
        b = BudgetSpec(total_flops=1e9, query_tokens=32, corpus_size=100)
        with pytest.raises(DataError, match="requires a joint-law fit"):
            budget_curve(LawFit(DIM_LAW, (100.0, 1.5, 0.1), r2=0.9,
                                residual_norm=0.1, n_points=7), b, [32])
        with pytest.raises(DataError, match="nonempty"):
            budget_curve(FIT, b, [])
        with pytest.raises(DataError, match=">= 1"):
            budget_curve(FIT, b, [0.5])


class TestSpecValidation:
    def test_budget_spec(self):
        # Each input has one fault, and the message names its field.
        valid = dict(total_flops=1e9, query_tokens=32, corpus_size=100)
        for field, value, named in [
                ("total_flops", 0, "total_flops"),
                ("total_flops", math.inf, "total_flops"),
                ("total_flops", math.nan, "total_flops"),
                ("query_tokens", 0, "tokens must be >= 1"),
                ("query_tokens", 10 ** 400, "tokens must not exceed"),
                ("corpus_size", 1, "corpus_size must be >= 2"),
                ("corpus_size", 10 ** 400, "corpus_size must not exceed"),
                ("regime", "bruteforce", "regime")]:
            with pytest.raises(DataError, match=named):
                BudgetSpec(**{**valid, field: value})
        # The ann regime takes only log(M), which any integer M gives.
        assert BudgetSpec(1e9, 32, 10 ** 400, "ann").corpus_size == 10 ** 400

    def test_allocation_result_gamma_range(self):
        with pytest.raises(DataError):
            AllocationResult(gamma=1.5, n_hat=1.0, d_hat=8.0,
                             n_hat_rounded=1e6, d_hat_rounded=8,
                             predicted_entropy=0.5, enc_flops=1.0,
                             score_flops=1.0, budget_overshoot=0.0)
