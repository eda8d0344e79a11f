import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posauctions.learning import (AverageEmpiricalDistribution, BidGrid, ExpWeights,
                                  certify_cce, horizon_for_regret, optimal_learning_rate)
from posauctions.model import AuctionError


def make_learner(k=3, eta=0.5, **kw):
    return ExpWeights(BidGrid.evenly(k - 1, 1.0), eta, **kw)


class TestBidGrid:
    def test_evenly(self):
        g = BidGrid.evenly(4, 2.0)
        assert np.allclose(g.points, [0, 0.5, 1.0, 1.5, 2.0])
        assert len(g) == 5

    def test_zero_cap_degenerates(self):
        g = BidGrid.evenly(4, 0.0)
        assert np.all(g.points == 0.0)
        assert len(g) == 5

    def test_must_start_at_zero(self):
        with pytest.raises(AuctionError):
            BidGrid(np.array([0.1, 0.2]))


class TestEwStep:
    def test_equal_utilities_keep_weights(self):
        s = make_learner()
        s.step([0.7, 0.7, 0.7])
        assert np.allclose(s.weights, 1 / 3)

    def test_zero_eta_keeps_weights(self):
        s = make_learner(eta=0.0)
        s.step([1.0, 0.0, 0.3])
        assert np.allclose(s.weights, 1 / 3)

    def test_two_arm_hand_computation(self):
        s = ExpWeights(BidGrid.evenly(1, 1.0), eta=math.log(2.0))
        s.step([1.0, 0.0])
        assert np.allclose(s.weights, [2 / 3, 1 / 3])

    def test_rejects_nonfinite(self):
        s = make_learner()
        with pytest.raises(AuctionError):
            s.step([math.inf, 0.0, 0.0])

    def test_rejects_wrong_length(self):
        s = make_learner()
        with pytest.raises(AuctionError):
            s.step([0.1, 0.2])

    @given(st.lists(st.lists(st.floats(0, 1), min_size=3, max_size=3), min_size=1, max_size=30))
    @settings(max_examples=60)
    def test_weights_remain_distribution(self, stream):
        s = make_learner(eta=0.3)
        for u in stream:
            s.step(u)
        assert np.all(s.weights >= 0)
        assert abs(float(s.weights.sum()) - 1.0) <= 1e-12
        assert s.history_length() == len(stream) == s.rounds


class TestLearningRate:
    def test_formula(self):
        assert optimal_learning_rate(21, 100) == pytest.approx(0.174486, abs=1e-5)

    def test_horizon(self):
        assert horizon_for_regret(2, 0.1) == 278

    def test_vanishes_with_horizon(self):
        assert optimal_learning_rate(10, 10**9) < 1e-3

    def test_validation(self):
        with pytest.raises(AuctionError):
            optimal_learning_rate(1, 10)
        with pytest.raises(AuctionError):
            horizon_for_regret(5, 0.0)


class TestRegret:
    def test_single_arm_zero(self):
        s = ExpWeights(BidGrid(np.array([0.0])), eta=0.1)
        s.step([0.4])
        assert s.average_regret() == pytest.approx(0.0, abs=1e-12)

    def test_adversarial_within_theory_bound(self):
        k, t = 21, 400
        eta = optimal_learning_rate(k, t)
        s = ExpWeights(BidGrid.evenly(k - 1, 1.0), eta, track_history=False)
        for step in range(t):
            u = np.full(k, 0.5)
            u[step % 2] = 1.0
            u[(step + 1) % 2] = 0.0
            s.step(u)
        assert s.average_regret() <= 2 * math.sqrt(math.log(k) / t)

    def test_constant_best_arm_regret_decays(self):
        k = 5
        u = np.array([0.1, 0.9, 0.3, 0.2, 0.0])
        regrets = []
        for t in (50, 200, 800):
            s = ExpWeights(BidGrid.evenly(k - 1, 1.0), optimal_learning_rate(k, t),
                           track_history=False)
            for _ in range(t):
                s.step(u)
            regrets.append(s.average_regret())
        assert regrets == sorted(regrets, reverse=True)
        assert regrets[-1] < regrets[0] / 2

    def test_requires_play(self):
        with pytest.raises(AuctionError):
            make_learner().average_regret()


class TestCce:
    def test_zero_regret_certifies(self):
        learners = [make_learner() for _ in range(3)]
        for s in learners:
            s.step([0.5, 0.5, 0.5])
        assert certify_cce(learners, 1e-9)

    def test_large_regret_fails(self):
        s = make_learner(eta=0.0)
        s.step([1.0, 0.0, 0.0])  # expected play got 1/3, best arm 1.0
        assert s.average_regret() == pytest.approx(2 / 3, abs=1e-12)
        assert not certify_cce([s], 0.1)

    def test_prescribed_horizon_reaches_target_epsilon(self):
        # running for 4 ln K / eps^2 rounds at the matched rate certifies eps
        k, eps = 6, 0.3
        t = horizon_for_regret(k, eps)
        s = ExpWeights(BidGrid.evenly(k - 1, 1.0), optimal_learning_rate(k, t),
                       track_history=False)
        rng = np.random.default_rng(1)
        for step in range(t):
            u = rng.random(k)
            u[step % 2] = 1.0 - (step % 2)
            s.step(u)
        assert certify_cce([s], eps)


class TestHistory:
    def test_snapshots_are_pre_update(self):
        s = make_learner(eta=0.7)
        s.step([1.0, 0.0, 0.0])
        assert np.allclose(s.weights_at(0), 1 / 3)
        before = s.weights.copy()
        s.step([0.0, 1.0, 0.0])
        assert np.allclose(s.weights_at(1), before)

    def test_reservoir_kicks_in_above_cap(self):
        s = make_learner(eta=0.1, history_cap=10)
        for _ in range(25):
            s.step([0.5, 0.1, 0.0])
        assert s.history_length() == 10
        assert s.history_sampled

    def test_disabled_tracking(self):
        s = make_learner(track_history=False)
        s.step([0.1, 0.2, 0.3])
        with pytest.raises(AuctionError):
            s.weights_at(0)


class TestAverageEmpiricalDistribution:
    def test_reproducible_sampling(self):
        learners = [make_learner(eta=0.9) for _ in range(2)]
        rng = np.random.default_rng(0)
        for _ in range(20):
            for s in learners:
                s.step(rng.random(3))
        dist = AverageEmpiricalDistribution(learners)
        draws1 = [dist.sample(np.random.default_rng(42)) for _ in range(10)]
        draws2 = [dist.sample(np.random.default_rng(42)) for _ in range(10)]
        for (t1, b1), (t2, b2) in zip(draws1, draws2):
            assert t1 == t2
            assert np.array_equal(b1, b2)

    def test_mismatched_histories_rejected(self):
        a, b = make_learner(), make_learner()
        a.step([0.1, 0.1, 0.1])
        with pytest.raises(AuctionError):
            AverageEmpiricalDistribution([a, b])
