"""Distribution estimators and the mixture-weight fitting loop."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixcat import (
    EmConfig,
    EmResult,
    distribute_frequencies,
    ele_distribution,
    em_fit,
    em_step,
    gradient,
    log_likelihood,
    mle_distribution,
    mle_word_distribution,
    soft_clusters,
)
from mixcat.estimation import loglik_grad, pack_tokens

# the example cluster word distributions and per-side training pools,
# spelled out so the fitting tests do not depend on the training code
K1 = {"racket": 4 / 9, "stroke": 1 / 9, "shot": 2 / 9, "ball": 2 / 9}
K2 = {"goal": 0.5, "kick": 0.25, "ball": 0.25}
POOL_POS = ["racket"] * 4 + ["stroke"] + ["shot"] * 2 + ["ball"] * 2 + ["goal"]
POOL_NEG = ["ball"] * 2 + ["goal"] * 3 + ["kick"] * 2


def _random_instance(rng, max_components=4, max_words=8):
    """Random mixture components with full support plus a token bag."""
    m = int(rng.integers(1, max_components + 1))
    n = int(rng.integers(2, max_words + 1))
    words = [f"w{i}" for i in range(n)]
    dists = [
        dict(zip(words, rng.dirichlet(np.ones(n)) + 1e-6))
        for _ in range(m)
    ]
    counts = rng.integers(1, 6, size=n)
    tokens = [w for w, c in zip(words, counts) for _ in range(int(c))]
    theta = rng.dirichlet(np.ones(m))
    return dists, tokens, theta


# count tables with integer values well past 2**53, where a float sum
# would already round
COUNT_TABLES = st.dictionaries(
    st.text(max_size=3), st.integers(0, 10**20), min_size=1, max_size=12
)


class TestEleDistribution:
    def test_hand_values(self):
        dist = ele_distribution({"x": 3, "y": 1})
        assert dist == {"x": 0.7, "y": 0.3}

    def test_all_zero_counts_give_uniform(self):
        dist = ele_distribution({"a": 0, "b": 0, "c": 0})
        assert dist == pytest.approx({"a": 1 / 3, "b": 1 / 3, "c": 1 / 3})

    def test_zero_count_keeps_positive_probability(self):
        dist = ele_distribution({"a": 9, "b": 0})
        assert dist["b"] == pytest.approx(0.5 / 10)
        assert dist["b"] > 0

    def test_large_counts_swamp_the_prior(self):
        dist = ele_distribution({"a": 10**6, "b": 0})
        assert abs(dist["a"] - 1.0) < 1e-6

    def test_fraction_counts(self):
        dist = ele_distribution({"a": Fraction(1, 2), "b": Fraction(1, 2)})
        assert dist == {"a": 0.5, "b": 0.5}

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            counts = {f"w{i}": int(rng.integers(0, 40)) for i in range(n)}
            total = math.fsum(ele_distribution(counts).values())
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_empty_table(self):
        with pytest.raises(ValueError, match="empty"):
            ele_distribution({})

    def test_negative_count(self):
        with pytest.raises(ValueError, match="negative"):
            ele_distribution({"a": 1, "b": -1})

    @given(COUNT_TABLES)
    def test_integer_counts_round_once(self, counts):
        total, m = sum(counts.values()), len(counts)
        dist = ele_distribution(counts)
        for key, value in counts.items():
            assert type(dist[key]) is float
            assert dist[key] == float(Fraction(2 * value + 1, 2 * total + m))


class TestMleDistribution:
    def test_exact_fractions(self):
        dist = mle_distribution({"a": 2, "b": 3})
        assert dist == {"a": 2 / 5, "b": 3 / 5}
        assert all(type(v) is float for v in dist.values())
        exact = mle_distribution({"a": Fraction(1, 3), "b": Fraction(2, 3)})
        assert exact == {"a": Fraction(1, 3), "b": Fraction(2, 3)}
        assert all(isinstance(v, Fraction) for v in exact.values())

    @given(COUNT_TABLES.filter(lambda counts: any(counts.values())))
    def test_integer_counts_round_once(self, counts):
        total = sum(counts.values())
        dist = mle_distribution(counts)
        for key, value in counts.items():
            assert type(dist[key]) is float
            assert dist[key] == float(Fraction(value, total))

    @given(
        st.lists(
            st.fractions(min_value=0, max_denominator=50), min_size=1, max_size=8
        ).filter(any)
    )
    def test_fraction_counts_stay_exact(self, values):
        dist = mle_distribution(dict(enumerate(values)))
        total = sum(values)
        assert all(isinstance(v, Fraction) for v in dist.values())
        assert sum(dist.values()) == 1
        assert all(dist[i] * total == v for i, v in enumerate(values))

    def test_zero_mass(self):
        with pytest.raises(ValueError, match="zero-mass"):
            mle_distribution({"a": 0, "b": 0})

    def test_negative_frequency(self):
        with pytest.raises(ValueError, match="negative"):
            mle_distribution({"a": -1, "b": 2})

    def test_cluster_word_distribution(self, binary_table):
        clustering = soft_clusters(binary_table, 0.4)
        distributed = distribute_frequencies(binary_table, clustering)
        assert mle_word_distribution(distributed, 0) == {
            "racket": 4 / 9,
            "stroke": 1 / 9,
            "shot": 2 / 9,
            "ball": 2 / 9,
        }
        assert mle_word_distribution(distributed, 1) == {
            "goal": 1 / 2,
            "kick": 1 / 4,
            "ball": 1 / 4,
        }


class TestPackTokens:
    def test_first_appearance_order_and_counts(self):
        words, counts, probs = pack_tokens(
            ["b", "a", "b", "c", "a", "b"], [{"a": 0.2, "b": 0.3, "c": 0.5}]
        )
        assert words == ["b", "a", "c"]
        assert counts.tolist() == [3.0, 2.0, 1.0]
        assert probs.tolist() == [[0.3, 0.2, 0.5]]

    def test_uncovered_token_named_in_error(self):
        with pytest.raises(ValueError, match="zygote"):
            pack_tokens(["a", "zygote"], [{"a": 1.0}])

    def test_empty_tokens(self):
        with pytest.raises(ValueError, match="no tokens"):
            pack_tokens([], [{"a": 1.0}])

    def test_no_components(self):
        with pytest.raises(ValueError, match="component"):
            pack_tokens(["a"], [])


class TestLogLikelihood:
    def test_single_component_single_token(self):
        value = log_likelihood((1.0,), [{"w": 0.5}], ("w",))
        assert value == pytest.approx(math.log(0.5), rel=1e-15)

    def test_matches_per_token_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dists, tokens, theta = _random_instance(rng)
            expected = math.fsum(
                math.log(math.fsum(t * d[w] for t, d in zip(theta, dists)))
                for w in tokens
            ) / len(tokens)
            assert log_likelihood(theta, dists, tokens) == pytest.approx(
                expected, rel=1e-12
            )

    def test_token_order_irrelevant(self):
        rng = np.random.default_rng(12)
        dists, tokens, theta = _random_instance(rng)
        shuffled = list(tokens)
        rng.shuffle(shuffled)
        assert log_likelihood(theta, dists, shuffled) == pytest.approx(
            log_likelihood(theta, dists, tokens), rel=1e-12
        )


class TestGradient:
    def test_single_component_is_one(self):
        grad = gradient((1.0,), [{"a": 0.3, "b": 0.7}], ("a", "b", "a"))
        assert grad == pytest.approx([1.0], rel=1e-12)

    def test_identical_components(self):
        dist = {"a": 0.4, "b": 0.6}
        grad = gradient((0.5, 0.5), [dist, dict(dist)], ("a", "b"))
        assert grad == pytest.approx([1.0, 1.0], rel=1e-12)

    def test_weighted_gradient_averages_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            dists, tokens, theta = _random_instance(rng)
            grad = gradient(theta, dists, tokens)
            assert float(theta @ grad) == pytest.approx(1.0, abs=1e-10)

    def test_matches_directional_finite_difference(self):
        rng = np.random.default_rng(22)
        h = 1e-6
        checked = 0
        while checked < 25:
            dists, tokens, theta = _random_instance(rng)
            if len(dists) < 2 or np.min(theta) < 10 * h:
                continue
            j, k = rng.choice(len(dists), size=2, replace=False)
            step = np.zeros(len(dists))
            step[j], step[k] = h, -h
            numeric = (
                log_likelihood(theta + step, dists, tokens)
                - log_likelihood(theta - step, dists, tokens)
            ) / (2 * h)
            grad = gradient(theta, dists, tokens)
            assert numeric == pytest.approx(grad[j] - grad[k], rel=1e-4)
            checked += 1


def test_gradient_kernel_rejects_vanished_mixture():
    counts = np.array([1.0])
    probs = np.array([[0.0]])
    theta = np.array([1.0])
    with pytest.raises(ValueError, match="vanished"):
        loglik_grad(counts, probs, theta)


class TestEmStep:
    def test_unit_gradient_is_a_fixed_point(self):
        theta = np.array([0.25, 0.5, 0.25])
        updated = em_step(theta, np.ones(3), 0.7)
        assert updated.tolist() == theta.tolist()

    def test_full_step_hand_values(self):
        updated = em_step(np.array([0.5, 0.5]), np.array([1.4, 0.6]), 1.0)
        assert updated == pytest.approx([0.7, 0.3], rel=1e-15)

    def test_half_step_hand_values(self):
        updated = em_step(np.array([0.5, 0.5]), np.array([1.4, 0.6]), 0.5)
        assert updated == pytest.approx([0.6, 0.4], rel=1e-15)

    def test_stays_on_simplex_with_real_gradients(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            dists, tokens, theta = _random_instance(rng)
            grad = gradient(theta, dists, tokens)
            eta = float(rng.uniform(0.05, 1.0))
            updated = em_step(theta, grad, eta)
            assert float(updated.sum()) == pytest.approx(1.0, abs=1e-12)
            assert np.all(updated >= 0.0)


class TestEmFit:
    def test_two_update_snapshot(self):
        cfg = EmConfig(max_iterations=2)
        pos = em_fit([K1, K2], POOL_POS, cfg)
        neg = em_fit([K1, K2], POOL_NEG, cfg)
        assert pos.theta == pytest.approx(
            (0.8548387096774194, 0.14516129032258066), rel=1e-12
        )
        assert neg.theta == pytest.approx(
            (0.03466486120514556, 0.9653351387948543), rel=1e-12
        )
        assert pos.iterations == 2 and neg.iterations == 2
        assert not pos.converged and not neg.converged

    def test_converged_weights(self):
        pos = em_fit([K1, K2], POOL_POS)
        neg = em_fit([K1, K2], POOL_NEG)
        assert pos.converged and neg.converged
        assert pos.theta == pytest.approx(
            (0.8715487853846612, 0.1284512146153389), rel=1e-12
        )
        # the negative pool never uses cluster 1's exclusive words, so
        # its weight collapses toward the simplex boundary
        assert neg.theta[0] == pytest.approx(0.0, abs=1e-8)
        assert neg.theta[1] == pytest.approx(1.0, abs=1e-8)

    def test_result_is_self_consistent(self):
        result = em_fit([K1, K2], POOL_POS)
        assert isinstance(result, EmResult)
        assert result.log_likelihood == pytest.approx(
            log_likelihood(result.theta, [K1, K2], POOL_POS), rel=1e-15
        )
        assert math.fsum(result.theta) == pytest.approx(1.0, abs=1e-12)

    def test_trace_is_monotone_at_full_rate(self):
        trace = []
        result = em_fit([K1, K2], POOL_POS, trace=trace)
        evaluations = [e for e, _ in trace]
        values = [v for _, v in trace]
        assert evaluations == list(range(1, result.iterations + 2))
        assert values == sorted(values)
        assert values[-1] == result.log_likelihood

    def test_smaller_rate_reaches_the_same_optimum_slower(self):
        full = em_fit([K1, K2], POOL_POS)
        half = em_fit([K1, K2], POOL_POS, EmConfig(eta=0.5, max_iterations=500))
        assert half.converged
        assert half.iterations > full.iterations
        assert half.theta == pytest.approx(full.theta, abs=1e-4)

    def test_initial_theta_respected(self):
        cfg = EmConfig(max_iterations=1, initial_theta=(0.9, 0.1))
        trace = []
        em_fit([K1, K2], POOL_POS, cfg, trace=trace)
        assert trace[0] == (1, log_likelihood((0.9, 0.1), [K1, K2], POOL_POS))

    def test_initial_theta_shape_checked(self):
        cfg = EmConfig(initial_theta=(0.5, 0.3, 0.2))
        with pytest.raises(ValueError, match="component count"):
            em_fit([K1, K2], POOL_POS, cfg)

    def test_initial_theta_must_be_a_distribution(self):
        cfg = EmConfig(initial_theta=(0.9, 0.3))
        with pytest.raises(ValueError, match="distribution"):
            em_fit([K1, K2], POOL_POS, cfg)

    def test_uncovered_tokens_rejected(self):
        with pytest.raises(ValueError, match="zero probability"):
            em_fit([K1, K2], ["racket", "outlier"])

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="'a' has non-positive count 0"):
            em_fit([{"a": 1.0}], {"a": 0})

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="'a' has non-positive count -1"):
            em_fit([{"a": 0.5, "b": 0.5}], {"a": -1, "b": 3})

    @given(st.data())
    def test_count_mapping_fits_like_its_tokens(self, data):
        words = sorted(set(K1) | set(K2))
        tokens = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=40))
        eta = data.draw(st.sampled_from([1.0, 0.5]))
        cfg = EmConfig(eta=eta, max_iterations=20)
        from_tokens, from_counts = [], []
        expected = em_fit([K1, K2], tokens, cfg, trace=from_tokens)
        assert em_fit([K1, K2], Counter(tokens), cfg, trace=from_counts) == expected
        assert from_counts == from_tokens

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 0.0},
            {"eta": 1.5},
            {"max_iterations": 0},
            {"tolerance": 0.0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            EmConfig(**kwargs)
