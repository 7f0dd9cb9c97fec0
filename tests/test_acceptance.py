"""Acceptance checks for the toolkit, one test per numbered criterion.

Each criterion gets exactly one test function, so a verbose run prints
one pass/fail line per criterion.  Reference values are hand-checked
oracles for the shared example corpus (frozen here at the stated
tolerances), independent grid searches, or closed-form properties.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from mixcat import (
    BreakEven,
    CurvePoint,
    EmConfig,
    HardClusterModel,
    MixtureModel,
    PRCurve,
    break_even,
    classify_document,
    cluster_frequencies,
    count_pools,
    decide,
    distribute_frequencies,
    doc_log_likelihood,
    ele_distribution,
    em_fit,
    em_step,
    gradient,
    log_likelihood,
    mle_word_distribution,
    parse_corpus,
    rank_clusters,
    soft_clusters,
    sweep,
    train_fmm,
    train_hcm,
    train_wbm,
)
from reference import cluster_vectors, from_member_sets

LN2 = math.log(2.0)

# the running example: two categories, ten c1 tokens, seven c2 tokens
DOC = ("kick", "goal", "goal", "ball")

# exact within-cluster word distributions of the gamma=0.4 clustering
# and the per-side training pools, used by the weight-fitting checks
K1 = {"racket": 4 / 9, "stroke": 1 / 9, "shot": 2 / 9, "ball": 2 / 9}
K2 = {"goal": 0.5, "kick": 0.25, "ball": 0.25}
POOL_POS = ["racket"] * 4 + ["stroke"] + ["shot"] * 2 + ["ball"] * 2 + ["goal"]
POOL_NEG = ["ball"] * 2 + ["goal"] * 3 + ["kick"] * 2


def test_criterion_1_worked_clustering_example(sports_corpus, binary_table):
    """Rank clusters, cluster frequencies, smoothed cluster
    probabilities, hard-cluster log likelihoods, threshold clusters,
    distributed frequencies, and within-cluster word probabilities all
    match the reference worked example."""
    # rank clustering with both cutoffs at 5
    clustering = rank_clusters(binary_table, 5, 5)
    assert [set(c) for c in clustering.clusters] == [
        {"racket", "stroke", "shot"},
        {"kick"},
        {"ball", "goal"},
    ]

    # exact cluster frequencies
    freqs = cluster_frequencies(binary_table, clustering)
    assert freqs == {
        ("c1", 0): 7, ("c1", 1): 0, ("c1", 2): 3,
        ("~c1", 0): 0, ("~c1", 1): 2, ("~c1", 2): 5,
    }

    # smoothed cluster probabilities within +/-0.005 of the reference
    model = train_hcm(sports_corpus, "c1", top_l=5, top_m=5)
    for got, ref in zip(model.positive, (0.65, 0.04, 0.30)):
        assert abs(got - ref) <= 0.005
    for got, ref in zip(model.negative, (0.06, 0.29, 0.65)):
        assert abs(got - ref) <= 0.005

    # base-2 log likelihoods of the example document, scored with the
    # reference probabilities as printed (two decimals), within +/-0.01
    rounded = HardClusterModel(
        "c1", clustering, (0.65, 0.04, 0.30), (0.06, 0.29, 0.65)
    )
    logl_pos, logl_neg, n_eff = doc_log_likelihood(rounded, DOC)
    assert n_eff == 4
    assert abs(logl_pos / LN2 - (-9.85)) <= 0.01
    assert abs(logl_neg / LN2 - (-3.65)) <= 0.01

    # threshold clustering at gamma=0.4
    soft = soft_clusters(binary_table, 0.4)
    assert [set(c) for c in soft.clusters] == [
        {"racket", "stroke", "shot", "ball"},
        {"goal", "kick", "ball"},
    ]

    # distributed frequencies, exact
    distributed = distribute_frequencies(binary_table, soft)
    assert distributed.cluster_words[0] == {
        "racket": Fraction(4), "stroke": Fraction(1),
        "shot": Fraction(2), "ball": Fraction(2),
    }
    assert distributed.cluster_words[1] == {
        "goal": Fraction(4), "kick": Fraction(2), "ball": Fraction(2),
    }

    # within-cluster word probabilities within +/-0.005
    word_refs = [
        {"racket": 0.44, "stroke": 0.11, "shot": 0.22, "ball": 0.22},
        {"goal": 0.50, "kick": 0.25, "ball": 0.25},
    ]
    for j, refs in enumerate(word_refs):
        exact = mle_word_distribution(distributed, j)
        assert set(exact) == set(refs)
        for word, ref in refs.items():
            assert abs(float(exact[word]) - ref) <= 0.005
    print("criterion 1: PASS (worked clustering example reproduced)")


def test_criterion_2_mixture_weight_fitting():
    """The fitting loop reproduces the reference mixture weights within
    +/-0.02 after two updates from uniform, and its fully converged
    weights agree with an independent grid-search oracle within 0.01.

    The reference weights are an early snapshot, not a fixed point: the
    negative pool never uses the first cluster's exclusive words, so
    its maximum-likelihood weight sits on the simplex boundary at
    exactly zero, which the oracle confirms."""
    two_updates = EmConfig(max_iterations=2)
    snap_pos = em_fit([K1, K2], POOL_POS, two_updates).theta
    snap_neg = em_fit([K1, K2], POOL_NEG, two_updates).theta
    for got, ref in zip(snap_pos, (0.86, 0.14)):
        assert abs(got - ref) <= 0.02
    for got, ref in zip(snap_neg, (0.04, 0.96)):
        assert abs(got - ref) <= 0.02

    grid = np.linspace(0.0, 1.0, 1001)
    for pool in (POOL_POS, POOL_NEG):
        fitted = em_fit([K1, K2], pool)
        assert fitted.converged
        # independent oracle: exhaustive search over the first weight
        words = sorted(set(pool))
        counts = np.array([pool.count(w) for w in words], dtype=float)
        p1 = np.array([K1.get(w, 0.0) for w in words])
        p2 = np.array([K2.get(w, 0.0) for w in words])
        mix = np.outer(grid, p1) + np.outer(1.0 - grid, p2)
        with np.errstate(divide="ignore"):
            curve = np.log(mix) @ counts
        best = float(grid[np.argmax(curve)])
        assert abs(fitted.theta[0] - best) <= 0.01
    print("criterion 2: PASS (mixture weights match reference and grid oracle)")


def test_criterion_3_mixture_likelihoods_and_decision(binary_table):
    """Mixture log likelihoods of the example document, computed from
    the reference parameters as printed, match the reference values
    within +/-0.01, and the document lands in the second category."""
    clustering = soft_clusters(binary_table, 0.4)
    rounded_words = (
        {"racket": 0.44, "stroke": 0.11, "shot": 0.22, "ball": 0.22},
        {"goal": 0.50, "kick": 0.25, "ball": 0.25},
    )
    rounded_vectors = cluster_vectors(clustering, rounded_words)
    model = MixtureModel(
        "c1", clustering, rounded_vectors, (0.86, 0.14), (0.04, 0.96)
    )
    logl_pos, logl_neg, n_eff = doc_log_likelihood(model, DOC)
    assert n_eff == 4
    assert abs(logl_pos / LN2 - (-14.67)) <= 0.01
    assert abs(logl_neg / LN2 - (-6.18)) <= 0.01

    # the decision goes to the complement side, i.e. the second
    # category, from either category's viewpoint
    assert classify_document(model, DOC, 0.0).outcome == "negative"
    mirrored = MixtureModel(
        "c2",
        from_member_sets(
            [set(c) for c in clustering.clusters],
            clustering.vocabulary,
            ("c2", "~c2"),
        ),
        rounded_vectors,
        (0.04, 0.96),
        (0.86, 0.14),
    )
    assert classify_document(mirrored, DOC, 0.0).outcome == "positive"
    print("criterion 3: PASS (mixture likelihoods and decision reproduced)")


def test_criterion_4_reduction_equivalences():
    """(a) With hard clusters, mixing category-independent within-
    cluster word distributions under the cluster weights shifts every
    category's document log likelihood by the same constant and leaves
    decisions unchanged.  (b) With one cluster per side carrying that
    side's smoothed word distribution and an indicator weight vector,
    the mixture scores equal the word-model scores."""
    rng = np.random.default_rng(409)

    # (a) hard-cluster equivalence on random corpora
    checked_hard = 0
    for _ in range(130):
        n_cats = int(rng.integers(2, 5))
        n_words = int(rng.integers(4, 31))
        words = [f"w{i}" for i in range(n_words)]
        pools = []
        for c in range(n_cats):
            size = int(rng.integers(3, 40))
            picks = rng.integers(0, n_words, size=size)
            pools.append((f"c{c}", tuple(words[i] for i in picks)))
        table = count_pools(pools)
        clustering = soft_clusters(table, float(rng.uniform(0.5, 0.9)))
        assert clustering.is_hard()
        assigned = sorted(clustering.assignments)
        if not assigned:
            continue
        distributed = distribute_frequencies(table, clustering)
        word_dists = []
        for j in range(clustering.m):
            if clustering.clusters[j]:
                word_dists.append(
                    {w: float(p) for w, p in mle_word_distribution(distributed, j).items()}
                )
            else:
                word_dists.append({})
        freqs = cluster_frequencies(table, clustering)
        thetas = []
        for name in table.categories:
            dist = ele_distribution({j: freqs[name, j] for j in range(clustering.m)})
            thetas.append(tuple(dist[j] for j in range(clustering.m)))
        doc = [str(w) for w in rng.choice(assigned, size=int(rng.integers(2, 12)))]
        mixture_ll = [
            len(doc) * log_likelihood(theta, word_dists, doc) for theta in thetas
        ]
        cluster_ll = [
            sum(math.log(theta[clustering.assignments[t][0]]) for t in doc)
            for theta in thetas
        ]
        offsets = [m - h for m, h in zip(mixture_ll, cluster_ll)]
        assert max(offsets) - min(offsets) < 1e-9
        assert int(np.argmax(mixture_ll)) == int(np.argmax(cluster_ll))
        checked_hard += 1
    assert checked_hard >= 100

    # (b) word-model equivalence on random corpora
    checked_word = 0
    for _ in range(110):
        n_cats = int(rng.integers(2, 5))
        n_words = int(rng.integers(4, 31))
        words = [f"w{i}" for i in range(n_words)]
        lines = []
        for c in range(n_cats):
            for _ in range(int(rng.integers(1, 4))):
                size = int(rng.integers(3, 11))
                picks = rng.integers(0, n_words, size=size)
                lines.append(f"c{c}\t" + " ".join(words[i] for i in picks))
        corpus = parse_corpus(lines)
        category = str(rng.choice(corpus.categories))
        word_model = train_wbm(corpus, category)
        vocab = word_model.vocabulary
        both_sides = from_member_sets(
            [set(vocab), set(vocab)], vocab, (category, "~" + category)
        )
        mixture = MixtureModel(
            category,
            both_sides,
            (word_model.positive, word_model.negative),
            (1.0, 0.0),
            (0.0, 1.0),
        )
        doc = [
            str(w)
            for w in rng.choice(list(vocab) + ["zz-unseen"], size=int(rng.integers(2, 10)))
        ]
        w_pos, w_neg, w_n = doc_log_likelihood(word_model, doc)
        m_pos, m_neg, m_n = doc_log_likelihood(mixture, doc)
        assert w_n == m_n
        if w_n == 0:
            continue
        assert abs(w_pos - m_pos) <= 1e-10
        assert abs(w_neg - m_neg) <= 1e-10
        for epsilon in (0.0, 0.05, 0.3):
            assert (
                classify_document(word_model, doc, epsilon)
                == classify_document(mixture, doc, epsilon)
            )
        checked_word += 1
    assert checked_word >= 100
    print("criterion 4: PASS (both reductions hold on random corpora)")


def test_criterion_5_fitting_loop_properties():
    """Every weight update stays on the probability simplex within
    1e-12, the full-rate loop never lets the likelihood drop by more
    than 1e-12, and the analytic gradient matches central finite
    differences within 1e-4 relative, on random instances."""
    rng = np.random.default_rng(507)
    checked_simplex = checked_monotone = checked_gradient = 0
    for _ in range(110):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 11))
        words = [f"w{i}" for i in range(n)]
        dists = [
            dict(zip(words, rng.dirichlet(np.ones(n)) + 1e-6)) for _ in range(m)
        ]
        counts = rng.integers(1, 6, size=n)
        tokens = [w for w, c in zip(words, counts) for _ in range(int(c))]

        # simplex preservation across several manual steps
        theta = rng.dirichlet(np.full(m, 5.0))
        for _ in range(3):
            theta = em_step(theta, gradient(theta, dists, tokens), float(rng.uniform(0.05, 1.0)))
            assert abs(float(theta.sum()) - 1.0) <= 1e-12
            assert np.all(theta >= 0.0)
        checked_simplex += 1

        # monotone likelihood at full rate
        trace = []
        em_fit(dists, tokens, EmConfig(max_iterations=30), trace=trace)
        values = [v for _, v in trace]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        checked_monotone += 1

        # gradient against central finite differences
        theta = rng.dirichlet(np.full(m, 5.0))
        if float(theta.min()) <= 1e-5:
            continue
        j, k = rng.choice(m, size=2, replace=False)
        h = 1e-6
        step = np.zeros(m)
        step[j], step[k] = h, -h
        numeric = (
            log_likelihood(theta + step, dists, tokens)
            - log_likelihood(theta - step, dists, tokens)
        ) / (2 * h)
        analytic = gradient(theta, dists, tokens)
        assert numeric == pytest.approx(analytic[j] - analytic[k], rel=1e-4)
        checked_gradient += 1
    assert checked_simplex >= 100
    assert checked_monotone >= 100
    assert checked_gradient >= 100
    print("criterion 5: PASS (simplex, monotonicity, gradient checks hold)")


def test_criterion_6_decision_rule_properties():
    """Exhaustively over synthetic scores and thresholds on a shared
    0.05 grid: decisions follow the stated branch order (positive only
    strictly above the threshold, ties to the negative side), and
    raising the threshold only ever moves a document to unclassified,
    never across."""
    scores = [k * 0.05 for k in range(-40, 41)]
    epsilons = [j * 0.05 for j in range(41)]

    def stated_rule(score, epsilon):
        if score > epsilon:
            return "positive"
        if -score >= epsilon:
            return "negative"
        return "unclassified"

    for score in scores:
        outcomes = []
        for epsilon in epsilons:
            decision = decide(score, 0.0, 1, epsilon)
            assert decision.score == score
            assert decision.outcome == stated_rule(score, epsilon)
            outcomes.append(decision.outcome)
        # monotone in epsilon: one block of the initial outcome, then
        # unclassified forever; no positive <-> negative flip
        rejected = False
        for outcome in outcomes:
            if rejected:
                assert outcome == "unclassified"
            elif outcome == "unclassified":
                rejected = True
            else:
                assert outcome == outcomes[0]

    # the boundary cases spelled out: at |score| == epsilon only the
    # negative side still claims
    epsilon = 4 * 0.05
    assert decide(4 * 0.05, 0.0, 1, epsilon).outcome == "unclassified"
    assert decide(-4 * 0.05, 0.0, 1, epsilon).outcome == "negative"
    assert decide(0.0, 0.0, 1, 0.0).outcome == "negative"
    print("criterion 6: PASS (decision rule exhaustively verified)")


def _topic_corpus(rng, n_docs):
    """Synthetic single-label corpus with planted word-topic structure."""
    topics = [f"t{i}" for i in range(4)]
    exclusive = {t: [f"{t}w{i}" for i in range(6)] for t in topics}
    shared = [f"s{i}" for i in range(4)]
    lines = []
    for d in range(n_docs):
        topic = topics[(d // 2) % 4]
        size = int(rng.integers(12, 21))
        tokens = [
            str(rng.choice(exclusive[topic]))
            if rng.random() < 0.8
            else str(rng.choice(shared))
            for _ in range(size)
        ]
        lines.append(f"{topic}\t" + " ".join(tokens))
    return lines


def test_criterion_7_end_to_end_break_even():
    """On a 200-document synthetic corpus with planted word-topic
    structure, the full mixture pipeline reaches a micro-averaged
    break-even of at least 0.95; and the sweep machinery returns
    exactly 0.62 from a curve containing the point (0.62, 0.62)."""
    rng = np.random.default_rng(707)
    lines = _topic_corpus(rng, 200)
    train_corpus = parse_corpus(lines[0::2])
    test_corpus = parse_corpus(lines[1::2])
    assert len(train_corpus) == len(test_corpus) == 100
    models = [
        train_fmm(train_corpus, category, 0.5)
        for category in train_corpus.categories
    ]
    curve = sweep(models, test_corpus)
    result = break_even(curve)
    assert result.value >= 0.95

    hand_curve = PRCurve((
        CurvePoint(0.0, 0.41, 0.93),
        CurvePoint(0.005, 0.62, 0.62),
        CurvePoint(0.01, 0.88, 0.37),
    ))
    assert break_even(hand_curve) == BreakEven(0.62, "exact")
    print(
        f"criterion 7: PASS (synthetic break-even {result.value:.3f} >= 0.95, "
        "hand curve exact)"
    )
