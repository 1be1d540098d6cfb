from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import betweenness_by_enumeration, random_weighted_graph
from sbsflow.network import (
    WordGraph,
    build_graph,
    connectivity,
    diversity,
    prevalence,
    sbs,
    standardize,
    write_edgelist,
    zscore_params,
)
from sbsflow.stemming import NullStemmer
from sbsflow.textproc import TextConfig, normalize_document, sequence_cooccurrences

SMITH_SENTENCE = (
    "The same principle, the same love of system, the same regard to the "
    "beauty of order, of art and contrivance, frequently serves to recommend "
    "those institutions which tend to promote the public welfare."
)
SMITH_STOPWORDS = frozenset(
    {"the", "of", "to", "and", "which", "those"}
)


def graph_from_ints(n, weights, window_index=0):
    edges = {(f"n{i:02d}", f"n{j:02d}"): w for (i, j), w in weights.items()}
    nodes = [f"n{i:02d}" for i in range(n)]
    return WordGraph(edges, nodes=nodes, window_index=window_index)


class TestBuildGraph:
    def test_empty(self):
        g = build_graph({})
        assert g.n == 0
        assert g.edges == ()

    def test_threshold_drops_weak_edges_keeps_prevalent_node(self):
        g = build_graph({("a", "b"): 3, ("b", "c"): 1}, min_edge_weight=2, extra_nodes=["c"])
        assert g.edge_items() == [("a", "b", 3.0)]
        assert set(g.nodes) == {"a", "b", "c"}
        assert g.degree("c") == 0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            WordGraph({("a", "a"): 1})

    def test_known_sentence_same_neighborhood(self):
        cfg = TextConfig(
            language="none", stopwords=SMITH_STOPWORDS, stemmer=NullStemmer(), window_size=3
        )
        seq = normalize_document("smith", SMITH_SENTENCE, cfg)
        records = sequence_cooccurrences(seq, 3)
        g = build_graph(records)
        assert {"principle", "love", "system"} <= set(g.neighbors("same"))


class TestPrevalence:
    def test_empty(self):
        assert prevalence([]) == Counter()

    def test_counts_occurrences_not_documents(self):
        assert prevalence([["covid", "covid", "euro"]]) == Counter({"covid": 2, "euro": 1})

    def test_planted_count_recovered(self, rng):
        # generator records the ground truth it plants
        planted = 0
        docs = []
        for _ in range(1000):
            n = int(rng.integers(3, 9))
            words = list(rng.choice(["uno", "due", "tre", "quattro"], size=n))
            k = int(rng.integers(0, 3))
            planted += k
            for _ in range(k):
                words.insert(int(rng.integers(0, len(words) + 1)), "covid")
            docs.append(words)
        assert prevalence(docs)["covid"] == planted


class TestDiversity:
    def test_isolated_node_zero(self):
        g = WordGraph({("a", "b"): 1}, nodes=["c"])
        assert diversity(g, "c") == 0.0

    def test_star_center_and_leaves(self):
        g = WordGraph({("hub", leaf): 1 for leaf in ["l1", "l2", "l3", "l4"]})
        assert diversity(g, "hub") == pytest.approx(4 * math.log10(4), abs=1e-12)
        for leaf in ["l1", "l2", "l3", "l4"]:
            assert diversity(g, leaf) == pytest.approx(0.0, abs=1e-12)

    def test_triangle_all_zero(self):
        g = WordGraph({("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1})
        for node in "abc":
            assert diversity(g, node) == 0.0

    def test_unknown_node_errors(self):
        g = WordGraph({("a", "b"): 1})
        with pytest.raises(KeyError):
            diversity(g, "zz")

    def test_single_node_graph_zero(self):
        g = WordGraph({}, nodes=["a"])
        assert diversity(g, "a") == 0.0

    @given(st.integers(min_value=0, max_value=400))
    def test_bounds_and_term_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        n, weights = random_weighted_graph(rng, n_max=8)
        g = graph_from_ints(n, weights)
        for token in g.nodes:
            d = diversity(g, token)
            gi = g.degree(token)
            assert 0.0 <= d <= gi * math.log10(max(g.n - 1, 1)) + 1e-12
        # every summand log10((n-1)/g_j) is non-negative since 1 <= g_j <= n-1
        for token in g.nodes:
            for nbr in g.neighbors(token):
                assert g.degree(nbr) <= g.n - 1

    def test_star_center_attains_upper_bound(self):
        g = WordGraph({("hub", f"l{i}"): 1 for i in range(6)})
        assert diversity(g, "hub") == pytest.approx(
            g.degree("hub") * math.log10(g.n - 1), abs=1e-12
        )


class TestConnectivity:
    def test_path_graph(self):
        g = WordGraph({("a", "b"): 1, ("b", "c"): 1})
        conn = connectivity(g)
        assert conn == {"a": 0.0, "b": 1.0, "c": 0.0}

    def test_weighted_cycle_example(self):
        g = WordGraph({("a", "b"): 1, ("b", "c"): 1, ("a", "d"): 4, ("c", "d"): 4})
        conn = connectivity(g)
        assert conn["d"] == pytest.approx(1.0, abs=1e-12)
        assert conn["a"] == pytest.approx(0.5, abs=1e-12)
        assert conn["c"] == pytest.approx(0.5, abs=1e-12)
        assert conn["b"] == pytest.approx(0.0, abs=1e-12)
        # lengths are 1/w: the heavy a-c link (1/3) beats a-b-c (2), so b brokers
        # nothing; with lengths w, a-b-c (2) would beat a-c (3)
        tri = connectivity(WordGraph({("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 3}))
        assert tri["b"] == 0.0

    def test_disconnected_pairs_contribute_zero(self):
        g = WordGraph({("a", "b"): 1, ("c", "d"): 1})
        conn = connectivity(g)
        assert all(v == 0.0 for v in conn.values())

    @given(st.integers(min_value=0, max_value=60))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, weights = random_weighted_graph(rng)
        g = graph_from_ints(n, weights)
        got = connectivity(g)
        expected, _ = betweenness_by_enumeration(n, weights)
        for i in range(n):
            assert got[f"n{i:02d}"] == pytest.approx(expected[i], abs=1e-9)

    @given(st.integers(min_value=0, max_value=40))
    def test_pair_contribution_conservation(self, seed):
        rng = np.random.default_rng(seed)
        n, weights = random_weighted_graph(rng, n_max=7)
        _, pairs = betweenness_by_enumeration(n, weights)
        for (j, k), (count, interior, mean_interior) in pairs.items():
            total = sum(through / count for through in interior.values())
            assert total == pytest.approx(mean_interior, abs=1e-9)

    @given(
        st.integers(min_value=0, max_value=40),
        st.sampled_from([0.5, 2.0, 3.0, 10.0]),
    )
    def test_weight_scaling_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        n, weights = random_weighted_graph(rng, n_max=8)
        g1 = graph_from_ints(n, weights)
        g2 = graph_from_ints(n, {k: w * scale for k, w in weights.items()})
        c1, c2 = connectivity(g1), connectivity(g2)
        for node in c1:
            assert c1[node] == pytest.approx(c2[node], abs=1e-9)


class TestStandardize:
    def test_three_point_example(self):
        z = standardize({"a": 1.0, "b": 2.0, "c": 3.0})
        assert z["a"] == pytest.approx(-1.224744871, abs=1e-6)
        assert z["b"] == pytest.approx(0.0, abs=1e-12)
        assert z["c"] == pytest.approx(1.224744871, abs=1e-6)

    def test_all_equal_gives_zeros(self):
        assert standardize({"a": 0.1, "b": 0.1, "c": 0.1}) == {"a": 0.0, "b": 0.0, "c": 0.0}

    def test_empty(self):
        assert standardize({}) == {}

    @given(
        st.dictionaries(
            st.text("abcdef", min_size=1, max_size=3),
            st.floats(min_value=-1e6, max_value=1e6),
            min_size=1,
            max_size=30,
        )
    )
    def test_mean_zero_when_sigma_positive(self, values):
        z = standardize(values)
        _, sigma = zscore_params(values.values())
        if sigma > 0:
            assert abs(sum(z.values()) / len(z)) < 1e-9
        else:
            assert all(v == 0.0 for v in z.values())


class TestSbs:
    def _toy_window(self):
        seqs = [
            ["covid", "mercato", "crisi", "covid"],
            ["mercato", "lavoro", "crisi"],
            ["covid", "lavoro", "mercato", "covid", "crisi"],
        ]
        prev = prevalence(seqs)
        records = Counter()
        from sbsflow.textproc import extract_cooccurrences

        for s in seqs:
            records.update(extract_cooccurrences(s, 3))
        graph = build_graph(records, extra_nodes=prev.keys(), window_index=7)
        return graph, prev

    def test_absent_keyword_raw_zero_standardized_against_window(self):
        graph, prev = self._toy_window()
        scores = sbs(graph, prev, ["ghost"])
        s = scores[0]
        assert (s.prevalence_raw, s.diversity_raw, s.connectivity_raw) == (0.0, 0.0, 0.0)
        mu, sigma = zscore_params(
            [float(prev.get(t, 0)) for t in graph.nodes]
        )
        assert s.z_prevalence == pytest.approx((0.0 - mu) / sigma)
        assert s.window == 7

    def test_decomposition_identity_exact(self):
        graph, prev = self._toy_window()
        for s in sbs(graph, prev, list(graph.nodes)):
            assert s.sbs == s.z_prevalence + s.z_diversity + s.z_connectivity

    def test_dominant_keyword_has_strictly_largest_sbs(self):
        # one node strictly dominating every raw dimension dominates the sum
        seqs = [["hub", w, "hub"] for w in ["a1", "b2", "c3", "d4"]]
        prev = prevalence(seqs)
        records = Counter()
        from sbsflow.textproc import extract_cooccurrences

        for s in seqs:
            records.update(extract_cooccurrences(s, 3))
        graph = build_graph(records, extra_nodes=prev.keys())
        scores = {s.keyword: s for s in sbs(graph, prev, list(graph.nodes))}
        hub = scores["hub"]
        for kw, s in scores.items():
            if kw == "hub":
                continue
            assert hub.prevalence_raw > s.prevalence_raw
            assert hub.diversity_raw > s.diversity_raw
            assert hub.sbs > s.sbs

    def test_planted_keyword_above_99th_percentile(self, rng):
        # plant one keyword into every document of a synthetic window
        vocab = [f"w{i:02d}" for i in range(40)]
        seqs = []
        for _ in range(120):
            words = list(rng.choice(vocab, size=int(rng.integers(5, 12))))
            words.insert(int(rng.integers(0, len(words))), "planted")
            seqs.append(words)
        prev = prevalence(seqs)
        from sbsflow.textproc import extract_cooccurrences

        records = Counter()
        for s in seqs:
            records.update(extract_cooccurrences(s, 3))
        graph = build_graph(records, extra_nodes=prev.keys())
        all_scores = sbs(graph, prev, list(graph.nodes))
        by_kw = {s.keyword: s.sbs for s in all_scores}
        distribution = sorted(by_kw.values())
        q99 = distribution[int(0.99 * (len(distribution) - 1))]
        assert by_kw["planted"] >= q99


def test_write_edgelist(tmp_path):
    g = WordGraph({("b", "a"): 2, ("b", "c"): 1})
    path = tmp_path / "edges.csv"
    write_edgelist(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "word_a,word_b,weight"
    assert lines[1] == "a,b,2.0"


def test_build_graph_thresholds_after_orientation_merge():
    # aggregated weight decides survival, whatever key orientation callers use
    g = build_graph({("b", "a"): 1, ("a", "b"): 1}, min_edge_weight=2)
    assert g.edge_items() == [("a", "b", 2.0)]
