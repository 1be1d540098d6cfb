from __future__ import annotations

import csv
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import as_sequence
from oracles import betweenness_by_enumeration, random_weighted_graph
from sbsflow import network
from sbsflow.keywords import compile_canonical_map
from sbsflow.network import (
    WordGraph,
    build_graph,
    connectivity,
    diversity_all,
    prevalence,
    sbs,
    standardize,
    write_edgelist,
    zscore_params,
)
from sbsflow.stemming import NullStemmer
from sbsflow.textproc import normalize_document, sequence_cooccurrences

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
        assert len(g.neighbors("c")) == 0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            WordGraph({("a", "a"): 1})

    def test_known_sentence_same_neighborhood(self):
        canonical = compile_canonical_map([], NullStemmer(), SMITH_STOPWORDS)
        seq = normalize_document(SMITH_SENTENCE, canonical)
        records = sequence_cooccurrences([seq], 3)
        g = build_graph(records)
        assert {"principle", "love", "system"} <= set(g.neighbors("same"))

    @given(st.integers(min_value=0, max_value=200))
    def test_edges_and_neighbors_sorted_whatever_the_key_order(self, seed):
        # ordered keys over sorted nodes leave nothing to re-sort
        rng = np.random.default_rng(seed)
        n, weights = random_weighted_graph(rng, n_max=12)
        items = list(weights.items())
        shuffled = {items[k][0]: items[k][1] for k in rng.permutation(len(items))}
        g = graph_from_ints(n, shuffled)
        assert g.edges == tuple(sorted(g.edges))
        assert [(i, j) for i, j, _ in g.edges] == sorted(weights)
        for nbrs in g.adj:
            assert list(nbrs) == sorted(nbrs)


class TestPrevalence:
    def test_empty(self):
        assert prevalence([]) == Counter()

    def test_counts_occurrences_not_documents(self):
        assert prevalence([as_sequence(["covid", "covid", "euro"])]) == Counter({"covid": 2, "euro": 1})

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
            docs.append(as_sequence(words))
        assert prevalence(docs)["covid"] == planted


class TestDiversity:
    def test_isolated_node_zero(self):
        g = WordGraph({("a", "b"): 1}, nodes=["c"])
        assert diversity_all(g)["c"] == 0.0

    def test_star_center_and_leaves(self):
        g = WordGraph({("hub", leaf): 1 for leaf in ["l1", "l2", "l3", "l4"]})
        div = diversity_all(g)
        assert div["hub"] == pytest.approx(4 * math.log10(4), abs=1e-12)
        for leaf in ["l1", "l2", "l3", "l4"]:
            assert div[leaf] == pytest.approx(0.0, abs=1e-12)

    def test_triangle_all_zero(self):
        g = WordGraph({("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1})
        assert diversity_all(g) == {"a": 0.0, "b": 0.0, "c": 0.0}

    def test_unknown_node_errors(self):
        g = WordGraph({("a", "b"): 1})
        with pytest.raises(KeyError):
            diversity_all(g)["zz"]

    def test_single_node_graph_zero(self):
        g = WordGraph({}, nodes=["a"])
        assert diversity_all(g) == {"a": 0.0}

    @given(st.integers(min_value=0, max_value=400))
    def test_bounds_and_term_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        n, weights = random_weighted_graph(rng, n_max=8)
        g = graph_from_ints(n, weights)
        for token, d in diversity_all(g).items():
            gi = len(g.neighbors(token))
            assert 0.0 <= d <= gi * math.log10(max(g.n - 1, 1)) + 1e-12
        # every summand log10((n-1)/g_j) is non-negative since 1 <= g_j <= n-1
        for token in g.nodes:
            for nbr in g.neighbors(token):
                assert len(g.neighbors(nbr)) <= g.n - 1

    def test_star_center_attains_upper_bound(self):
        g = WordGraph({("hub", f"l{i}"): 1 for i in range(6)})
        assert diversity_all(g)["hub"] == pytest.approx(
            len(g.neighbors("hub")) * math.log10(g.n - 1), abs=1e-12
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


def assert_equals_heap_loop(graph, fallbacks):
    """``connectivity`` returns the heap loop's floats, having run the heap
    loop ``fallbacks`` times (0 or 1)."""
    spy = mock.patch.object(network, "_connectivity_by_heap", wraps=network._connectivity_by_heap)
    with spy as heap:
        got = connectivity(graph)
    assert heap.call_count == fallbacks
    expected = network._connectivity_by_heap(graph)
    assert list(got) == list(expected)
    assert [repr(v) for v in got.values()] == [repr(v) for v in expected.values()]


@st.composite
def tie_heavy_graphs(draw):
    # weights whose 1/w sums tie exactly in arithmetic and within ulps in floats
    n = draw(st.integers(min_value=2, max_value=22))
    cells = draw(
        st.lists(
            st.sampled_from([0, 0, 0, 1, 2, 3, 4, 6, 12]),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return graph_from_ints(n, {pair: float(w) for pair, w in zip(pairs, cells) if w})


def diamond_chain(weights):
    """Diamonds in series: node 3k reaches 3k+3 through 3k+1 and 3k+2, with
    edge weights ``(w1, w2, w3, w4)`` per diamond."""
    edges = {}
    for k, (w1, w2, w3, w4) in enumerate(weights):
        top, a, b, bottom = (f"n{3 * k + d:03d}" for d in range(4))
        edges.update({(top, a): w1, (a, bottom): w2, (top, b): w3, (b, bottom): w4})
    return WordGraph(edges)


class TestConnectivityFastPath:
    """``connectivity`` returns the heap loop's floats, or runs the heap loop."""

    @given(tie_heavy_graphs())
    def test_equals_heap_loop_on_integer_weights(self, graph):
        assert_equals_heap_loop(graph, fallbacks=0)

    def test_near_tie_takes_the_fallback(self):
        # three routes to node 4 of lengths a < b < c, b within the tie
        # tolerance of a and of c but a and c apart, found in the order c, b,
        # a: the heap records c, adds b as a tie, then resets to a alone
        a = 3.0
        b, c = a * (1 + 0.8 * network.PATH_TIE_RTOL), a * (1 + 1.6 * network.PATH_TIE_RTOL)
        lengths = {(0, 1): 1.0, (0, 2): 1.1, (0, 3): 1.2, (4, 5): 1.0}
        lengths.update({(1, 4): c - 1.0, (2, 4): b - 1.1, (3, 4): a - 1.2})
        assert_equals_heap_loop(
            graph_from_ints(6, {pair: 1.0 / length for pair, length in lengths.items()}),
            fallbacks=1,
        )
        # the same topology with one weight throughout is certified
        assert_equals_heap_loop(graph_from_ints(6, dict.fromkeys(lengths, 1.0)), fallbacks=0)

    def test_recorded_distances_that_do_not_settle_take_the_fallback(self):
        # 1/3 + 1/6 and 1/6 + 1/3 tie within ulps diamond after diamond, and
        # each sweep carries a moved recorded distance only a step down the
        # chain: a short chain settles, a long one runs out of sweeps
        rng = np.random.default_rng(11)
        weights = [tuple(float(x) for x in rng.permutation([3, 6, 6, 3])) for _ in range(30)]
        assert_equals_heap_loop(diamond_chain(weights[:4]), fallbacks=0)
        assert_equals_heap_loop(diamond_chain(weights), fallbacks=1)

    def test_path_counts_past_2_53_take_the_fallback(self):
        # 2**54 shortest paths from one end of the chain to the other
        assert_equals_heap_loop(diamond_chain([(1.0, 1.0, 1.0, 1.0)] * 54), fallbacks=1)

    @pytest.mark.parametrize(
        "edges",
        [
            # 1/w overflows (WordGraph refuses the infinite weight whose 1/w vanishes)
            {("a", "b"): 1e-310, ("b", "c"): 1.0},
            # n1 -> n0 is shorter than an ulp of the distance, so from n2 the
            # heap settles n1 before n0 at the same distance, out of index order
            {("n1", "n2"): 1.0, ("n0", "n1"): 1e17},
        ],
        ids=["subnormal_weight", "sub_ulp_length"],
    )
    def test_lengths_outside_the_certificate_take_the_fallback(self, edges):
        assert_equals_heap_loop(WordGraph(edges), fallbacks=1)

    def test_sources_split_over_blocks(self, monkeypatch):
        rng = np.random.default_rng(3)
        n = 25
        weights = {
            (a, b): float(rng.choice([1, 2, 3, 4, 6, 12]))
            for a in range(n) for b in range(a + 1, n) if rng.random() < 0.2
        }
        graph = graph_from_ints(n, weights)
        per_source = max(len(graph.edges), graph.n)
        monkeypatch.setattr(network, "_BLOCK_ELEMENTS", 3 * per_source)  # 3 sources a block
        spy = mock.patch.object(network, "_block_dependencies", wraps=network._block_dependencies)
        with spy as blocks:
            assert_equals_heap_loop(graph, fallbacks=0)
        assert blocks.call_count == -(-sum(1 for nbrs in graph.adj if nbrs) // 3) > 1


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

    def test_params_do_not_depend_on_how_sum_rounds(self, monkeypatch):
        # Python 3.12's sum() compensates; a compensated sum gives 1/3 here
        monkeypatch.setattr("builtins.sum", math.fsum)
        mu, _ = zscore_params([1e16, 1.0, -1e16])
        assert mu == 0.0

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
            as_sequence(["covid", "mercato", "crisi", "covid"]),
            as_sequence(["mercato", "lavoro", "crisi"]),
            as_sequence(["covid", "lavoro", "mercato", "covid", "crisi"]),
        ]
        prev = prevalence(seqs)
        records = sequence_cooccurrences(seqs, 3)
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

    def test_decomposition_identity_exact(self):
        graph, prev = self._toy_window()
        for s in sbs(graph, prev, list(graph.nodes)):
            assert s.sbs == s.z_prevalence + s.z_diversity + s.z_connectivity

    def test_dominant_keyword_has_strictly_largest_sbs(self):
        # one node strictly dominating every raw dimension dominates the sum
        seqs = [as_sequence(["hub", w, "hub"]) for w in ["a1", "b2", "c3", "d4"]]
        prev = prevalence(seqs)
        records = sequence_cooccurrences(seqs, 3)
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
            seqs.append(as_sequence(words))
        prev = prevalence(seqs)
        records = sequence_cooccurrences(seqs, 3)
        graph = build_graph(records, extra_nodes=prev.keys())
        all_scores = sbs(graph, prev, list(graph.nodes))
        by_kw = {s.keyword: s.sbs for s in all_scores}
        distribution = sorted(by_kw.values())
        q99 = distribution[int(0.99 * (len(distribution) - 1))]
        assert by_kw["planted"] >= q99


def test_write_edgelist(tmp_path):
    g = WordGraph({("a", "b"): 2, ("b", "c"): 1})
    path = tmp_path / "edges.csv"
    write_edgelist(g, path)
    assert path.read_bytes() == b"word_a,word_b,weight\na,b,2.0\nb,c,1.0\n"


def test_write_edgelist_quotes_commas_and_quotes(tmp_path):
    # a token holding a comma or a quote used to give a row of four cells
    g = WordGraph({("a,b", 'c"d'): 2, ('c"d', "e"): 0.1})
    path = tmp_path / "edges.csv"
    write_edgelist(g, path)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["word_a", "word_b", "weight"], ["a,b", 'c"d', "2.0"], ['c"d', "e", "0.1"]]


@pytest.mark.parametrize("build", [WordGraph, build_graph], ids=["WordGraph", "build_graph"])
def test_reversed_pair_key_refused(build):
    # keys are oriented once, by the co-occurrence counter; a reversed key is a caller bug
    with pytest.raises(ValueError, match=r"\('b', 'a'\)"):
        build({("a", "c"): 1, ("b", "a"): 1})


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_weight_that_is_not_finite_and_positive_refused(weight):
    # a NaN weight used to build and score as a plausible {a: 0, b: 1, c: 0}
    with pytest.raises(ValueError, match=r"\('a', 'b'\); expected a finite positive number"):
        WordGraph({("a", "b"): weight, ("b", "c"): 1.0})
