"""Per-window word graph and the composite keyword-importance score.

A window's co-occurrence counts become an undirected weighted graph; each
keyword is scored on three dimensions over that graph:

* prevalence — raw occurrence count of the canonical token;
* diversity — sum over neighbors j of log10((n-1)/g_j), which rewards
  links to rarely-connected words (isolated nodes score 0);
* connectivity — unnormalized weighted betweenness: the fraction of
  shortest paths between other node pairs passing through the node,
  summed over pairs, with edge length 1/weight so frequent co-occurrence
  means proximity. It is computed with numpy over all sources of a window
  and certified to return exactly the floats of Brandes' heap loop, which
  it falls back to when the certificate fails.

Each dimension is z-scored against all words of the window, and the
composite score is the sum of the three z-scores.
"""
from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

__all__ = [
    "WordGraph",
    "SbsScore",
    "build_graph",
    "prevalence",
    "diversity",
    "diversity_all",
    "connectivity",
    "standardize",
    "zscore_params",
    "sbs",
    "write_edgelist",
]

# relative tolerance for classifying co-shortest paths; 1/w arithmetic
# creates exact ties only up to rounding
PATH_TIE_RTOL = 1e-12
# most (source x edge) elements one block of betweenness sources works on
_BLOCK_ELEMENTS = 1 << 18
# settle-order sweeps before a window gives up and runs the heap loop
_MAX_SWEEPS = 8
# float path counts are exact integers only below this
_EXACT_COUNT = 2.0**53


class WordGraph:
    """Immutable undirected weighted graph over canonical tokens.

    Nodes are held in sorted order so every traversal is deterministic.
    Edge keys must be ordered pairs ``(a, b)`` with ``a < b``; with sorted
    nodes this makes ``edges`` and every neighbor list come out sorted.
    Isolated nodes (tokens that occur but never co-occur) are allowed.
    """

    def __init__(
        self,
        edges: Mapping[tuple[str, str], float],
        nodes: Iterable[str] = (),
        window_index: int = 0,
    ):
        names = set(nodes)
        for (a, b), w in edges.items():
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            if a > b:
                raise ValueError(f"unordered edge key ({a!r}, {b!r}); expected a < b")
            if not 0 < w < math.inf:  # also refuses NaN
                raise ValueError(f"weight {w!r} on ({a!r}, {b!r}); expected a finite positive number")
            names.add(a)
            names.add(b)
        self.window_index = window_index
        self.nodes: tuple[str, ...] = tuple(sorted(names))
        self.index: dict[str, int] = {t: i for i, t in enumerate(self.nodes)}
        adj: list[list[tuple[int, float]]] = [[] for _ in self.nodes]
        edge_list = []
        for (a, b), w in sorted(edges.items()):
            i, j = self.index[a], self.index[b]
            adj[i].append((j, float(w)))
            adj[j].append((i, float(w)))
            edge_list.append((i, j, float(w)))
        self.adj: tuple[tuple[tuple[int, float], ...], ...] = tuple(map(tuple, adj))
        self.edges: tuple[tuple[int, int, float], ...] = tuple(edge_list)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def degree(self, token: str) -> int:
        """Distinct-neighbor count of a node."""
        return len(self.adj[self.index[token]])

    def neighbors(self, token: str) -> list[str]:
        return [self.nodes[j] for j, _ in self.adj[self.index[token]]]

    def edge_items(self) -> list[tuple[str, str, float]]:
        return [(self.nodes[i], self.nodes[j], w) for i, j, w in self.edges]


def build_graph(
    records: Mapping[tuple[str, str], float],
    min_edge_weight: int = 1,
    extra_nodes: Iterable[str] = (),
    window_index: int = 0,
) -> WordGraph:
    """Build a window graph, dropping edges below ``min_edge_weight``.

    ``records`` are pair counts keyed ``(a, b)`` with ``a < b``, as
    ``textproc.sequence_cooccurrences`` emits them; a reversed key is
    refused. ``extra_nodes`` carries tokens with nonzero prevalence so they
    survive as isolated nodes even when all their edges are pruned.
    """
    kept = {k: w for k, w in records.items() if w >= min_edge_weight}
    return WordGraph(kept, nodes=extra_nodes, window_index=window_index)


def prevalence(sequences) -> Counter:
    """Token occurrence counts (not document counts) over normalized sequences."""
    counts: Counter = Counter()
    for seq in sequences:
        tokens = seq.tokens if hasattr(seq, "tokens") else seq
        counts.update(tokens)
    return counts


def diversity(graph: WordGraph, token: str) -> float:
    """Distinctiveness centrality of one node; see ``diversity_all``."""
    if token not in graph.index:
        raise KeyError(f"node {token!r} not in graph")
    return diversity_all(graph)[token]


def diversity_all(graph: WordGraph) -> dict[str, float]:
    """Distinctiveness centrality: sum over neighbors j of log10((n-1)/g_j)."""
    n = graph.n
    # an isolated node is nobody's neighbor, so its term is never read
    term = [math.log10((n - 1) / len(nbrs)) if nbrs else 0.0 for nbrs in graph.adj]
    out = {}
    for token, nbrs in zip(graph.nodes, graph.adj):
        # summed left to right in adj order (not sum(), which compensates on
        # Python >= 3.12), so the floats never depend on the interpreter
        total = 0.0
        for j, _ in nbrs:
            total += term[j]
        out[token] = total
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= PATH_TIE_RTOL * max(abs(a), abs(b))


def connectivity(graph: WordGraph) -> dict[str, float]:
    """Weighted betweenness of every node via Brandes' accumulation.

    For each node i, the sum over connected pairs j < k (both != i) of the
    fraction of shortest paths between j and k that pass through i. All
    co-shortest paths count through path multiplicities; ties are
    classified with a relative tolerance, never broken arbitrarily.

    The values are exactly those of ``_connectivity_by_heap``, computed with
    numpy over blocks of sources. Each block's recorded distances are
    certified to be the heap loop's (see ``_block_dependencies``); a window
    whose certificate fails runs the heap loop instead.
    """
    n = graph.n
    score = np.zeros(n)
    if graph.edges:
        i, j, w = (np.array(c) for c in zip(*graph.edges))
        with np.errstate(over="ignore"):  # 1/w of a subnormal weight is inf
            length = 1.0 / w
        if not np.all(np.isfinite(length)):
            return _connectivity_by_heap(graph)
        matrix = csr_matrix(
            (np.concatenate((length, length)), (np.concatenate((i, j)), np.concatenate((j, i)))),
            shape=(n, n),
        )
        # an isolated source adds nothing to any score
        sources = np.flatnonzero(np.diff(matrix.indptr))
        per_block = max(1, _BLOCK_ELEMENTS // max(len(length), n))
        for first in range(0, len(sources), per_block):
            block = sources[first : first + per_block]
            delta = _block_dependencies(matrix, block, i, j, length)
            if delta is None:
                return _connectivity_by_heap(graph)
            # one source at a time, in index order, as the heap loop adds them
            for row in delta:
                score += row
    return dict(zip(graph.nodes, (score / 2.0).tolist()))


def _block_dependencies(matrix, sources, i, j, length):
    """Brandes dependencies ``delta[b, v]`` of each source ``sources[b]``,
    its own entry zeroed, or None when the heap's order is not certified.

    The heap loop settles nodes in ``(d, v)`` order, where d is the distance
    it recorded: the candidate ``d_pred + 1/w`` at which it last reset the
    node. Starting from csgraph's distances, each sweep takes the settle
    order of the current distances R, finds every node's tight candidates
    (``_close`` to R[u], from neighbours settled earlier) and sets R[u] to
    its first-settled tight candidate, until R repeats bitwise. A
    repeated R is the heap's when no candidate that is not tight lies below
    R[u]: the heap then resets every node at its first tight candidate, adds
    each later tight one as a tie and ignores the rest, so it records the
    same R, settles in the same order and keeps the same predecessors.
    Path counts are integers, exact in any order below 2**53. Dependencies
    are accumulated one settle rank at a time, so each ``(source, v)``
    receives its terms in the heap's reversed settle order.
    """
    n = matrix.shape[0]
    b = len(sources)
    rows = np.arange(b)
    row_base = (rows * n)[:, None]
    at_source = rows * n + sources
    sources_only = np.full(b * n, np.inf)  # flat (source, node) distances, sources set
    sources_only[at_source] = 0.0
    dist = dijkstra(matrix, directed=True, indices=sources)
    reached = np.isfinite(dist)
    for _ in range(_MAX_SWEEPS):
        rank = np.empty((b, n), dtype=np.intp)
        rank[rows[:, None], np.argsort(dist, axis=1, kind="stable")] = np.arange(n)
        rank[~reached] = n  # never settled
        # finite, so no inf - inf; an edge between unreached nodes is never tight
        d = np.where(reached, dist, 0.0)
        # each edge seen from the endpoint settled first (pred) to the other (node)
        rank_i, rank_j = rank[:, i], rank[:, j]
        i_first = rank_i < rank_j
        d_i, d_j = d[:, i], d[:, j]
        d_node = np.where(i_first, d_j, d_i)
        cand = np.where(i_first, d_i, d_j) + length
        tight = np.abs(cand - d_node) <= PATH_TIE_RTOL * np.maximum(np.abs(cand), np.abs(d_node))
        at = np.flatnonzero(tight)
        pred = (row_base + np.where(i_first, i, j)).ravel()[at]
        node = (row_base + np.where(i_first, j, i)).ravel()[at]
        pred_rank = np.minimum(rank_i, rank_j).ravel()[at]
        node_rank = np.maximum(rank_i, rank_j).ravel()[at]
        first = np.full(b * n, n)
        np.minimum.at(first, node, pred_rank)
        chosen = pred_rank == first[node]
        recorded = sources_only.copy()
        recorded[node[chosen]] = cand.ravel()[at[chosen]]
        recorded = recorded.reshape(b, n)
        if np.isinf(recorded[reached]).any():
            return None  # a reached node without a tight predecessor
        if np.array_equal(recorded, dist):
            break
        dist = recorded
    else:
        return None
    if (~tight & (cand < d_node)).any():
        return None  # the heap would have reset that node below R
    order, bounds = _by_rank(node_rank, n)
    pred, node = pred[order], node[order]
    groups = [(lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:]) if lo < hi]
    sigma = np.zeros(b * n)
    sigma[at_source] = 1.0
    for lo, hi in groups:
        np.add.at(sigma, node[lo:hi], sigma[pred[lo:hi]])
    if sigma.max() >= _EXACT_COUNT:
        return None
    delta = np.zeros(b * n)
    for lo, hi in reversed(groups):
        v, u = pred[lo:hi], node[lo:hi]
        delta[v] += sigma[v] / sigma[u] * (1.0 + delta[u])
    delta = delta.reshape(b, n)
    delta[rows, sources] = 0.0
    return delta


def _by_rank(ranks, n):
    """Stable order of ``ranks`` (each < n) and the bounds of each rank's run."""
    # the smallest unsigned type holding n, which numpy sorts stably by radix
    order = np.argsort(ranks.astype(np.min_scalar_type(n)), kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(ranks, minlength=n))))
    return order, bounds


def _connectivity_by_heap(graph: WordGraph) -> dict[str, float]:
    """Brandes' algorithm with a binary heap, one source at a time.

    The reference ``connectivity`` must equal float for float, and its
    fallback when a window's settle order cannot be certified. Sources are
    processed in node-index order so results are deterministic.
    """
    n = graph.n
    score = [0.0] * n
    lengths = [tuple((j, 1.0 / w) for j, w in nbrs) for nbrs in graph.adj]
    for s in range(n):
        dist = [math.inf] * n
        sigma = [0.0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        settled = [False] * n
        order: list[int] = []
        dist[s] = 0.0
        sigma[s] = 1.0
        heap: list[tuple[float, int]] = [(0.0, s)]
        while heap:
            d, v = heapq.heappop(heap)
            if settled[v]:
                continue
            settled[v] = True
            order.append(v)
            for u, length in lengths[v]:
                if settled[u]:
                    continue
                nd = d + length
                if dist[u] == math.inf or (nd < dist[u] and not _close(nd, dist[u])):
                    dist[u] = nd
                    sigma[u] = sigma[v]
                    preds[u] = [v]
                    heapq.heappush(heap, (nd, u))
                elif _close(nd, dist[u]):
                    sigma[u] += sigma[v]
                    preds[u].append(v)
        delta = [0.0] * n
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                score[w] += delta[w]
    # each unordered pair was accumulated from both endpoints
    return {graph.nodes[i]: score[i] / 2.0 for i in range(n)}


def zscore_params(values: Iterable[float]) -> tuple[float, float]:
    """Population mean and standard deviation; sigma 0 when all values equal."""
    vals = list(values)
    if not vals:
        return 0.0, 0.0
    if max(vals) == min(vals):
        return float(vals[0]), 0.0
    mu = sum(vals) / len(vals)
    var = sum((v - mu) ** 2 for v in vals) / len(vals)
    return mu, math.sqrt(var)


def _z(x: float, mu: float, sigma: float) -> float:
    return 0.0 if sigma == 0.0 else (x - mu) / sigma


def standardize(values: Mapping[str, float]) -> dict[str, float]:
    """z = (x - mu) / sigma over all entries; all zeros when sigma is 0."""
    mu, sigma = zscore_params(values.values())
    return {k: _z(v, mu, sigma) for k, v in values.items()}


@dataclass(frozen=True)
class SbsScore:
    """Per-keyword, per-window score decomposition; sbs is the exact z-sum."""

    keyword: str
    prevalence_raw: float
    diversity_raw: float
    connectivity_raw: float
    z_prevalence: float
    z_diversity: float
    z_connectivity: float
    sbs: float


def sbs(
    graph: WordGraph,
    prevalence_map: Mapping[str, float],
    keywords: list[str],
) -> list[SbsScore]:
    """Score keywords against the window's full node distribution.

    A keyword absent from the graph gets raw zeros, standardized against
    the same window distribution as every present word.
    """
    prev_vals = {t: float(prevalence_map.get(t, 0.0)) for t in graph.nodes}
    div_vals = diversity_all(graph)
    conn_vals = connectivity(graph)
    p_params = zscore_params(prev_vals.values())
    d_params = zscore_params(div_vals.values())
    c_params = zscore_params(conn_vals.values())
    scores = []
    for kw in keywords:
        p_raw = prev_vals.get(kw, float(prevalence_map.get(kw, 0.0)))
        d_raw = div_vals.get(kw, 0.0)
        c_raw = conn_vals.get(kw, 0.0)
        zp, zd, zc = _z(p_raw, *p_params), _z(d_raw, *d_params), _z(c_raw, *c_params)
        scores.append(
            SbsScore(
                keyword=kw,
                prevalence_raw=p_raw,
                diversity_raw=d_raw,
                connectivity_raw=c_raw,
                z_prevalence=zp,
                z_diversity=zd,
                z_connectivity=zc,
                sbs=zp + zd + zc,
            )
        )
    return scores


def write_edgelist(graph: WordGraph, path) -> None:
    """Dump ``word_a,word_b,weight`` rows for external plotting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("word_a,word_b,weight\n")
        for a, b, w in graph.edge_items():
            fh.write(f"{a},{b},{w!r}\n")
