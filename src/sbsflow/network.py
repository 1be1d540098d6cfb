"""Per-window word graph and the composite keyword-importance score.

A window's co-occurrence counts become an undirected weighted graph; each
keyword is scored on three dimensions over that graph:

* prevalence — raw occurrence count of the canonical token;
* diversity — sum over neighbors j of log10((n-1)/g_j), which rewards
  links to rarely-connected words (isolated nodes score 0);
* connectivity — unnormalized weighted betweenness: the fraction of
  shortest paths between other node pairs passing through the node,
  summed over pairs, with edge length 1/weight so frequent co-occurrence
  means proximity.

Each dimension is z-scored against all words of the window, and the
composite score is the sum of the three z-scores.
"""
from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

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


class WordGraph:
    """Immutable undirected weighted graph over canonical tokens.

    Nodes are held in sorted order so every traversal is deterministic.
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
            if w <= 0:
                raise ValueError(f"non-positive weight on ({a!r}, {b!r})")
            names.add(a)
            names.add(b)
        self.window_index = window_index
        self.nodes: tuple[str, ...] = tuple(sorted(names))
        self.index: dict[str, int] = {t: i for i, t in enumerate(self.nodes)}
        adj: list[list[tuple[int, float]]] = [[] for _ in self.nodes]
        edge_list = []
        for (a, b), w in sorted(edges.items()):
            i, j = self.index[a], self.index[b]
            if i > j:
                i, j = j, i
            adj[i].append((j, float(w)))
            adj[j].append((i, float(w)))
            edge_list.append((i, j, float(w)))
        self.adj: tuple[tuple[tuple[int, float], ...], ...] = tuple(
            tuple(sorted(nbrs)) for nbrs in adj
        )
        self.edges: tuple[tuple[int, int, float], ...] = tuple(sorted(edge_list))

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

    ``extra_nodes`` carries tokens with nonzero prevalence so they survive
    as isolated nodes even when all their edges are pruned.
    """
    merged: dict[tuple[str, str], float] = {}
    for (a, b), w in records.items():
        key = (a, b) if a < b else (b, a)
        merged[key] = merged.get(key, 0.0) + float(w)
    kept = {k: w for k, w in merged.items() if w >= min_edge_weight}
    return WordGraph(kept, nodes=extra_nodes, window_index=window_index)


def prevalence(sequences) -> Counter:
    """Token occurrence counts (not document counts) over normalized sequences."""
    counts: Counter = Counter()
    for seq in sequences:
        tokens = seq.tokens if hasattr(seq, "tokens") else seq
        counts.update(tokens)
    return counts


def diversity(graph: WordGraph, token: str) -> float:
    """Distinctiveness centrality: sum over neighbors j of log10((n-1)/g_j)."""
    if token not in graph.index:
        raise KeyError(f"node {token!r} not in graph")
    n = graph.n
    if n < 2:
        return 0.0
    total = 0.0
    for j, _ in graph.adj[graph.index[token]]:
        total += math.log10((n - 1) / len(graph.adj[j]))
    return total


def diversity_all(graph: WordGraph) -> dict[str, float]:
    return {t: diversity(graph, t) for t in graph.nodes}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= PATH_TIE_RTOL * max(abs(a), abs(b))


def connectivity(graph: WordGraph) -> dict[str, float]:
    """Weighted betweenness of every node via Brandes' accumulation.

    For each node i, the sum over connected pairs j < k (both != i) of the
    fraction of shortest paths between j and k that pass through i. All
    co-shortest paths count through path multiplicities; ties are
    classified with a relative tolerance, never broken arbitrarily.
    Sources are processed in node-index order so results are deterministic.
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
    window: int
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
                window=graph.window_index,
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
