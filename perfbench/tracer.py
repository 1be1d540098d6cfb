"""Outside-in tracing of one in-process pipeline run.

The tracer replaces public sbsflow functions at every name where they are
looked up (any ``sbsflow.*`` module attribute bound to the function), runs
``run_pipeline`` unchanged, and restores the originals. Coarse calls become
spans (name, start, end, parent) kept in memory; fine-grained calls
(``ols_fit``, ``Stemmer.stem``) are only counted, because a span per call
would cost more than the work it measures.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

from sbsflow import causality, corpus, keywords, network, series, stemming, textproc

# (span name, defining module, function name)
SPANNED = [
    ("corpus.load_corpus", corpus, "load_corpus"),
    ("corpus.assign_windows", corpus, "assign_windows"),
    ("keywords.parse_registry", keywords, "parse_registry"),
    ("keywords.compile_canonical_map", keywords, "compile_canonical_map"),
    ("textproc.normalize_document", textproc, "normalize_document"),
    ("textproc.sequence_cooccurrences", textproc, "sequence_cooccurrences"),
    ("textproc.merge_cooccurrences", textproc, "merge_cooccurrences"),
    ("network.prevalence", network, "prevalence"),
    ("network.build_graph", network, "build_graph"),
    ("network.sbs", network, "sbs"),
    ("network.diversity_all", network, "diversity_all"),
    ("network.connectivity", network, "connectivity"),
    ("series.load_monthly", series, "load_monthly"),
    ("series.disaggregate", series, "disaggregate"),
    ("causality.run_battery", causality, "run_battery"),
    ("causality.select_lag_bic", causality, "select_lag_bic"),
    ("causality.granger_test", causality, "granger_test"),
    ("causality.cross_correlation_sign", causality, "cross_correlation_sign"),
]
GENERATORS = {"corpus.load_corpus"}

# manifest stages that read or write artifacts; no traced function runs in them
IO_STAGES = ("read_scores", "write_scores", "write_tables")
MIN_COVERAGE = 0.90


class Tracer:
    """Spans and counters of one traced run; install() ... uninstall()."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.stemmed: set[str] = set()
        self.graphs: list[tuple[int, int, int, int, int]] = []  # window, docs, tokens, nodes, edges
        self.conn_seconds: dict[int, float] = {}
        self.battery: list = []
        self._pending_docs = 0
        self._pending_tokens = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._observe(name, args, result, idx)
            return result

        return wrapper

    def _spanned_generator(self, name: str, fn):
        # a lazy generator does its work while it is iterated: the span runs
        # from the first item requested to exhaustion
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            self._stack.pop()
            try:
                for item in fn(*args, **kwargs):
                    self.counts[name] += 1
                    yield item
            finally:
                self.spans[idx][2] = time.perf_counter()

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_stem(self, fn):
        counts, stemmed = self.counts, self.stemmed

        def stem(self_, word):
            counts["stemming.stem"] += 1
            stemmed.add(word)
            return fn(self_, word)

        return stem

    def _observe(self, name, args, result, idx) -> None:
        if name == "textproc.normalize_document":
            tokens = sum(map(len, result.sentences))
            self.counts["textproc.tokens"] += tokens
            self._pending_docs += 1
            self._pending_tokens += tokens
        elif name == "network.build_graph":
            # windows are scored one after another in a workers=1 run, so the
            # documents normalized since the last graph belong to this one
            self.graphs.append(
                (result.window_index, self._pending_docs, self._pending_tokens,
                 result.n, len(result.edges))
            )
            self._pending_docs = self._pending_tokens = 0
        elif name == "network.connectivity":
            span = self.spans[idx]
            self.conn_seconds[args[0].window_index] = span[2] - span[1]
        elif name == "causality.run_battery":
            self.battery = result

    # -- patching ---------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sbsflow" or mod_name.startswith("sbsflow.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        for name, module, fn_name in SPANNED:
            original = getattr(module, fn_name)
            make = self._spanned_generator if name in GENERATORS else self._spanned
            self._replace_everywhere(original, make(name, original))
        self._replace_everywhere(causality.ols_fit, self._counted("causality.ols_fit", causality.ols_fit))
        for cls in _stemmer_classes():
            if "stem" in vars(cls):
                original = vars(cls)["stem"]
                self._restore.append((cls, "stem", original))
                cls.stem = self._counted_stem(original)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reduction --------------------------------------------------------

    def durations(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Total and self seconds and call count per span name."""
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
        return total, self_time, calls

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def window_table(self) -> list[dict]:
        return [
            {"window": w, "docs": d, "tokens": t, "nodes": n, "edges": e,
             "connectivity_s": self.conn_seconds.get(w)}
            for w, d, t, n, e in self.graphs
        ]


def _stemmer_classes() -> list[type]:
    found, todo = [], [stemming.Stemmer]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _stage(manifest: dict, *names: str) -> float | None:
    secs = [s["seconds"] for s in manifest["stages"] if s["stage"] in names]
    return sum(secs) if secs else None


def layer_metrics(tracer: Tracer, traced_wall: float, traced_manifest: dict,
                  untraced_wall: float, untraced_manifest: dict,
                  timed_scores: list[float], workers: int) -> dict:
    """Per-layer metrics; None marks a layer whose functions were never called."""
    total, self_time, calls = tracer.durations()

    def summed(table, *names):
        hit = [table[n] for n in names if calls.get(n)]
        return sum(hit) if hit else None

    counts = tracer.counts
    nodes = [g[3] for g in tracer.graphs]
    edges = [g[4] for g in tracer.graphs]
    stem_calls = counts.get("stemming.stem", 0)
    scores_w1 = _stage(untraced_manifest, "scores")
    efficiency = None
    if scores_w1 is not None and timed_scores:
        efficiency = scores_w1 / (workers * statistics.median(timed_scores))
    failed = [r for r in tracer.battery if r.status != "ok"]
    reached_battery = bool(calls.get("causality.run_battery"))
    return {
        "corpus.ingest_s": summed(total, "corpus.load_corpus", "corpus.assign_windows"),
        "corpus.docs": counts.get("corpus.load_corpus") if calls.get("corpus.load_corpus") else None,
        "textproc.normalize_s": summed(self_time, "textproc.normalize_document"),
        "textproc.cooccur_s": summed(
            self_time, "textproc.sequence_cooccurrences", "textproc.merge_cooccurrences"
        ),
        "textproc.tokens": counts.get("textproc.tokens") if calls.get("textproc.normalize_document") else None,
        "stemming.calls": stem_calls or None,
        "stemming.distinct": len(tracer.stemmed) or None,
        "stemming.useful_ratio": len(tracer.stemmed) / stem_calls if stem_calls else None,
        "keywords.compile_s": summed(total, "keywords.parse_registry", "keywords.compile_canonical_map"),
        "network.graph_s": summed(self_time, "network.prevalence", "network.build_graph"),
        "network.diversity_s": summed(self_time, "network.diversity_all"),
        "network.connectivity_s": summed(self_time, "network.connectivity"),
        "network.sbs_self_s": summed(self_time, "network.sbs"),
        "network.nodes_p50": statistics.median(nodes) if nodes else None,
        "network.nodes_max": max(nodes) if nodes else None,
        "network.edges_p50": statistics.median(edges) if edges else None,
        "network.brandes_work": sum(n * e for n, e in zip(nodes, edges)) if nodes else None,
        "series.targets_s": summed(total, "series.load_monthly", "series.disaggregate"),
        "causality.battery_s": summed(total, "causality.run_battery"),
        "causality.bic_s": summed(total, "causality.select_lag_bic"),
        "causality.ftest_s": summed(total, "causality.granger_test"),
        "causality.ccf_s": summed(total, "causality.cross_correlation_sign"),
        "causality.ols_fits": counts.get("causality.ols_fit") or None,
        "causality.pairs": len(tracer.battery) if reached_battery else None,
        "causality.pairs_failed": len(failed) if reached_battery else None,
        "pipeline.io_s": _stage(untraced_manifest, *IO_STAGES),
        "pipeline.write_s": _stage(untraced_manifest, "write_scores", "write_tables"),
        "pipeline.scores_stage_s": scores_w1,
        "pipeline.parallel_efficiency": efficiency,
        "tracing.overhead_frac": traced_wall / untraced_wall - 1.0,
        "tracing.coverage": coverage(tracer, traced_manifest, traced_wall),
    }


def coverage(tracer: Tracer, traced_manifest: dict, traced_wall: float) -> float:
    """Share of the traced run's wall time under top-level spans or unspanned stages."""
    unspanned = _stage(traced_manifest, *IO_STAGES) or 0.0
    return (tracer.top_level_seconds() + unspanned) / traced_wall
