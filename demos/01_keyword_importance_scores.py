"""
Scoring keyword importance in a word co-occurrence network
==========================================================

A tiny corpus is turned into a weighted word graph, then one keyword is
scored on the three importance dimensions: how often it occurs
(prevalence), how distinctive its neighborhood is (diversity), and how
often it bridges shortest paths between other words (connectivity). The
composite score is the sum of the three z-scores against all words of the
window.
"""
from sbsflow import (
    build_graph,
    compile_canonical_map,
    connectivity,
    normalize_document,
    prevalence,
    sbs,
    sequence_cooccurrences,
    write_edgelist,
)
from sbsflow.network import diversity_all
from sbsflow.stemming import NullStemmer

SENTENCE = (
    "The same principle, the same love of system, the same regard to the "
    "beauty of order, of art and contrivance, frequently serves to recommend "
    "those institutions which tend to promote the public welfare."
)

# an empty keyword registry: every word is its own node
canonical = compile_canonical_map(
    [],
    NullStemmer(),  # keep readable node labels
    stopwords=frozenset({"the", "of", "to", "and", "which", "those"}),
)
WINDOW_SIZE = 3  # words closer than this many positions are linked

# a window of one document
window = [normalize_document(SENTENCE, canonical)]
print("normalized sentences:", window[0].sentences)

prev = prevalence(window)
records = sequence_cooccurrences(window, WINDOW_SIZE)
graph = build_graph(records, extra_nodes=prev.keys())
print(f"\ngraph: {graph.n} nodes, {len(graph.edges)} edges")
print("neighborhood of 'same':", sorted(graph.neighbors("same")))

div = diversity_all(graph)
conn = connectivity(graph)
print("\nper-word raw scores (top 5 by connectivity):")
for word in sorted(conn, key=conn.get, reverse=True)[:5]:
    print(
        f"  {word:12s} prevalence={prev[word]:2d} "
        f"diversity={div[word]:6.3f} connectivity={conn[word]:6.2f}"
    )

scores = sbs(graph, prev, ["same", "system", "welfare"])
print("\ncomposite scores (z-standardized against all words):")
for s in scores:
    print(
        f"  {s.keyword:12s} z_prev={s.z_prevalence:+.3f} z_div={s.z_diversity:+.3f} "
        f"z_conn={s.z_connectivity:+.3f} -> sbs={s.sbs:+.3f}"
    )

write_edgelist(graph, "demo_edges.csv")
print("\nedge list for external plotting written to demo_edges.csv")
