"""hyperlift: reconstruct random d-uniform hypergraphs from graph projections.

The package has three layers:

- core model: hypergraphs, graphs, seeded generation, projection, the
  d-clique hypergraph, similarity matrices (:mod:`hyperlift.core`,
  :mod:`hyperlift.components`);
- reconstruction: exact minimum-preimage search per 2-connected component
  (MAP), the maximum clique cover, and greedy deletion
  (:mod:`hyperlift.preimage`, :mod:`hyperlift.reconstruct`);
- certification machinery: exact pattern combinatorics, the cover
  optimizations, the ambiguity gadgets, and the pruned isomorphism-free
  search for ambiguous graphs (:mod:`hyperlift.census`,
  :mod:`hyperlift.search`), driven by the experiment harness
  (:mod:`hyperlift.harness`) and the `hyperlift` CLI.
"""

from .core import (
    DensityParams,
    FormatError,
    Graph,
    HsbmParams,
    Hypergraph,
    SimilarityMatrix,
    clique_hypergraph,
    densify_reduction,
    generate_hsbm,
    generate_random_hypergraph,
    project,
    similarity_matrix,
    support_graph,
)
from .components import ComponentPartition, decompose
from .preimage import PreimageReport, enumerate_preimages, min_preimage
from .reconstruct import (
    ComponentTooLargeError,
    ReconstructionResult,
    clique_cover,
    greedy_reconstruct,
    map_reconstruct,
    verify_exact,
)
from .census import (
    PatternHypergraph,
    automorphism_count,
    build_ambiguous_gadget,
    build_map_failure_gadget,
    build_spurious_clique_gadget,
    cover_bound_min,
    exact_expected_count,
    expected_count_exponent,
    g_0,
    g_k,
    max_density,
    threshold_table,
)

__all__ = [
    "ComponentPartition",
    "ComponentTooLargeError",
    "DensityParams",
    "FormatError",
    "Graph",
    "HsbmParams",
    "Hypergraph",
    "PatternHypergraph",
    "PreimageReport",
    "ReconstructionResult",
    "SimilarityMatrix",
    "automorphism_count",
    "build_ambiguous_gadget",
    "build_map_failure_gadget",
    "build_spurious_clique_gadget",
    "clique_cover",
    "cover_bound_min",
    "clique_hypergraph",
    "decompose",
    "densify_reduction",
    "enumerate_preimages",
    "exact_expected_count",
    "expected_count_exponent",
    "g_0",
    "g_k",
    "generate_hsbm",
    "generate_random_hypergraph",
    "greedy_reconstruct",
    "map_reconstruct",
    "max_density",
    "min_preimage",
    "project",
    "similarity_matrix",
    "support_graph",
    "threshold_table",
    "verify_exact",
]
