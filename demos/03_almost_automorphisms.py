"""Detect and repair almost automorphisms.

The graph of a map c lives in the product graph; on simple graphs its edge
boundary is exactly twice the number of bad edges of c.  defect_of_map reads
that boundary off the mismatches c(s.x) != s.c(x) without building the
product graph; the demo also measures it in the product graph.  The
improvement pipeline smooths the indicator of that graph with the averaging
operator, picks the best nearby sweep cut and repairs the fibers back to a
bijection.
"""

import numpy as np

from soficlab import boundary, cayley_graph, product_graph
from soficlab.almost_auto import (
    ImprovementConfig,
    VertexMap,
    defect_of_map,
    graph_of_map,
    improve,
)
from soficlab import groups

table, gen_idx = groups.preset_group("s5")
g = cayley_graph(table, gen_idx)
print("graph:", g)

# right translations commute with the left-multiplication labels exactly
base = table[:, 17].copy()
print("translation defect:", defect_of_map(g, VertexMap(base)).bad_edges)

# corrupt the translation at two points
corrupted = base.copy()
corrupted[[5, 40]] = corrupted[[40, 5]]
c = VertexMap(corrupted)
rep = defect_of_map(g, c)
print(f"corrupted: {rep.bad_edges} bad edges, epsilon = {rep.epsilon:.4f}")
oracle = boundary(product_graph(g, g), graph_of_map(g, c))[0]
print(f"boundary of its graph: {rep.boundary_of_graph} (measured in the product graph: {oracle}) = 2 * bad edges")

# improve it back
cfg = ImprovementConfig(kappa=0.2, radius=1, smoothing_steps=10, target_delta=1 / g.n)
improved, trace = improve(g, c, cfg)
print("\nafter improvement:")
print("  final bad edges:", trace.final.bad_edges)
print("  hamming distance moved:", trace.hamming_moved)
print("  recovered the translation exactly:", bool(np.array_equal(improved.images, base)))
print("  |T| =", trace.t_size, " |U| =", trace.u_size, " |T delta U| =", trace.symmetric_difference)
print("  fibers repaired:", trace.fibers_repaired)
