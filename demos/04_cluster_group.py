"""The finite group of clusters of almost automorphisms.

At small Hamming distance, almost automorphisms clump into clusters; the
dichotomy forbids mid-range distances, products of representatives (improved
back to small defect) multiply the clusters, and the result is a finite
group.  For an exact Cayley graph this recovers the acting group.
"""

from soficlab import cayley_graph
from soficlab.almost_auto import ImprovementConfig, label_automorphisms
from soficlab.clusters import cluster_group, dichotomy_check, group_invariants
from soficlab.expansion import cheeger_bounds, lambda2
from soficlab import groups

table, gen_idx = groups.preset_group("s3")
g = cayley_graph(table, gen_idx)

autos = label_automorphisms(g)
print(f"Cay(S3) has {len(autos)} exact automorphisms (the right translations)")

h0 = cheeger_bounds(g, lambda2(g)).lower
report = dichotomy_check(g, 0.0, autos, h=h0)
print(f"dichotomy at h0={h0:.3f}: {report.pairs_checked} pairs, {len(report.violations)} violations")

cg = cluster_group(g, 0.0, autos, ImprovementConfig())
order, element_orders, abelian = group_invariants(cg)
print(f"cluster group: order {order}, element orders {element_orders}, abelian: {abelian}")
counters = cg.as_dict()["counters"]
print(
    f"closure: {counters['closure_rounds']} rounds, {counters['improve_requests']} improvements "
    f"requested on {counters['improve_calls']} distinct inputs (all exact automorphisms, so fixed points)"
)
print("multiplication table:")
print(cg.table)

# same recipe on a cyclic graph gives the cyclic group
c7 = cayley_graph(groups.cyclic_table(7), [1, 6])
cg7 = cluster_group(c7, 0.0, label_automorphisms(c7), ImprovementConfig())
print("\nCay(Z7):", group_invariants(cg7))
