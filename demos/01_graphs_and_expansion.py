"""Build labeled graphs and measure their expansion.

Every graph is stored as one permutation per generator symbol; undirected
edges are the unordered pairs {x, s.x}.  Small graphs get an exact Cheeger
constant, larger ones an interval from the averaging operator whose lower bound is
proven by a Cholesky factorisation (up to 4096 vertices) or else 0.
"""

import numpy as np

from soficlab import boundary, cayley_graph, VertexSet
from soficlab.expansion import cheeger_bounds, cheeger_exact, lambda2, sweep_cut
from soficlab import groups

# the 6-cycle as the Cayley graph of Z6 with generators {1, 5}
c6 = cayley_graph(groups.cyclic_table(6), [1, 5])
print("C6:", c6)

count, edges = boundary(c6, VertexSet.from_indices(6, [0, 1, 2]))
print("boundary of the arc {0,1,2}:", count, edges)

est = cheeger_exact(c6)
print(f"h(C6) = {est.value} witnessed by {est.witness.indices().tolist()}")

# spectral route: second eigenvalue of M = (P_1 + P_5)/2
sd = lambda2(c6)
print(f"lambda2(C6) = {sd.lambda2:.6f} after {sd.iterations} Lanczos steps")
interval = cheeger_bounds(c6, sd)
print(f"interval: [{interval.lower:.4f}, {interval.upper:.4f}], lower bound certified: {interval.lower_certified}")

# the interval brackets the exact value on anything we can enumerate
k4 = cayley_graph(groups.cyclic_table(4), [1, 2, 3])
print("\nK4 exact:", cheeger_exact(k4).value)
k4_interval = cheeger_bounds(k4, lambda2(k4))
print("K4 spectral lower bound:", k4_interval.lower, "certified:", k4_interval.lower_certified)

# sweep cuts turn any vertex vector into a certified cut
vec = np.array([3.0, 2.0, 1.0, 0.0, 0.0, 0.0])
cut, ratio = sweep_cut(c6, vec)
print(f"\nsweep cut from {vec}: {cut.indices().tolist()} at ratio {ratio:.4f}")

# a large graph where only the interval is available
big = cayley_graph(groups.cyclic_table(101), [1, 100])
sd_big = lambda2(big)
interval = cheeger_bounds(big, sd_big)
print(f"\nC101: lambda2 = {sd_big.lambda2:.6f} after {sd_big.iterations} Lanczos steps, "
      f"h in [{interval.lower:.5f}, {interval.upper:.5f}], lower bound certified: {interval.lower_certified}")
