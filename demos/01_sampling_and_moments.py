"""Sample networks from the built-in graphons and inspect motif moments.

Walks the basic pipeline: graphon -> latent positions -> edge
probabilities -> adjacency, then exact motif counting and the projection
and variance estimates attached to each moment.
"""

import numpy as np

import netmoments as nm

# The three generating models used throughout the experiments.  Each is a
# symmetric function on [0,1]^2; the block model also carries exact
# population quantities.
graphons = [
    nm.builtin_graphon("blockmodel"),
    nm.builtin_graphon("smoothgraphon"),
    nm.builtin_graphon("nonsmoothgraphon"),
]

n, rho, seed = 60, 1.0, 20240811

for g in graphons:
    A = nm.sample_graph(g, n, rho, seed)
    density = A.edge_count / (n * (n - 1) / 2)
    print(f"\n=== {g.name}: n={n}, {A.edge_count} edges (density {density:.3f}) ===")
    for motif in (nm.EDGE, nm.TRIANGLE, nm.VSHAPE, nm.THREESTAR):
        stats = nm.compute_stats(A, motif)
        print(f"  {motif.name:>9}: U_hat={stats.u_hat:.4f}  S_hat={stats.s_hat:.5f}  "
              f"xi1^2={stats.xi1_hat_sq:.2e}  E[g1^3]={stats.e_g1_cubed:+.2e}  "
              f"E[g1g1g2]={stats.e_g1g1g2:+.2e}")

# The projections behind those numbers: per-node g1 (how much node i
# shifts the moment) and the variance estimate built from it.
bm = graphons[0]
A = nm.sample_graph(bm, 12, 1.0, seed=7)
g1 = nm.compute_stats(A, nm.TRIANGLE).g1_hat
print("\nPer-node projections on a 12-node block-model draw (triangle):")
print(np.array2string(g1, precision=4))
print("sum(g1) =", f"{g1.sum():.2e}", "(identically zero up to rounding)")
print("S_hat^2 =", nm.variance_estimator(g1, 3))
print("jackknife S^2 =", nm.jackknife_variance(A, nm.TRIANGLE), "(nearly the same)")

# Population counterparts, exact for the block model.
mu = nm.population_moment(bm, 1.0, nm.TRIANGLE)
pc = nm.population_edgeworth_coefficients(bm, 1.0, nm.TRIANGLE)
print(f"\nPopulation triangle moment mu = {mu.value:.4f}; "
      f"xi1^2 = {pc.xi1_sq:.3e}, E[g1^3] = {pc.e_g1_cubed:+.3e}, "
      f"E[g1g1g2] = {pc.e_g1g1g2:+.3e}")
