"""Compare the empirical Edgeworth expansion against the normal baseline.

Builds a Monte-Carlo ground truth for the studentized triangle moment
under the block model, then measures each method's sup-grid CDF error
across repeated draws.  Desk-scale version of the paper-style accuracy
experiment; expect a clear Edgeworth win that grows with n.  Last, the
same protocol runs for the three-star (acyclic) beside the triangle
(cyclic), dense and at rho = 0.5, next to the theoretical rate bound.
"""

import numpy as np

import netmoments as nm
from netmoments.harness import (ExperimentConfig, monte_carlo_true_cdf,
                                population_mean, run_accuracy_experiment,
                                write_records_csv)

bm = nm.builtin_graphon("blockmodel")

# One illustrative truth-vs-approximation picture at n = 40.
n, n_mc = 40, 20_000
mu = population_mean(bm, 1.0, nm.TRIANGLE).value
truth = monte_carlo_true_cdf(bm, 1.0, nm.TRIANGLE, n=n, n_mc=n_mc, seed=1, mu=mu)
A = nm.sample_graph(bm, n, 1.0, seed=99)
stats = nm.compute_stats(A, nm.TRIANGLE)
coeffs = nm.EdgeworthCoefficients.from_moment_stats(stats)
edge_vals = nm.expansion_cdf(coeffs, truth.grid)

from scipy.special import ndtr  # noqa: E402

print(f"truth at n={n} from {n_mc} networks ({truth.n_degenerate} degenerate dropped)")
print(f"{'u':>5} {'truth':>8} {'edgeworth':>10} {'normal':>8}")
for u, t, e in zip(truth.grid[::5], truth.values[::5], edge_vals[::5]):
    print(f"{u:5.1f} {t:8.4f} {e:10.4f} {ndtr(u):8.4f}")
print(f"sup error: edgeworth {np.abs(edge_vals - truth.values).max():.4f}, "
      f"normal {np.abs(ndtr(truth.grid) - truth.values).max():.4f}")

# The systematic comparison over n, 15 repetitions each.
cfg = ExperimentConfig(
    graphon=bm, motif=nm.TRIANGLE, n_list=[10, 20, 40], rho=1, seed=5,
    n_mc=20_000, repetitions=15, methods=("edgeworth_empirical", "normal"))
records = run_accuracy_experiment(cfg, threads=2, max_degenerate_fraction=0.2)
write_records_csv(records, "accuracy_demo.csv")



def median_sup_errors(records, n):
    """Median sup-grid error per method over the repetitions at size n."""
    return {method: np.median([r.value for r in records if r.method == method
                               and r.n == n and r.metric == "sup_error"])
            for method in cfg.methods}


print("\nmedian sup-grid error by n (15 reps, truth from 2e4 networks):")
for n in cfg.n_list:
    meds = median_sup_errors(records, n)
    print(f"  n={n:>3}: edgeworth {meds['edgeworth_empirical']:.4f}   "
          f"normal {meds['normal']:.4f}")
print("records written to accuracy_demo.csv")

# Acyclic vs cyclic.  The paper's bound M(rho, n) has the factor
# (rho n)^-1 for acyclic motifs and rho^(-r/2) n^-1 for cyclic ones, so
# the two agree on dense graphs (rho = 1) and split as rho shrinks.
print("\nacyclic (three-star) vs cyclic (triangle), median sup-grid error "
      "(15 reps, truth from 2e4 networks):")
print(f"  {'motif':>9} {'rho':>4} {'n':>3} {'edgeworth':>9} {'normal':>7} {'rate_bound':>10}")
for rho in (1.0, 0.5):
    for motif in (nm.TRIANGLE, nm.THREESTAR):
        split = ExperimentConfig(
            graphon=bm, motif=motif, n_list=[20, 40], rho=rho, seed=5,
            n_mc=20_000, repetitions=15, methods=cfg.methods)
        recs = run_accuracy_experiment(split, threads=2, max_degenerate_fraction=0.2)
        for n in split.n_list:
            meds = median_sup_errors(recs, n)
            print(f"  {motif.name:>9} {rho:4.1f} {n:3d} {meds['edgeworth_empirical']:9.4f} "
                  f"{meds['normal']:7.4f} {nm.rate_bound(rho, n, motif):10.4f}")
