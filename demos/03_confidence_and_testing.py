"""Cornish-Fisher confidence intervals and the one-sample moment test.

Shows the bias-corrected interval against the plain normal interval
(same length, shifted center), a quick coverage experiment, and p-values
for a range of null hypotheses, including an empirical power curve.
"""

import numpy as np

import netmoments as nm
from netmoments.harness import (ExperimentConfig, run_coverage_experiment,
                                run_power_experiment, summarize_coverage)

bm = nm.builtin_graphon("blockmodel")
A = nm.sample_graph(bm, 80, 1.0, seed=42)
stats = nm.compute_stats(A, nm.TRIANGLE)
mu = nm.population_moment(bm, 1.0, nm.TRIANGLE).value

print(f"observed triangle moment: {stats.u_hat:.4f} (population value {mu:.4f})")
for method in ("edgeworth", "normal"):
    ci = nm.confidence_interval(stats, alpha=0.2, method=method)
    print(f"  80% CI [{method:>9}]: ({ci.lo:.4f}, {ci.hi:.4f})  length {ci.length:.4f}")

print("\none-sample tests, H0: mu = c:")
for c in (mu, mu * 0.8, mu * 1.3, 0.5):
    res = nm.one_sample_test(stats, c_n=c)
    print(f"  c={c:.4f}: t_obs={res.t_obs:+7.2f}  p={res.p_value:.4f}")

# Coverage at the nominal 80% level over repeated draws.
cfg = ExperimentConfig(graphon=bm, motif=nm.TRIANGLE, n_list=[80], rho=1,
                       seed=11, n_mc=1_000, repetitions=400,
                       methods=("edgeworth_empirical", "normal"))
summary = summarize_coverage(run_coverage_experiment(cfg, alpha=0.2))
print("\ncoverage over 400 repetitions (nominal 0.80):")
for method, metrics in summary.items():
    mean, sd = metrics["coverage"]
    print(f"  {method:>20}: {mean:.3f} (sd {sd:.3f}), "
          f"length {metrics['length'][0]:.4f}")

# Power against shifted nulls: near zero offset the rejection rate sits at
# the level; distant nulls are rejected almost always.
power_cfg = ExperimentConfig(graphon=bm, motif=nm.EDGE, n_list=[80], rho=1,
                             seed=13, n_mc=1_000, repetitions=300)
rows = run_power_experiment(power_cfg, offsets=[0.0, 0.005, 0.01, 0.02, 0.04],
                            alpha=0.2)
print("\nempirical power of the level-0.2 test (edge moment, n=80):")
for row in rows:
    print(f"  |c - mu| = {row['offset']:.3f}: reject rate {row['power']:.3f}")
