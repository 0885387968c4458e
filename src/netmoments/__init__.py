"""Network motif moments, empirical Edgeworth expansions, and inference.

The sample frequency of a small motif in an exchangeable random graph is
a noisy U-statistic.  This package computes such moments with exact
integer counting, estimates their projection components and variance,
approximates the studentized sampling distribution by a one-term
Edgeworth expansion, and derives Cornish-Fisher confidence intervals and
one-sample tests, alongside bootstrap baselines and reproducible
simulation harnesses.
"""

from .adjacency import AdjacencyMatrix, from_edges, load_edge_list
from .bootstrap import EmpiricalCdf, resample_distribution, subsample_distribution
from .edgeworth import (DEFAULT_GRID, EdgeworthCoefficients, cornish_fisher_quantile,
                        expansion_cdf, rate_bound)
from .errors import (CostCapError, DegeneracyError, DegenerateReplicatesError,
                     NotConnectedError)
from .graphon import (Graphon, LatentSample, MomentEstimate, PopulationCoefficients,
                      ProbabilityMatrix, block_model, builtin_graphon, custom_graphon,
                      graphon_from_config, nonsmooth_graphon, population_edgeworth_coefficients,
                      population_moment, probability_matrix, sample_adjacency, sample_graph,
                      sample_graph_block, sample_latent, smooth_graphon)
from .harness import (ExperimentConfig, ExperimentRecord, TrueCdf, monte_carlo_true_cdf,
                      population_mean, resolve_rho, run_accuracy_experiment,
                      run_coverage_experiment, run_power_experiment, run_sparsity_sweep,
                      sup_grid_error, write_records_csv)
from .inference import ConfidenceInterval, TestResult, confidence_interval, one_sample_test
from .moments import (MomentStats, compute_stats, edgeworth_coefficients, jackknife_variance,
                      motif_counts, motif_counts_block, pair_projection, sample_moment,
                      studentize, variance_estimator)
from .motif import EDGE, THREESTAR, TRIANGLE, VSHAPE, Motif, builtin_motif, motif_from_config
from .rng import stream, substream_seed

__version__ = "0.1.0"
