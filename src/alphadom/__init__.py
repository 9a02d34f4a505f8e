"""Low-weight alpha-rate dominating sets on vertex-weighted graphs.

A set D of vertices alpha-rate dominates a graph when every vertex, members
of D included, has at least ceil(alpha * (deg + 1)) of its closed
neighborhood inside D.  This package provides three greedy strategies, an
LP-relaxation randomized-rounding solver, a community-partitioned variant of
it, exact desk-scale oracles, the graph generators used to benchmark them,
and a reproducible experiment harness.
"""

from .bench import (ALGORITHMS, ContractViolationError, ExperimentConfig,
                    GraphSource, ResultRow, derive_seed, run_experiment,
                    summarize, write_rows_csv, write_summary_json)
from .community import Partition, community_rounding, louvain, modularity
from .generators import (FAMILIES, WeightSpec, assign_weights, gen_gnm,
                         gen_planted_partition, gen_powerlaw_cluster,
                         planted_block_assignment)
from .graph import (DeficiencyReport, DominatingSet, DominationInstance,
                    GraphStats, WeightedGraph, as_alpha, connected_components,
                    coverage_count, coverage_counts, deficiency, graph_stats,
                    is_feasible)
from .greedy import Strategy, greedy_dominate, sort_key
from .io import (IngestError, ingest_graph, read_graph_bundle, read_solution,
                 write_edge_list, write_graph_bundle, write_solution,
                 write_weight_table)
from .lp import (Certificate, FractionalSolution, LinearProgram, SimplexError,
                 build_lp, certify, lp_text, solve_lp)
from .oracle import (InstanceTooLargeError, OracleResult, brute_force_opt,
                     check_theorem_half, poisson_binomial_pmf,
                     poisson_binomial_tail)
from .rounding import (default_max_rounds, randomized_rounding, repair,
                       round_once, round_until_feasible)

__version__ = "0.1.0"
