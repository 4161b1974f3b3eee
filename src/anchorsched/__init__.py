"""Anchor-robust project scheduling under processing-time uncertainty.

Given a precedence graph with a deadline and an uncertainty set of
processing-time deviations, the package finds a baseline schedule and a
maximum-weight set of jobs whose start times can be kept unchanged whatever
deviation occurs (an *anchored* set).  It provides:

* worst-case longest-path machinery for box, budgeted, partitioned,
  mixed, and scenario uncertainty sets (:mod:`anchorsched.uncertainty`);
* the anchored-set characterization through dominant schedules, built by
  one recursion over the anchored jobs, plus a brute-force reference
  (:mod:`anchorsched.anchored`);
* three MIP formulations with chain-inequality separation on a
  self-contained simplex / branch-and-cut engine
  (:mod:`anchorsched.formulations`, :mod:`anchorsched.milp`);
* polynomial special cases — greatest-point sets, zero processing times,
  critical graphs under a single disruption (:mod:`anchorsched.exact`);
* reproducible instance generators with a JSON interchange format
  (:mod:`anchorsched.instances`) and a CLI (``anchorsched``).

Array kernels run through numba when it is installed; set
``ANCHORSCHED_BACKEND=numpy`` or ``numba`` to force a backend.
"""

from ._backend import BACKEND
from .anchored import (
    AnchoredSolution,
    Instance,
    brute_force_optimum,
    dominant_schedule,
    is_anchored_set,
    is_x_anchored,
    recourse_feasible,
)
from .errors import (
    AnchorSchedError,
    BudgetOutOfRange,
    CycleDetected,
    DeadlineInfeasible,
    EmptyScenarioList,
    EnumerationTooLarge,
    InfeasibleAnchoredSet,
    InstanceTooLarge,
    MissingCompanionDeviation,
    NonIntegralVertex,
    NotASchedule,
    NotCritical,
    NumericalFailure,
    ParseError,
    UnsupportedInstance,
    UnsupportedUncertainty,
)
from .exact import (
    METHODS,
    SolutionReport,
    preprocess_deadline,
    solve_auto,
    solve_box,
    solve_critical_one_disruption,
    solve_method,
    solve_u_anchrob,
    tighten_deadline,
)
from .formulations import (
    build_dom,
    build_lay,
    build_std,
    dom_lay_premise,
    lp_bound,
    separate_chain,
    solve_dom_cuts,
    solve_formulation,
)
from .graph import (
    LongestPathMatrix,
    PrecedenceGraph,
    Schedule,
    all_pairs_longest,
    earliest_schedule,
    is_critical,
    is_quasi_critical,
    is_schedule,
    latest_schedule,
    single_source_longest,
    topological_order,
)
from .instances import (
    InstanceClassLabel,
    build_uncertainty,
    gen_deviation,
    gen_er,
    gen_graph,
    gen_processing,
    gen_sp,
    halfway_deadline,
    instance_filename,
    instance_from_dict,
    instance_to_dict,
    make_instance,
    parse_label,
    read_instance,
    write_instance,
)
from .milp import (
    MipModel,
    SolveParams,
    SolveResult,
    export_lp_file,
    parse_lp_file,
    solve_lp,
    solve_mip,
)
from .uncertainty import (
    Box,
    Budgeted,
    MixedBudgeted,
    OneDisruption,
    PartitionBudgeted,
    Scenarios,
    budgeted_dp,
    contains,
    extreme_points,
    greatest_point,
    normalize,
    worst_case_longest_paths,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorSchedError",
    "AnchoredSolution",
    "BACKEND",
    "Box",
    "Budgeted",
    "BudgetOutOfRange",
    "CycleDetected",
    "DeadlineInfeasible",
    "EmptyScenarioList",
    "EnumerationTooLarge",
    "InfeasibleAnchoredSet",
    "Instance",
    "InstanceClassLabel",
    "InstanceTooLarge",
    "LongestPathMatrix",
    "METHODS",
    "MipModel",
    "MissingCompanionDeviation",
    "MixedBudgeted",
    "NonIntegralVertex",
    "NotASchedule",
    "NotCritical",
    "NumericalFailure",
    "OneDisruption",
    "ParseError",
    "PartitionBudgeted",
    "PrecedenceGraph",
    "Scenarios",
    "Schedule",
    "SolutionReport",
    "SolveParams",
    "SolveResult",
    "UnsupportedInstance",
    "UnsupportedUncertainty",
    "all_pairs_longest",
    "brute_force_optimum",
    "budgeted_dp",
    "build_dom",
    "build_lay",
    "build_std",
    "build_uncertainty",
    "contains",
    "dom_lay_premise",
    "dominant_schedule",
    "earliest_schedule",
    "export_lp_file",
    "extreme_points",
    "gen_deviation",
    "gen_er",
    "gen_graph",
    "gen_processing",
    "gen_sp",
    "greatest_point",
    "halfway_deadline",
    "instance_filename",
    "instance_from_dict",
    "instance_to_dict",
    "is_anchored_set",
    "is_critical",
    "is_quasi_critical",
    "is_schedule",
    "is_x_anchored",
    "latest_schedule",
    "lp_bound",
    "make_instance",
    "normalize",
    "parse_label",
    "parse_lp_file",
    "preprocess_deadline",
    "read_instance",
    "recourse_feasible",
    "separate_chain",
    "single_source_longest",
    "solve_auto",
    "solve_box",
    "solve_critical_one_disruption",
    "solve_dom_cuts",
    "solve_formulation",
    "solve_lp",
    "solve_method",
    "solve_mip",
    "solve_u_anchrob",
    "tighten_deadline",
    "topological_order",
    "worst_case_longest_paths",
    "write_instance",
]
