"""Exact toolkit for worst-case node-removal attacks and budget-constrained
link-addition responses on undirected networks."""

from .attack import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    AttackModel,
    AttackResult,
    solve_attack,
)
from .cuts import (
    KnapsackConstraint,
    LiftedCoverCut,
    compute_abar,
    cover_inequality,
    cuts_for_knapsack,
    find_cover,
    lift_cover,
    verify_cut,
)
from .errors import (
    InfeasibleError,
    InputError,
    OracleMismatchError,
    RupturekitError,
    SizeLimitError,
)
from .graph import (
    ComponentPartition,
    CutSet,
    Graph,
    RuptureScore,
    components,
    rupture_score,
    worst_cut_oracle,
)
from .model_io import (
    InstanceFile,
    emit_instance,
    export_mip,
    parse_instance,
    result_to_dict,
    result_to_json,
)
from .response import (
    MceicMatrix,
    ReconstructionPlan,
    ResponseModel,
    brute_force_response,
    classify_components,
    dynamic_worst_cut,
    mceic_matrix,
    solve_response,
)

__version__ = "0.1.0"
