"""Exact diagnostics for generalized interior-point and closedness-type
regularity conditions in convex duality."""

from .conditions import (
    ConditionId,
    ConditionVerdict,
    Diagnosis,
    check_rc8,
    consistency_check,
    diagnose,
    evaluate_condition,
)
from .engine import (
    AffineMap,
    DeclaredValues,
    FenchelInstance,
    IdentityMap,
    LagrangeInstance,
    NamedMap,
    NegIdentityMap,
    PerturbationInstance,
    ShiftMap,
    ValueReport,
    dual_objective_value,
    recover_dual_via_separation,
    solve_dual,
    solve_primal,
    to_perturbation,
    value_report,
)
from .exactlp import (
    Infeasible,
    LinearProgram,
    LpOutcome,
    Optimal,
    Row,
    Unbounded,
    lp,
    solve_lp,
    verify_certificate,
)
from .funcexpr import (
    Affine,
    ArgTranslate,
    ConjugateOf,
    ExtReal,
    IndicatorOf,
    InfConv,
    MINF,
    NormAtom,
    PINF,
    PlusConst,
    PrecomposeLinear,
    Sum,
    SupOfAffine,
    SymVec,
    biconjugate_check,
    conjugate,
    domain,
    epi_diff_set,
    er,
    evaluate,
)
from .inference import DeclaredFact, Engine, catalog_fact, infer, nonneg_certificate
from .polyhedra import (
    AffineSubspace,
    FinitelyGeneratedCone,
    Notion,
    Polyhedron,
    affine_hull,
    dual_cone,
    is_linear_subspace,
    minkowski_sum,
    normal_cone,
    poly,
    project,
    relative_interior_point,
    zero_in,
)
from .setexpr import FAILS, HOLDS, UNKNOWN, FactStatus, ORIGIN, normalize

__version__ = "0.1.0"
