"""Prove linear information inequalities as (constrained) Shannon-type inequalities.

The pipeline: parse expressions over a declared variable universe, rewrite
them as exact-rational coefficient vectors over all nonempty-subset joint
entropies, pose nonnegativity over the polymatroid cone (optionally cut by
PMF-structure equalities) as an exact LP, and read the optimal multipliers
back as a machine-verifiable analytic proof.
"""

from .canonical import CanonicalVector, canonicalize, cond_entropy, joint_entropy, mutual_info
from .constraints import ConstraintMatrix, ConstraintRow, build_constraint_matrix
from .elemental import ElementalMatrix, ElementalTerm, bim_to_eim_decomposition, eim_count, enumerate_eims
from .errors import InfoIneqError, ParseError
from .lp import (
    Certificate,
    ConeProblem,
    NotProvable,
    ProvenSTI,
    SolveOutcome,
    is_disproof_ray,
    solve,
    verify_certificate,
)
from .parser import (
    ConstraintDecl,
    Entropy,
    Explicit,
    Factorization,
    FuncDep,
    InfoExpr,
    MarkovChain,
    Measure,
    MutualIndep,
    MutualInfo,
    RelOp,
    Relation,
    VarUniverse,
    parse_constraint,
    parse_expr,
    parse_relation,
    parse_universe,
    render_constraint,
    render_expr,
    render_measure,
    render_relation,
)
from .proof import ElementalForm, build_elemental_form, render_json, render_latex, render_text

__version__ = "0.1.0"

__all__ = [
    "CanonicalVector",
    "Certificate",
    "ConeProblem",
    "ConstraintDecl",
    "ConstraintMatrix",
    "ConstraintRow",
    "ElementalForm",
    "ElementalMatrix",
    "ElementalTerm",
    "Entropy",
    "Explicit",
    "Factorization",
    "FuncDep",
    "InfoExpr",
    "InfoIneqError",
    "MarkovChain",
    "Measure",
    "MutualIndep",
    "MutualInfo",
    "NotProvable",
    "ParseError",
    "ProvenSTI",
    "RelOp",
    "Relation",
    "SolveOutcome",
    "VarUniverse",
    "bim_to_eim_decomposition",
    "build_constraint_matrix",
    "build_elemental_form",
    "canonicalize",
    "cond_entropy",
    "eim_count",
    "enumerate_eims",
    "is_disproof_ray",
    "joint_entropy",
    "mutual_info",
    "parse_constraint",
    "parse_expr",
    "parse_relation",
    "parse_universe",
    "render_constraint",
    "render_expr",
    "render_json",
    "render_latex",
    "render_measure",
    "render_relation",
    "render_text",
    "solve",
    "verify_certificate",
]
