"""Workbench for mixing questions on algebraic dynamical systems.

Systems are cyclic group-ring modules over integer/rational lattice groups or
the positive rationals; the package decides character-level mixing questions
exactly, searches for and verifies non-mixing certificates, and cross-checks
results with an exact/Monte-Carlo window simulator.
"""

from .ring import GF, QQ, ZZ, Domain, DomainError, LaurentPoly, expvec
from .numfield import FieldElement, NumberField
from .ideals import IdealPresentation
from .systems import (
    AlgebraicSystem,
    CharacterTuple,
    CharPModule,
    EvaluationModule,
    GroupDescriptor,
    RationalDualModule,
    SplitSystem,
    character_correlation,
    find_nonmixing_element,
    free_abelian,
    level_embed,
    positive_rationals,
    rational_vector,
    split_action,
)
from .mixing import (
    DilationFamily,
    NonMixingCertificate,
    UnitEquationProblem,
    enumerate_unit_solutions,
    ess_bound_exponent,
    frobenius_certificate,
    reduce_witness,
    shape_search,
    vanishing_subsums,
    verify_certificate,
)
from .simulate import (
    CylinderSet,
    WindowConfigSpace,
    correlation_estimate,
    correlation_exact,
    cylinder_measure,
)

__version__ = "0.1.0"
