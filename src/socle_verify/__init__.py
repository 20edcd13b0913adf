"""Modular group algebras of finite p-groups.

Builds kG for a p-group G over GF(p^n), computes the radical filtration
and the dimension-subgroup machinery attached to it, and checks that
every algebra automorphism scales the one-dimensional socle by the
(p-1)-st power of the determinant of its induced graded action.
"""

from .ffield import GF, FieldSpec, FieldElement, FieldMismatch, parse_field_literal
from .pgroup import (
    PcGroup,
    GroupAutomorphism,
    PresentationError,
    InconsistentPresentation,
    RelationViolation,
    NotBijective,
    UnknownGroup,
    catalog,
    catalog_names,
)
from .groupalgebra import (
    GroupAlgebra,
    RadicalFiltration,
    FiltrationError,
    NotAUnit,
    dimension_subgroups_definitional,
    radical_filtration,
)
from .jennings import JenningsBasis, DimensionMismatch, build_jennings_basis
from .automorphisms import (
    AlgebraAutomorphism,
    VerificationReport,
    NotMultiplicative,
    SocleNotPreserved,
    FiltrationNotPreserved,
    LieSubspaceViolated,
    SingularLinearPart,
    verify_stack,
)
from .truncsym import TruncatedPolynomialRing

__version__ = "0.1.0"
