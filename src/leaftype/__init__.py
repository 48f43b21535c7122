"""Exact classification of regular covering surfaces from holonomy data."""

from .scalars import ExponentScalar, GaussianRational
from .words import (
    SurfacePresentation,
    Word,
    commutator,
    handle_pair_witness,
    puncture_pair_witness,
)
from .targets import (
    CircleBasis,
    CircleElement,
    MoebiusElement,
    PermutationElement,
    Representation,
    ping_pong_free_certificate,
)
from .cayley import CayleyBall, build_ball, export_dot
from .gluing import (
    DomainTemplate,
    GluedSurface,
    genus_growth,
    intersection_number_mod2,
    lift_cycle,
)
from .classify import (
    EndsReport,
    SurfaceTypeLabel,
    boundary_orders,
    classify_cover,
    ends_of_group,
    handle_witness_search,
    riemann_hurwitz_finite,
)
from .foliations import (
    LogComponent,
    LogFoliationSpec,
    classify_homogeneous,
    classify_logarithmic,
    classify_riccati,
    component_holonomy,
    validate_log_spec,
    validate_log_structure,
)

__all__ = [
    "CayleyBall",
    "CircleBasis",
    "CircleElement",
    "DomainTemplate",
    "EndsReport",
    "ExponentScalar",
    "GaussianRational",
    "GluedSurface",
    "LogComponent",
    "LogFoliationSpec",
    "MoebiusElement",
    "PermutationElement",
    "Representation",
    "SurfacePresentation",
    "SurfaceTypeLabel",
    "Word",
    "boundary_orders",
    "build_ball",
    "classify_cover",
    "classify_homogeneous",
    "classify_logarithmic",
    "classify_riccati",
    "commutator",
    "component_holonomy",
    "ends_of_group",
    "export_dot",
    "genus_growth",
    "handle_pair_witness",
    "handle_witness_search",
    "intersection_number_mod2",
    "lift_cycle",
    "ping_pong_free_certificate",
    "puncture_pair_witness",
    "riemann_hurwitz_finite",
    "validate_log_spec",
    "validate_log_structure",
]
