"""Complete continuous isometry invariants of 2D lattices.

Every 2D lattice has an obtuse superbase, unique up to isometry; the sorted
square roots of its conorms (the root form) identify the lattice up to
isometry, change continuously under perturbations, and support cheap metrics
between isometry classes. This package computes the invariants, the metrics,
the quotient-triangle shape coordinates used for density maps of large
crystallographic datasets, and a brute-force Voronoi oracle for validation.
"""

from .errors import (
    DegenerateBasis,
    DegenerateLattice,
    InvalidGridSpec,
    LatticeError,
    NegativeConorm,
    ParseError,
)
from .lattice import (
    Basis2,
    ConormTriple,
    LatticeSign,
    ObtuseSuperbase,
    OrientedRootForm,
    RootForm,
    Superbase2,
    Vec2,
    VonormTriple,
    conorms,
    conorms_from_vonorms,
    oriented_root_form,
    reduce_to_obtuse,
    root_form,
    root_form_from_values,
    squared_norm_from_conorms,
    superbase_from_basis,
    vonorms,
    vonorms_from_conorms,
)
from .metrics import (
    continuity_bound,
    root_metric,
    root_metric_oriented,
    superbase_distance_linf,
)
from .projection import (
    BarycentricTriple,
    QTPoint,
    reconstruct_superbase,
    to_full_triangle,
    to_quotient_triangle,
    to_quotient_triangle_oriented,
)
from .records import (
    DensityGrid,
    GridSpec,
    LatticeRecord,
    accumulate_grid,
    emit_grid,
    parse_records,
    project_to_2d,
)
from .voronoi import (
    VoronoiDomainPolygon,
    VoronoiVector,
    verify_partial_sums,
    voronoi_domain,
    voronoi_vectors,
)

__version__ = "0.1.0"
