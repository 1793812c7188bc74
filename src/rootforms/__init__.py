"""Complete continuous isometry invariants of 2D lattices.

Every 2D lattice has an obtuse superbase, unique up to isometry; the sorted
square roots of its conorms (the root form) identify the lattice up to
isometry, change continuously under perturbations, and support cheap metrics
between isometry classes. This package computes the invariants, the metrics,
the quotient-triangle shape coordinates used for density maps of large
crystallographic datasets, and a brute-force Voronoi oracle for validation.

``import rootforms`` loads no submodule: each public name, and each of the six
submodules, is imported on first use (PEP 562), so a CLI start loads only
what its subcommand runs. ``from rootforms import *`` binds every one of them.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOME = {name: module for module, names in {
    "errors": "DegenerateBasis DegenerateLattice InvalidGridSpec LatticeError NegativeConorm "
              "ParseError",
    "lattice": "Basis2 ConormTriple LatticeSign ObtuseSuperbase OrientedRootForm RootForm "
               "Superbase2 Vec2 VonormTriple conorms conorms_from_vonorms oriented_root_form "
               "reduce_to_obtuse root_form root_form_from_values squared_norm_from_conorms "
               "superbase_from_basis vonorms vonorms_from_conorms",
    "metrics": "continuity_bound root_metric root_metric_oriented superbase_distance_linf",
    "projection": "BarycentricTriple QTPoint reconstruct_superbase to_full_triangle "
                  "to_quotient_triangle to_quotient_triangle_oriented",
    "records": "DensityGrid GridSpec LatticeRecord accumulate_grid emit_grid parse_records "
               "project_to_2d",
    "voronoi": "VoronoiDomainPolygon VoronoiVector verify_partial_sums voronoi_domain "
               "voronoi_vectors",
}.items() for name in names.split()}
__all__ = sorted({*_HOME, *_HOME.values()})


def __getattr__(name):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value  # bound as an eager import binds it: later uses skip this call
        return value
    if name in __all__:  # a submodule: importing it binds it here
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
