"""Numerical laboratory for fractional powers of nondivergence-form elliptic
operators via the degenerate extension problem, with the quasi-metric geometry
machinery and the regularity measurement experiments built on top of it.

Importing the package loads numpy only: each scipy module is imported in the
function that calls it, so the geometry, the barriers and the sliding
paraboloids never load scipy."""

__version__ = "0.1.0"

from .geometry import MAGeometry, SectionDescriptor
from .gridfn import BoxGrid, GridFunction
from .semigroup import (CoefficientField, QuadratureSpec, SemigroupStepper,
                        ds_constant, fractional_apply, fractional_inverse)
from .extension import (ExtensionMesh, ExtensionProblem, ExtensionState, rescale_solution,
                        solve_extension, transform_to_y, transform_to_z)
from .barriers import (BarrierCase1, BarrierCase2, inf_convolution,
                       search_case2_parameters, slide_paraboloids, touch_test)
from .regularity import (campanato_iterate, harnack_quotient, holder_seminorm,
                         schauder_decay)
from .config import ExperimentConfig, load_config
from .runner import RunManifest, run

__all__ = [
    "MAGeometry", "SectionDescriptor",
    "BoxGrid", "GridFunction",
    "CoefficientField", "QuadratureSpec", "SemigroupStepper", "ds_constant",
    "fractional_apply", "fractional_inverse",
    "ExtensionMesh", "ExtensionProblem", "ExtensionState", "rescale_solution", "solve_extension",
    "transform_to_y", "transform_to_z",
    "BarrierCase1", "BarrierCase2", "inf_convolution", "search_case2_parameters",
    "slide_paraboloids", "touch_test",
    "campanato_iterate", "harnack_quotient", "holder_seminorm", "schauder_decay",
    "ExperimentConfig", "load_config", "RunManifest", "run",
]
