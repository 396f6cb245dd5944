"""uavlift: optimal placement of a single aerial base station that collects
uplink data, maximizing the summed transmission lifetimes of ground devices.

The public API mirrors the pipeline: build or load a :class:`Scenario`,
derive the system constant K (a float, :func:`system_constant`), inspect
the :class:`FeasibleRegion`, and run :func:`solve` (or the grid-search
oracle) over it.
"""

from .channel import (
    SPEED_OF_LIGHT,
    lifetime,
    path_loss,
    rate,
    required_power,
    system_constant,
)
from .errors import (
    ConfigurationError,
    EmptyRegionError,
    NumericalError,
    ParseError,
    UavliftError,
    ValidationError,
)
from .objective import (
    ConcavityCertificate,
    concavity_certificate,
    gradient,
    hessian,
    nsd_scan,
    value,
)
from .oracle import GridSpec, grid_search
from .region import (
    FeasibleRegion,
    RangeLimits,
    build,
    check_empty,
    contains,
    max_range_energy,
    max_range_power,
    project,
)
from .rng import SplitMix64
from .scenario import (
    AreaBounds,
    ClusterSpec,
    RfParams,
    Scenario,
    UserDevice,
    generate_clustered,
    generate_uniform,
    load,
    save,
)
from .solver import SolveReport, SolverConfig, solve

__version__ = "0.1.0"

__all__ = [
    "SPEED_OF_LIGHT",
    "AreaBounds",
    "ClusterSpec",
    "ConcavityCertificate",
    "ConfigurationError",
    "EmptyRegionError",
    "FeasibleRegion",
    "GridSpec",
    "NumericalError",
    "ParseError",
    "RangeLimits",
    "RfParams",
    "Scenario",
    "SolveReport",
    "SolverConfig",
    "SplitMix64",
    "UavliftError",
    "UserDevice",
    "ValidationError",
    "build",
    "check_empty",
    "concavity_certificate",
    "contains",
    "generate_clustered",
    "generate_uniform",
    "gradient",
    "grid_search",
    "hessian",
    "lifetime",
    "load",
    "max_range_energy",
    "max_range_power",
    "nsd_scan",
    "path_loss",
    "project",
    "rate",
    "required_power",
    "save",
    "solve",
    "system_constant",
    "value",
]
