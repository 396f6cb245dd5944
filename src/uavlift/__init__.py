"""uavlift: optimal placement of a single aerial base station that collects
uplink data, maximizing the summed transmission lifetimes of ground devices.

The public API mirrors the pipeline: build or load a :class:`Scenario`,
derive the system constant K (a float, :func:`system_constant`), inspect
the :class:`FeasibleRegion`, and run :func:`solve` (or the grid-search
oracle) over it.

Every public name lives in one submodule, listed in ``_EXPORTS``, and that
submodule is imported on the first access to one of its names (PEP 562).
So ``import uavlift`` loads no submodule, and a caller that only generates
and saves scenarios never loads the objective, region, oracle or solver.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "channel": ("SPEED_OF_LIGHT", "lifetime", "path_loss", "rate", "required_power", "system_constant"),
    "errors": ("EmptyRegionError", "NumericalError", "ParseError", "UavliftError", "ValidationError"),
    "objective": ("ConcavityCertificate", "concavity_certificate", "gradient", "hessian", "nsd_scan", "value"),
    "oracle": ("GridSpec", "grid_search"),
    "region": (
        "FeasibleRegion", "RangeLimits", "build", "check_empty", "contains", "max_range_energy",
        "max_range_power", "project",
    ),
    "rng": ("SplitMix64",),
    "scenario": (
        "AreaBounds", "ClusterSpec", "RfParams", "Scenario", "UserDevice", "generate_clustered",
        "generate_uniform", "load", "save",
    ),
    "solver": ("SolveReport", "SolverConfig", "solve"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    home = name if name in _EXPORTS else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, which `python -X importtime` times
    # (it does not time a module that importlib.import_module loads); the
    # import binds the submodule in this package's globals
    __import__(f"{__name__}.{home}")
    module = globals()[home]
    if name == home:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
