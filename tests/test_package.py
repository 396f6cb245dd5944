"""The package namespace: its public names, and the submodules a caller loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uavlift

# Each public name of `uavlift` and the submodule that defines it.
HOMES = {
    "channel": ("SPEED_OF_LIGHT", "lifetime", "path_loss", "rate", "required_power", "system_constant"),
    "errors": ("EmptyRegionError", "NumericalError", "ParseError", "UavliftError", "ValidationError"),
    "objective": ("ConcavityCertificate", "concavity_certificate", "gradient", "hessian", "nsd_scan", "value"),
    "oracle": ("GridSpec", "grid_search"),
    "region": ("FeasibleRegion", "RangeLimits", "build", "check_empty", "contains", "max_range_energy",
               "max_range_power", "project"),
    "rng": ("SplitMix64",),
    "scenario": ("AreaBounds", "ClusterSpec", "RfParams", "Scenario", "UserDevice", "generate_clustered",
                 "generate_uniform", "load", "save"),
    "solver": ("SolveReport", "SolverConfig", "solve"),
}
PUBLIC = sorted(name for names in HOMES.values() for name in names)


def python(args: list[str], cwd: Path | None = None) -> subprocess.CompletedProcess:
    """`python args` run in a fresh interpreter that imports this checkout's package."""
    src = str(Path(uavlift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd)


def run_python(code: str, cwd: Path | None = None) -> str:
    """stdout of `code` run in a fresh interpreter that imports this checkout's package."""
    done = python(["-c", code], cwd)
    done.check_returncode()
    return done.stdout


class TestPublicApi:
    def test_all_is_pinned(self):
        assert len(PUBLIC) == 40
        assert sorted(uavlift.__all__) == PUBLIC

    @pytest.mark.parametrize("home", sorted(HOMES))
    def test_each_name_is_its_home_modules_object(self, home):
        module = importlib.import_module(f"uavlift.{home}")
        for name in HOMES[home]:
            assert getattr(uavlift, name) is getattr(module, name)

    def test_star_import_binds_every_name(self):
        bound = run_python("from uavlift import *; print(sorted(k for k in dir() if not k.startswith('_')))")
        assert bound.strip() == repr(PUBLIC)

    def test_dir_lists_every_name(self):
        assert set(uavlift.__all__) <= set(dir(uavlift))
        assert "__version__" in dir(uavlift)

    def test_submodule_resolves_after_a_bare_import(self):
        out = run_python("import uavlift; print(uavlift.region.__name__, uavlift.region.build is uavlift.build)")
        assert out.split() == ["uavlift.region", "True"]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'uavlift' has no attribute 'nope'"):
            uavlift.nope


def test_setup_path_loads_no_solver_module(tmp_path):
    # What a set-up interpreter does: generate and save the inputs, which
    # loads the scenario module and what it imports alone, then read the
    # speed of light from `channel` as the benchmark's workloads do.
    code = (
        "import json, sys, uavlift\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'uavlift')\n"
        "bounds = uavlift.AreaBounds(0, 250, 0, 250, 650, 650)\n"
        "s = uavlift.generate_uniform(200, bounds, 4500, 18000, seed=9)\n"
        "uavlift.save(s, 's.json')\n"
        "print(json.dumps(loaded()))\n"
        "assert uavlift.load('s.json') == s and uavlift.SPEED_OF_LIGHT > 0\n"
        "print(json.dumps(loaded()))\n"
    )
    saved, loaded = map(json.loads, run_python(code, cwd=tmp_path).splitlines())
    assert saved == ["uavlift", "uavlift.errors", "uavlift.rng", "uavlift.scenario"]
    eager = {f"uavlift.{m}" for m in ("objective", "region", "oracle", "solver", "surface", "cli", "cases")}
    assert not eager & set(loaded), loaded
