"""Self-tests of the benchmark. Run with: python3 -m pytest perfbench -q"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bootstrap

bootstrap.prepare()

import calibration  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from uavlift.scenario import scenario_to_dict  # noqa: E402

BENCHMARK = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())


def _inputs(name: str, seed: int) -> dict:
    wl = workloads.build(name, seed, Path("w"))
    return {k: scenario_to_dict(s) for k, s in wl.scenarios.items()}, wl.commands


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    scenarios_7, _ = _inputs(name, 7)
    scenarios_8, _ = _inputs(name, 8)
    assert all(scenarios_7[k] != scenarios_8[k] for k in scenarios_7)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["region-binding", "oracle-grid"])
def test_binding_and_empty_validity_checks_hold(name, seed):
    answers = checks.Answers(workloads.build(name, seed, Path("w")))
    assert answers.validity
    assert [v for v in answers.validity if not v.ok] == []
    expected = {"region differs from box", "disk active at reference optimum",
                "region answer differs from box answer"}
    for instance in answers.wl.binding:
        assert expected <= {v.check for v in answers.validity if v.instance == instance}
    for instance in answers.wl.empty:
        assert "region empty by geometry" in {
            v.check for v in answers.validity if v.instance == instance}


def test_every_trace_hook_resolves():
    for module_name, attr, _name in (*tracer.HOOKS, tracer.CONTAINS):
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}")
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == []
    finally:
        t.uninstall()
    for module_name, attr, _name in tracer.HOOKS:
        assert not hasattr(getattr(importlib.import_module(module_name), attr), "__wrapped__")


def test_figures_read_hooked_spans_with_declared_units():
    span_names = {name for _m, _a, name in (*tracer.HOOKS, tracer.CONTAINS)}
    for name, (unit, sources, _value) in tracer.FIGURES.items():
        assert set(sources) <= span_names, name
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for name in declared.keys() & tracer.FIGURES.keys():
        assert tracer.FIGURES[name][0] == declared[name], name


def test_noop_ratio_counts_feasible_inputs():
    from uavlift import region

    scenario = workloads.binding_scenario(5, 1)
    feas = region.build(scenario)
    inside = workloads.apply_symmetry(workloads.symmetry(1), *workloads.ANCHOR)
    t = tracer.Tracer()
    t.install()
    try:
        t.command = 0
        region.project(feas, inside)
        region.project(feas, workloads.far_start(1))
        t.command = None
    finally:
        t.uninstall()
    assert region.contains(feas, inside, tol=0.0)
    assert t.counters["region.project_noop"] == 1
    figures = tracer.round_figures(t, {0}, t.counters, 1.0)
    assert figures["region.project_calls"] == 2
    assert figures["region.project_noop_ratio"] == 0.5


def test_speed_uses_samples_over_and_next_to_the_work():
    ref = calibration.REFERENCE_S
    sampler = calibration.Sampler()
    sampler.samples = [(0.0, ref), (1.0, 2 * ref), (2.0, ref), (3.0, 4 * ref)]
    assert sampler.speed(0.5, 1.5) == pytest.approx(0.75)   # ref, 2 ref, ref
    assert sampler.speed(2.0, 3.0) == pytest.approx(0.4)    # ref, 4 ref


def test_periodic_samples_are_left_out_of_the_clock():
    sampler = calibration.Sampler()
    with sampler.periodic():
        start, wall = sampler.clock(), time.perf_counter()
        while time.perf_counter() - wall < 1.2:
            pass
        measured, wall = sampler.clock() - start, time.perf_counter() - wall
    assert len(sampler.samples) >= 2
    assert measured == pytest.approx(wall - sum(s for _at, s in sampler.samples), abs=1e-3)


def test_tail_needs_ten_rounds_beyond():
    assert run.tail([1.0] * 10) is None
    pct, value = run.tail([float(i) for i in range(20)])
    assert pct == 50.0 and value == 9.0


def _result(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-box", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=bootstrap.ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(trace, key):
    result = _result(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bootstrap.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-box", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
