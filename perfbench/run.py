"""Benchmark entry point: one workload and one seed per process.

    python3 perfbench/run.py --workload paper-box --seed 1 --seconds 25 --trace 0

Set-up is timed in fresh interpreters that import uavlift and write the
workload's scenario files. The process then builds its answer references,
and runs rounds of the workload's commands in-process through
``uavlift.cli.main``, one after another (a closed loop with one client),
checking every answer outside the timed region. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs untraced rounds, then traced rounds,
and reports the per-layer metrics. The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import bootstrap
import calibration

# Set-up interpreters per run: one before the first round, the rest spread
# between rounds so that their median sees the same machine as the rounds.
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120
# In a traced run, this share of --seconds goes to untraced rounds, the
# rest to traced rounds; the two give trace.overhead_ratio.
UNTRACED_SHARE = 0.4
COMMAND_KINDS = ("reproduce", "solve_box", "solve_region", "check", "grid", "surface")


def declared_metrics(kind: str) -> dict[str, str]:
    """Result-line metric names and units of `kind` ("end_to_end" or
    "per_layer"), as BENCHMARK.json declares them."""
    benchmark = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in benchmark[kind]}


class SetupError(RuntimeError):
    pass


@dataclass
class CommandRun:
    index: int
    kind: str
    argv: tuple[str, ...]
    seconds: float
    exit: int | None
    ok: bool
    reason: str | None
    fingerprint: tuple
    gap: float | None
    start: float = 0.0  # Sampler.clock() reading when the command started
    speed: float = 1.0  # Sampler.speed() over the command


@dataclass
class Round:
    traced: bool
    commands: list[CommandRun] = field(default_factory=list)
    ids: set[int] = field(default_factory=set)
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Wall time of the round's commands."""
        return sum(c.seconds for c in self.commands)

    @property
    def ref_seconds(self) -> float:
        """The same at the calibration's reference speed."""
        return sum(c.seconds * c.speed for c in self.commands)

    @property
    def speed(self) -> float:
        return self.ref_seconds / self.seconds

    def kind_seconds(self, kind: str) -> float:
        return sum(c.seconds * c.speed for c in self.commands if c.kind == kind)


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


class Setups:
    """Set-up phases, each in a fresh interpreter that imports uavlift and
    writes the workload's scenario files.

    The first writes the files the commands read; ``spread`` runs the rest
    between rounds, into directories of their own. Each is scaled by the
    kernel samples just before and just after it.
    """

    def __init__(self, workload: str, seed: int, workdir: Path, sampler: calibration.Sampler):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.sampler = sampler
        self.timings: list[dict] = []
        self.run(workdir)

    def run(self, workdir: Path) -> None:
        child = Path(__file__).resolve().parent / "setup_child.py"
        self.sampler.sample()
        start = self.sampler.clock()
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(
            [sys.executable, str(child), self.workload, str(self.seed), str(workdir)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=bootstrap.ROOT,
        )
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        end = self.sampler.clock()
        self.sampler.sample()
        if proc.returncode != 0:
            raise SetupError(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
        timing = json.loads(proc.stdout.strip().splitlines()[-1])
        timing["speed"] = self.sampler.speed(start, end)
        # CPU time of the whole child process, interpreter start included.
        timing["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        self.timings.append(timing)

    def spread(self, done: float, last: bool) -> None:
        """Catch up to the share `done` of the run, or finish when `last`."""
        due = SETUP_REPEATS if last else 1 + int((SETUP_REPEATS - 1) * done)
        while len(self.timings) < due:
            self.run(self.workdir / f"setup-{len(self.timings)}")

    def median(self, key: str) -> float:
        return median(t[key] for t in self.timings)

    def ref_median(self) -> float:
        """Median set-up time at the calibration's reference speed."""
        return median(t["total_s"] * t["speed"] for t in self.timings)


def environment(args, root: Path) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "thread_pins": {k: os.environ.get(k) for k in bootstrap.THREAD_PINS},
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; the benchmark's
    checkout is usually not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unavailable (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    with contextlib.suppress(OSError):
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unresolved {ref}"


def run_rounds(
    wl, answers, budget_s: float, tracer, first_id: int, reference: list[tuple],
    sampler: calibration.Sampler, between=None,
) -> list[Round]:
    """Closed loop: rounds back to back until the next one would overrun the
    budget, at least one. `reference` holds each command's first fingerprint.
    After each round, ``between(share of the budget spent, last round)``
    runs outside the budget.

    The calibration kernel runs at the start and end of each round and
    every calibration.INTERVAL_S within it; command times leave those
    samples out, and each command is scaled by the samples over it."""
    rounds: list[Round] = []
    spent = 0.0
    next_id = first_id
    while True:
        start = time.perf_counter()
        with sampler.periodic():
            rnd = timed_round(wl, answers, tracer, next_id, reference, sampler)
        for c in rnd.commands:
            c.speed = sampler.speed(c.start, c.start + c.seconds)
        next_id += len(rnd.commands)
        rounds.append(rnd)
        spent += time.perf_counter() - start
        last = spent + spent / len(rounds) > budget_s
        if between is not None:
            between(spent / budget_s, last)
        if last:
            return rounds


def timed_round(wl, answers, tracer, next_id: int, reference: list[tuple], sampler) -> Round:
    """One pass over the workload's commands, each timed and then checked."""
    import checks
    from uavlift import cli

    rnd = Round(traced=tracer is not None)
    if tracer is not None:
        tracer.counters.clear()
    sampler.sample()
    for index, cmd in enumerate(wl.commands):
        if cmd.output is not None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(cmd.output)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.command = next_id
        crash = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = sampler.clock()
            try:
                rc = cli.main(list(cmd.argv))
            except Exception:  # a crash is a failed command, not a stopped run
                rc = None
                crash = traceback.format_exc().strip().splitlines()[-1]
            t1 = sampler.clock()
        if tracer is not None:
            tracer.command = None
        if crash is not None:
            outcome = checks.Outcome(False, f"raised {crash}", (None,))
        else:
            outcome = answers.check(cmd, rc, out.getvalue())
        ok, reason = outcome.ok, outcome.reason
        if len(reference) <= index:
            reference.append(outcome.fingerprint)
        elif ok and outcome.fingerprint != reference[index]:
            ok, reason = False, f"answer changed between rounds: {outcome.fingerprint}"
        rnd.commands.append(CommandRun(
            index, cmd.kind, cmd.argv, t1 - t0, rc, ok, reason, outcome.fingerprint,
            outcome.gap, start=t0))
        rnd.ids.add(next_id)
        next_id += 1
    sampler.sample()
    if tracer is not None:
        rnd.counters = dict(tracer.counters)
    return rnd


def _line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<30} {value:>16.6g} {unit:<6} {note}".rstrip())


def kind_metrics(rounds: list[Round]) -> dict[str, dict]:
    """Per-command-kind time per round: median, round count and tail."""
    out = {}
    for kind in COMMAND_KINDS:
        if not any(c.kind == kind for c in rounds[0].commands):
            continue
        out[f"{kind}_s"] = kind_entry([r.kind_seconds(kind) for r in rounds])
    return out


def kind_entry(values: list[float]) -> dict:
    entry = {"median_s": median(values), "rounds": len(values)}
    t = tail(values)
    if t is not None:
        entry["tail_percentile"], entry["tail_s"] = t
    return entry


def print_kinds(kinds: dict[str, dict]) -> None:
    for name, entry in kinds.items():
        tail_note = (
            f"p{entry['tail_percentile']:.1f} {entry['tail_s']:.6g} s as {name}.tail"
            if "tail_s" in entry else "no tail: needs more than 10 rounds"
        )
        _line(name, entry["median_s"], "s", f"median of {entry['rounds']} rounds; {tail_note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        root = bootstrap.prepare()
        import uavlift

        bootstrap.check_imported(uavlift)
    except (bootstrap.MissingSourceError, ImportError) as exc:
        print(f"perfbench: cannot measure: {exc}", file=sys.stderr)
        return 2

    import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = bootstrap.WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    results = bootstrap.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, root, workdir, results)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args, names) -> int:
    """Every workload in turn, each in its own fresh process."""
    worst = 0
    for name in names:
        sys.stdout.flush()
        proc = subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def measure(args, root: Path, workdir: Path, results: Path) -> int:
    import checks
    import tracer as tracing
    import workloads

    env = environment(args, root)
    print(f"perfbench {args.workload} seed {args.seed}: " + json.dumps(env))
    sampler = calibration.Sampler()
    setups = Setups(args.workload, args.seed, workdir, sampler)
    wl = workloads.build(args.workload, args.seed, workdir)
    answers = checks.Answers(wl)

    fingerprints: list[tuple] = []
    tracer = None
    if args.trace:
        untraced = run_rounds(
            wl, answers, UNTRACED_SHARE * args.seconds, None, 0, fingerprints, sampler,
            setups.spread)
        tracer = tracing.Tracer(sampler.clock)
        tracer.install()
        try:
            traced = run_rounds(
                wl, answers, (1.0 - UNTRACED_SHARE) * args.seconds, tracer,
                sum(len(r.commands) for r in untraced), fingerprints, sampler)
        finally:
            tracer.uninstall()
        rounds = untraced + traced
    else:
        rounds = run_rounds(
            wl, answers, args.seconds, None, 0, fingerprints, sampler, setups.spread)

    runs = [c for r in rounds for c in r.commands]
    failures = [c for c in runs if not c.ok]
    gaps = [c.gap for c in runs if c.gap is not None]
    gap = max(gaps) if gaps else 0.0
    invalid = [v for v in answers.validity if not v.ok]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print("validity checks:")
    for v in answers.validity:
        print(f"  {'PASS' if v.ok else 'FAIL'} {v.instance}: {v.check} ({v.detail})")
    for c in failures:
        print(f"FAILED round command {c.index} {' '.join(c.argv)}: {c.reason}")

    plain = [r for r in rounds if not r.traced]
    kinds = kind_metrics(plain)
    round_s = median(r.ref_seconds for r in plain)
    n_set = len(setups.timings)
    print("end-to-end (untraced rounds; times at the calibration's reference speed):")
    _line("setup_s", setups.ref_median(), "s", f"median of {n_set} fresh interpreters")
    print_kinds(kinds)
    print_kinds({"round_s": kind_entry([r.ref_seconds for r in plain])})
    _line("error_rate", len(failures) / len(runs), "ratio", f"{len(failures)} of {len(runs)} commands failed")
    _line("objective_gap_rel", gap, "ratio", f"worst over {len(gaps)} solve answers")
    _line("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss of this process")
    print("as measured:")
    _line("setup_wall_s", setups.median("total_s"), "s", f"median of {n_set}")
    _line("setup_cpu_s", setups.median("cpu_s"), "s", "median CPU time of the set-up processes")
    _line("round_wall_s", median(r.seconds for r in plain), "s", f"median of {len(plain)} rounds")
    _line("speed", median(r.speed for r in plain), "ratio", "calibration speed factor, median over rounds")

    record = {
        "environment": env,
        "calibration_reference_s": calibration.REFERENCE_S,
        "setup": setups.timings,
        "commands": [{"kind": c.kind, "argv": list(c.argv)} for c in wl.commands],
        "rounds": [
            {"traced": r.traced, "seconds": r.seconds, "speed": r.speed, "commands": [
                {"index": c.index, "seconds": c.seconds, "speed": c.speed, "exit": c.exit, "ok": c.ok,
                 "reason": c.reason, "fingerprint": list(c.fingerprint), "gap": c.gap}
                for c in r.commands]}
            for r in rounds
        ],
        "validity": [v.__dict__ for v in answers.validity],
        "kinds": kinds,
        "error_rate": len(failures) / len(runs),
        "objective_gap_rel": gap,
    }

    if args.trace:
        traced_rounds = [r for r in rounds if r.traced]
        figures = tracing.median_figures([
            tracing.round_figures(tracer, r.ids, r.counters, r.seconds) for r in traced_rounds])
        traced_s = median(r.ref_seconds for r in traced_rounds)
        figures.update({
            "import.uavlift_ms": 1e3 * setups.median("import_s"),
            "scenario.generate_ms": 1e3 * setups.median("generate_s"),
            "scenario.save_ms": 1e3 * setups.median("save_s"),
            "trace.round_s": traced_s,
            "trace.overhead_ratio": traced_s / round_s - 1.0,
            "wall.round_s": median(r.seconds for r in plain),
            "wall.setup_s": setups.median("total_s"),
            "answer.objective_gap_rel": gap,
        })
        declared = declared_metrics("per_layer")
        units = {**{k: u for k, (u, _s, _v) in tracing.FIGURES.items()}, **declared}
        print(f"per-layer (median of {len(traced_rounds)} traced rounds):")
        for name, value in figures.items():
            _line(name, value, units[name])
        accounted = median(
            sum(tracing.self_times(tracer.spans, r.ids).values()) / r.seconds for r in traced_rounds)
        print(f"  layer self times cover {accounted:.6f} of the measured traced round time")
        for name in tracer.missing:
            print(f"  MISSING hook for {name}: its metrics are not reported")
        spans_path = results / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write(spans_path)
        record["per_layer"] = figures
        record["missing_hooks"] = tracer.missing
        record["spans"] = str(spans_path.relative_to(root))
        metrics = {k: {"value": figures[k], "unit": u} for k, u in declared.items() if k in figures}
    else:
        values = {"setup_s": setups.ref_median(), "round_s": round_s, "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": values[k], "unit": u} for k, u in declared_metrics("end_to_end").items()}

    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"results: {out_path.relative_to(root)}")
    print(json.dumps({
        "correct": not failures and not invalid,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
