"""Set-up phase of one workload, timed in a fresh interpreter.

Usage: python3 setup_child.py WORKLOAD SEED WORKDIR

Imports uavlift, generates the workload's scenarios and saves them under
WORKDIR, then prints one JSON line with the phase times in seconds.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import bootstrap  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    try:
        bootstrap.prepare()
    except bootstrap.MissingSourceError as exc:
        print(f"setup: {exc}", file=sys.stderr)
        return 2
    t_import = time.perf_counter()
    import uavlift

    bootstrap.check_imported(uavlift)
    import_s = time.perf_counter() - t_import

    import workloads

    t_generate = time.perf_counter()
    wl = workloads.build(workload, seed, workdir)
    generate_s = time.perf_counter() - t_generate

    t_save = time.perf_counter()
    workdir.mkdir(parents=True, exist_ok=True)
    for name, scenario in wl.scenarios.items():
        uavlift.save(scenario, workdir / f"{name}.json")
    save_s = time.perf_counter() - t_save

    total_s = time.perf_counter() - _T0
    print(json.dumps({
        "import_s": import_s, "generate_s": generate_s, "save_s": save_s, "total_s": total_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
