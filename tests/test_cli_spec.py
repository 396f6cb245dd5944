"""The command line's contract as one table, and the README's examples.

Each row of `ROWS` is one case of the six commands: the arguments after
`uavlift`, the exit code, a predicate on stdout and stderr, and the files
the row leaves in its own directory, no more and no fewer. A row names its
inputs by the names of the files the `inputs` fixture writes once for the
module. A row runs in one of three ways:

- `main`: in process, through `cli.main`;
- `main -W error`: the same, with warnings raised as errors, as `python -W
  error` raises them;
- `python -W error`: `python -W error -m uavlift.cli` in a fresh process,
  one row per command, each an error that must be one line on stderr
  with no traceback.

A case that a test of `test_cli.py` or `test_package.py` already holds is
not repeated here. The `uavlift` lines of the README's CLI block and its
Library example run here too, as written.
"""

import hashlib
import json
import math
import re
import shlex
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import pytest
from region_layouts import unit_scenario
from test_package import python

from uavlift.cli import main
from uavlift.scenario import AreaBounds, UserDevice, save

README = Path(__file__).resolve().parents[1] / "README.md"


def one_error(out: str, err: str) -> bool:
    """An input error: nothing on stdout and one `error:` line on stderr."""
    return out == "" and err.startswith("error: ") and err.count("\n") == 1


def err_is(line: str) -> Callable[[str, str], bool]:
    return lambda out, err: (out, err) == ("", line + "\n")


def out_has(text: str) -> Callable[[str, str], bool]:
    return lambda out, err: text in out


def nodes_below(count: int) -> Callable[[str, str], bool]:
    """`grid` evaluated fewer than `count` nodes."""
    return lambda out, err: int(re.search(r"\((\d+) nodes evaluated\)$", out)[1]) < count


def reports_a_gap_bound(out: str, err: str) -> bool:
    return err == "" and json.loads(Path("r.json").read_text())["gap_bound"] is not None


def lines(name: str) -> list[str]:
    return Path(name).read_text().splitlines()


TOTAL_ENERGY = ("error: the users' total energy must lie in "
                "[1.1830521861667747e-271, 8.452712498170644e+270] J, got inf")


@dataclass(frozen=True)
class Row:
    """One case: the arguments after `uavlift`, the exit code, a predicate
    on stdout and stderr (called in the row's directory, so it may read
    the files there), the files the row leaves, and how it runs."""

    argv: str
    exit: int
    expect: Callable[[str, str], bool] = lambda out, err: True
    writes: tuple[str, ...] = ()
    how: str = "main"

    def args(self, inputs: dict[str, Path]) -> list[str]:
        return [str(inputs[a]) if a in inputs else a for a in shlex.split(self.argv)]


ROWS = [
    # the generator stream and the file bytes, each user column one line
    Row("generate --count 200 --seed 9 --out out.json", 0,
        lambda out, err: hashlib.sha256(Path("out.json").read_bytes()).hexdigest()
        == "bddacd91d7583634baca1b21dedc290958b1619d416ad7b7d475f8b8a9f151b0",
        writes=("out.json",)),
    # the row layout of earlier versions, one object per user
    Row("solve rows.json --mode box", 2, one_error),
    # beyond the input domain: an altitude and energies `generate` refuses,
    # a layout scaled by 1e12, far starts and a surface altitude override
    Row("generate --count 200 --seed 9 --z-min 1e52 --out out.json", 2, one_error, how="main -W error"),
    Row("generate --count 2 --seed 1 --energy-low 1e300 --energy-high 1e300 --out out.json", 2, one_error,
        how="main -W error"),
    Row("check scaled.json", 2, one_error, how="main -W error"),
    Row("solve scaled.json --mode region --report r.json", 2, one_error, how="main -W error"),
    # the start is refused before the region, empty here, is built
    Row("solve s.json --mode region --init 1.7e308,1.7e308 --report r.json", 2, one_error, how="main -W error"),
    Row("solve s.json --mode box --init=-1e17,1e17 --report r.json", 2, one_error, how="main -W error"),
    Row("surface s.json --z 1e-160 --spacing 5 --out out.csv", 2, one_error, how="main -W error"),
    # at 500 m the paper's certificate fails, but each user's curvature
    # within its farthest box corner proves concavity: a gap bound and no
    # warning
    Row("solve z500.json --mode box --report r.json", 0, reports_a_gap_bound, writes=("r.json",)),
    # the three disks overlap in pairs but share no point: the best
    # placement misses some disk by 40/sqrt(3) - 21.5 m
    Row("check tri.json", 3, out_has(
        "region: EMPTY (disk intersection is empty: best placement still misses some disk by 1.59401 m)")),
    Row("grid s.json --spacing 5", 0),
    # the exact oracle prunes: under 1 000 of the 63 001 nodes at 650 m,
    # and fewer than all of them at 2 m, where the objective is not concave
    Row("grid s.json --spacing 1", 0, nodes_below(1000)),
    Row("grid z2.json --spacing 1", 0, nodes_below(63001)),
    # 51 x 51 nodes of the 250 m box: a header and one line or one cell each
    Row("surface s.json --spacing 5 --out x.csv", 0,
        lambda out, err: len(lines("x.csv")) == 2602 and lines("x.csv")[0] == "x,y,value", writes=("x.csv",)),
    Row("surface s.json --z 30 --spacing 5 --out x.svg", 0,
        lambda out, err: sum("<rect" in line for line in lines("x.svg")) == 2602, writes=("x.svg",)),
    # one error line from each command in a fresh interpreter, under -W error
    Row("generate --count 200 --seed 9 --z-min 1e-100 --out out.json", 2, one_error, how="python -W error"),
    # a subnormal system constant: the ranges overflow, with no warning
    # that -W error would turn into exit 4
    Row("check tiny-k.json", 2,
        err_is("error: range limits must be positive and finite; system constant K = 5.08351e-317 W/m^2"),
        how="python -W error"),
    # the non-concavity warning raised as an error: exit 4
    Row("solve z2.json --mode box", 4,
        err_is("error: objective may be non-concave: z_min = 2 m does not exceed sqrt(3)*d_max = 612.37 m; "
               "the ascent finds a local optimum"),
        how="python -W error"),
    # each energy is finite but their sum overflows
    Row("grid e.json --spacing 5", 2, err_is(TOTAL_ENERGY), how="python -W error"),
    Row("surface e.json --spacing 5 --out e.csv", 2, err_is(TOTAL_ENERGY), how="python -W error"),
    Row("reproduce --case uniform --seed 18446744073709551616", 2, one_error, how="python -W error"),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, Path]:
    """The files the rows read, by name: `generate --count 200 --seed 9` at
    650, 2 and 500 m, the subnormal-K file, and variants of the first
    written by hand, as the row layout, scaled by 1e12 or with energies
    whose sum overflows, and the triangle layout."""
    folder = tmp_path_factory.mktemp("inputs")
    for name, flags in [
        ("s.json", "--count 200 --seed 9"),
        ("z2.json", "--count 200 --seed 9 --z-min 2"),
        ("z500.json", "--count 200 --seed 9 --z-min 500"),
        ("tiny-k.json", "--count 3 --seed 1 --noise 1e-320"),
    ]:
        assert main(["generate", *flags.split(), "--out", str(folder / name)]) == 0
    doc = json.loads((folder / "s.json").read_text())
    users = doc["users"]
    rows = [dict(zip(users, values)) for values in zip(*users.values())]
    (folder / "rows.json").write_text(json.dumps({**doc, "users": rows}, indent=2))
    scaled = {key: [v * 1e12 for v in users[key]] for key in ("x", "y")}
    bounds = {**doc["bounds"], "x_max": 2.5e14, "y_max": 2.5e14}
    (folder / "scaled.json").write_text(json.dumps({**doc, "users": {**users, **scaled}, "bounds": bounds}))
    e = {"x": [0.0, 250.0], "y": [0.0, 250.0], "energy": [1e308, 1e308]}
    (folder / "e.json").write_text(json.dumps({**doc, "users": e, "seed": None}))
    # three unit-K users on an equilateral triangle of side 40 m, disk
    # radius 21.5 m at z = 10 m
    angles = [2 * math.pi * k / 3 for k in range(3)]
    tri = [UserDevice(50 + 40 / math.sqrt(3) * math.cos(a), 50 + 40 / math.sqrt(3) * math.sin(a), 21.5**2 + 10**2)
           for a in angles]
    save(unit_scenario(tri, AreaBounds(0, 100, 0, 100, 10, 10), p_max=1e6), folder / "tri.json")
    return {path.name: path for path in folder.iterdir()}


@pytest.mark.parametrize("row", ROWS, ids=lambda row: f"{row.how}: {row.argv}")
def test_row(row, inputs, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if row.how == "python -W error":
        done = python(["-W", "error", "-m", "uavlift.cli", *row.args(inputs)], cwd=tmp_path)
        code, out, err = done.returncode, done.stdout, done.stderr
        assert err.count("\n") == 1 and "Traceback" not in err, err
    else:
        with warnings.catch_warnings():
            if row.how == "main -W error":
                warnings.simplefilter("error")
            code = main(row.args(inputs))
        out, err = capsys.readouterr()
    assert code == row.exit, (out, err)
    assert row.expect(out, err), (out, err)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(row.writes)


def test_surface_holds_the_grids_best_node(inputs, tmp_path, capsys, monkeypatch):
    # the surface evaluates whole grid rows and `grid` only its leaves'
    # nodes: the 1 m surface has 63 001 lines and a header, and holds the
    # best node and value `grid` prints
    monkeypatch.chdir(tmp_path)
    assert main(["grid", str(inputs["s.json"]), "--spacing", "1"]) == 0
    best = re.match(r"best \(([^,]+), ([^)]+)\) value (\S+) ", capsys.readouterr().out)
    assert main(["surface", str(inputs["s.json"]), "--spacing", "1", "--out", "y.csv"]) == 0
    capsys.readouterr()
    surface = lines("y.csv")
    x, y = float(best[1]), float(best[2])
    values = [f"{float(v):.6f}" for a, b, v in (line.split(",") for line in surface[1:])
              if float(a) == x and float(b) == y]
    assert (len(surface), values) == (63002, [best[3]])


def readme_block(heading: str, language: str) -> list[str]:
    """The lines of the first ```language block under the README's
    `## heading`."""
    lines = README.read_text().splitlines()
    start = lines.index(f"```{language}", lines.index(f"## {heading}"))
    return lines[start + 1:lines.index("```", start + 1)]


def readme_commands() -> list[tuple[list[str], int]]:
    """Each `uavlift` line of the README's CLI block, continuation lines
    joined, as its arguments and exit code: 0 unless the line ends in
    `# exit N`."""
    commands = []
    for line in "\n".join(readme_block("CLI", "sh")).replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "uavlift", line
            code = re.search(r"# exit (\d+)$", line)
            commands.append((argv[1:], int(code[1]) if code else 0))
    return commands


README_COMMANDS = readme_commands()


@pytest.mark.parametrize("argv, code", README_COMMANDS, ids=[" ".join(argv) for argv, _ in README_COMMANDS])
def test_readme_cli_line(argv, code, tmp_path, capsys, monkeypatch):
    # each line runs in a directory where the block's `generate` lines
    # have written the scenario the others read
    monkeypatch.chdir(tmp_path)
    for setup, _ in README_COMMANDS:
        if setup[0] == "generate" and setup != argv:
            assert main(setup) == 0
    assert main(argv) == code
    capsys.readouterr()


def test_readme_library_example(tmp_path):
    (tmp_path / "library.py").write_text("\n".join(readme_block("Library", "python")) + "\n")
    done = python(["library.py"], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
