import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from region_layouts import random_region, unit_scenario

from uavlift import cases
from uavlift.cli import _build_parser, main
from uavlift.region import build, contains
from uavlift.scenario import (
    ALTITUDE_LIMITS,
    COORD_LIMIT,
    DEFAULT_RF,
    ENERGY_LIMITS,
    MIN_SIDE,
    AreaBounds,
    RfParams,
    Scenario,
    UserArrays,
    UserDevice,
    generate_uniform,
    load,
    save,
    scenario_to_dict,
)

TOTAL_ENERGY = f"[{ENERGY_LIMITS[0]!r}, {ENERGY_LIMITS[1]!r}]"


@pytest.fixture()
def reference_file(tmp_path):
    path = tmp_path / "reference.json"
    rc = main([
        "generate", "--count", "200", "--area", "250x250",
        "--energy-low", "4500", "--energy-high", "18000",
        "--seed", "9", "--out", str(path),
    ])
    assert rc == 0
    return path


@pytest.fixture()
def relaxed_file(tmp_path):
    path = tmp_path / "relaxed.json"
    rc = main([
        "generate", "--count", "30", "--area", "50x50", "--z-min", "130",
        "--seed", "5", "--out", str(path),
    ])
    assert rc == 0
    return path


class TestGenerate:
    def test_writes_a_valid_scenario(self, reference_file, capsys):
        scenario = load(reference_file)
        assert len(scenario.users) == 200
        assert scenario.seed == 9

    def test_echoes_the_seed(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        main(["generate", "--count", "5", "--seed", "123", "--out", str(path)])
        assert "seed 123" in capsys.readouterr().out

    def test_determinism_byte_for_byte(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["generate", "--count", "50", "--seed", "4", "--out"]
        main(argv + [str(a)])
        main(argv + [str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_generator_stream_is_pinned_apart_from_the_file_layout(self, reference_file):
        # sha256 of the xs, ys and es bytes, the same when loaded from the
        # row-layout file that earlier versions wrote for these flags
        s = load(reference_file)
        digest = hashlib.sha256(b"".join(a.tobytes() for a in s.users.arrays)).hexdigest()
        assert digest == "f291096db08272dcd1ceeba31f8b4bfef7ddbaf1dc73013b0233db0afc92dce7"

    def test_defaults_are_the_paper_parameters(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        assert main(["generate", "--count", "3", "--seed", "1", "--out", str(path)]) == 0
        scenario = load(path)
        assert (scenario.rf, scenario.bounds) == (DEFAULT_RF, cases.BOUNDS)

    @pytest.mark.parametrize("field", ["rate", "bandwidth", "noise", "frequency", "p_max", "tau_th"])
    def test_radio_flag_sets_only_its_field(self, tmp_path, capsys, field):
        path = tmp_path / "s.json"
        flag = "--" + field.replace("_", "-")
        assert main(["generate", "--count", "3", "--seed", "1", flag, "0.25", "--out", str(path)]) == 0
        assert load(path).rf == dataclasses.replace(DEFAULT_RF, **{field: 0.25})

    def test_missing_count_is_usage_error(self, tmp_path, capsys):
        assert main(["generate", "--seed", "1", "--out", str(tmp_path / "x.json")]) == 2
        capsys.readouterr()

    def test_cluster_flag_produces_nonuniform_file(self, tmp_path):
        path = tmp_path / "clusters.json"
        rc = main([
            "generate", "--seed", "2", "--out", str(path),
            "--clusters", "75,150,25,150,4500,18000;200,60,25,50,4500,18000",
        ])
        assert rc == 0
        scenario = load(path)
        assert len(scenario.users) == 200
        left = sum(1 for u in scenario.users if u.x < 125)
        assert left > 100  # the dense cluster sits on the left half


    def test_non_finite_cluster_field_is_usage_error(self, tmp_path, capsys):
        rc = main([
            "generate", "--seed", "1", "--out", str(tmp_path / "x.json"),
            "--clusters", "100,100,nan,3,4500,18000",
        ])
        assert rc == 2
        assert "finite" in capsys.readouterr().err


class TestCheck:
    def test_reference_setup_is_infeasible_exit_3(self, reference_file, capsys):
        rc = main(["check", str(reference_file), "--c", "3e8"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "power" in out
        assert "164.8" in out
        assert "holds" in out  # the concavity certificate still holds at 650 m

    def test_relaxed_setup_is_feasible_exit_0(self, relaxed_file, capsys):
        rc = main(["check", str(relaxed_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "non-empty" in out
        assert "d_power" in out  # per-user table header

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["check", "/nonexistent/file.json"]) == 2
        capsys.readouterr()

    def test_directory_is_usage_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["check", str(path)]) == 2
        assert f"{path} is not UTF-8 text" in capsys.readouterr().err

    def test_deeply_nested_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path} nests arrays or objects too deeply to parse\n"

    @pytest.mark.parametrize("command", [["check"], ["solve", "--mode", "box"]],
                             ids=["check", "solve-box"])
    @pytest.mark.parametrize("flags, error", [
        # 2^(1e-10 * 5 / 1e10) - 1 rounds to 0.0
        (["--count", "5", "--rate", "1e-10", "--bandwidth", "1e10", "--seed", "1"],
         "system constant must be positive, got 0.0"),
        # 65535 * 1e300 * (4*pi*f/c)^2 overflows; box mode would report a 0 s lifetime
        (["--count", "200", "--noise", "1e300", "--seed", "9"], "system constant overflows to inf"),
    ], ids=["underflow", "overflow"])
    def test_system_constant_underflow_is_input_error(self, tmp_path, capsys, command, flags, error):
        path = tmp_path / "extreme-k.json"
        assert main(["generate", *flags, "--out", str(path)]) == 0
        capsys.readouterr()
        assert main([command[0], str(path), *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert error in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command, error", [
        (["check"], "range limits must be positive and finite"),
        (["solve", "--mode", "box"], "lifetime overflows"),
        (["solve", "--mode", "region"], "range limits must be positive and finite"),
    ], ids=["check", "solve-box", "solve-region"])
    def test_subnormal_system_constant_is_input_error(self, tmp_path, capsys, command, error):
        # noise 1e-320 gives K = 5.08e-317: 0.5/K, each E/(tau_th*K) and the
        # lifetime objective/K overflow
        path = tmp_path / "subnormal-k.json"
        flags = ["--count", "3", "--seed", "1", "--noise", "1e-320"]
        assert main(["generate", *flags, "--out", str(path)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error: no overflow warning
            assert main([command[0], str(path), *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {error}") and err.count("\n") == 1
        assert "K = 5.08351e-317 W/m^2\n" in err
        assert out == ""


CHECK_HEADER = " user   d_power(m)  d_energy(m)   d_limit(m)  radius2d(m)\n"


def _lens_file(tmp_path):
    """Three devices at unit system constant whose disks (radii 22.91, 20 and
    24.49 m at z = 10 m) cut the 40 m box and meet in a lens."""
    rf = RfParams(
        rate=1.0, bandwidth=3.0, noise=1.0,
        frequency=299792458.0 / (4.0 * math.pi), p_max=1e6, tau_th=1.0,
    )
    users = (UserDevice(10, 10, 625.0), UserDevice(30, 12, 500.0), UserDevice(20, 30, 700.0))
    path = tmp_path / "lens.json"
    save(Scenario(users=users, rf=rf, bounds=AreaBounds(0, 40, 0, 40, 10, 10)), path)
    return path


class TestCheckOutput:
    """`check`'s per-user table and verdict, pinned byte for byte."""

    def test_empty_by_range_for_all_users(self, reference_file, capsys):
        assert main(["check", str(reference_file), "--c", "3e8"]) == 3
        out = capsys.readouterr().out
        lines = out.splitlines(keepends=True)
        assert len(lines) == 203
        assert lines[:3] == [
            CHECK_HEADER,
            "    0       164.85       698.63       164.85            -\n",
            "    1       164.85       604.33       164.85            -\n",
        ]
        assert lines[-3:] == [
            "  199       164.85       929.98       164.85            -\n",
            "concavity certificate: z_min 650 m vs sqrt(3)*d_max 612.37 m (d_max 353.55 m): holds\n",
            "region: EMPTY (power constraint unsatisfiable at altitude 650 m: "
            "d_limit = 164.85 m <= z_min = 650 m for all users)\n",
        ]
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "f32f370c6190d819c104860306b3e01907ae7f7c7c615b16a934a2c23e2589cf"

    def test_empty_by_range_for_some_users(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        assert main([
            "generate", "--count", "8", "--area", "50x50", "--energy-low", "1",
            "--energy-high", "18000", "--seed", "3", "--z-min", "5000", "--tau-th", "1e6",
            "--out", str(path),
        ]) == 0
        capsys.readouterr()
        assert main(["check", str(path)]) == 3
        assert capsys.readouterr().out == CHECK_HEADER + (
            "    0     56440.48      8384.38      8384.38      6730.36\n"
            "    1     56440.48      8541.88      8541.88      6925.58\n"
            "    2     56440.48      7504.52      7504.52      5596.23\n"
            "    3     56440.48      9035.50      9035.50      7525.97\n"
            "    4     56440.48      9070.32      9070.32      7567.74\n"
            "    5     56440.48      3452.75      3452.75            -\n"
            "    6     56440.48      9693.92      9693.92      8304.94\n"
            "    7     56440.48      4681.96      4681.96            -\n"
            "concavity certificate: z_min 5000 m vs sqrt(3)*d_max 122.47 m (d_max 70.71 m): holds\n"
            "region: EMPTY (energy constraint unsatisfiable at altitude 5000 m: "
            "d_limit = 3452.75 m <= z_min = 5000 m for 2 of 8 users (worst: user 5))\n"
        )

    def test_binding_disks_non_empty(self, tmp_path, capsys):
        assert main(["check", str(_lens_file(tmp_path))]) == 0
        assert capsys.readouterr().out == CHECK_HEADER + (
            "    0      1000.00        25.00        25.00        22.91\n"
            "    1      1000.00        22.36        22.36        20.00\n"
            "    2      1000.00        26.46        26.46        24.49\n"
            "concavity certificate: z_min 10 m vs sqrt(3)*d_max 97.98 m (d_max 56.57 m): fails\n"
            "region: non-empty (3 disks intersected with the box)\n"
        )


class TestSolve:
    def test_region_mode_infeasible_exit_3(self, reference_file, capsys):
        rc = main(["solve", str(reference_file), "--mode", "region", "--c", "3e8"])
        err = capsys.readouterr()
        assert rc == 3
        assert "power" in err.out

    def test_box_mode_summary(self, reference_file, capsys):
        rc = main(["solve", str(reference_file), "--mode", "box", "--c", "3e8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "placement" in out and "objective" in out and "lifetime" in out

    def test_box_mode_converges_at_default_settings(self, reference_file, capsys):
        rc = main(["solve", str(reference_file), "--mode", "box", "--c", "3e8"])
        assert rc == 0
        assert "converged true" in capsys.readouterr().out

    def test_library_warning_is_one_line_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "z2.json"
        assert main(["generate", "--count", "200", "--seed", "9", "--z-min", "2", "--out", str(path)]) == 0
        capsys.readouterr()
        for _ in range(2):  # once per command, not once per process
            assert main(["solve", str(path), "--mode", "box"]) == 0
            assert capsys.readouterr().err == (
                "warning: objective may be non-concave: z_min = 2 m does not exceed "
                "sqrt(3)*d_max = 612.37 m; the ascent finds a local optimum\n"
            )

    def test_warning_raised_as_error_is_one_line_and_exit_4(self, tmp_path, capsys):
        # what `python -W error -m uavlift.cli solve ...` does to the same warning
        path = tmp_path / "z2.json"
        assert main(["generate", "--count", "200", "--seed", "9", "--z-min", "2", "--out", str(path)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", str(path), "--mode", "box"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.out == ""
        assert captured.err == (
            "error: objective may be non-concave: z_min = 2 m does not exceed "
            "sqrt(3)*d_max = 612.37 m; the ascent finds a local optimum\n"
        )

    def test_honest_convergence_with_one_iteration(self, relaxed_file, capsys):
        rc = main(["solve", str(relaxed_file), "--mode", "box", "--max-iters", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged false" in out

    def test_report_and_trajectory_files(self, relaxed_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        traj = tmp_path / "trajectory.csv"
        rc = main([
            "solve", str(relaxed_file), "--mode", "region",
            "--report", str(report), "--trajectory", str(traj),
        ])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["converged"] in (True, False)
        assert doc["placement"] is not None
        assert traj.read_text().startswith("iteration,x,y,objective")

    def test_trajectory_into_a_directory_is_usage_error(self, relaxed_file, tmp_path, capsys):
        argv = ["solve", str(relaxed_file), "--mode", "box", "--trajectory", str(tmp_path)]
        assert main(argv) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_non_finite_init_is_input_error_exit_2(self, relaxed_file, capsys):
        assert main(["solve", str(relaxed_file), "--init", "nan,0"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--gamma", "--eps"])
    def test_non_finite_number_flag_is_rejected_by_the_parser(self, flag, capsys):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["solve", "s.json", flag, "inf"])
        assert "finite" in capsys.readouterr().err

    def test_explicit_gamma_and_eps(self, relaxed_file, capsys):
        rc = main([
            "solve", str(relaxed_file), "--mode", "box",
            "--gamma", "1e4", "--eps", "1e-5", "--max-iters", "2000",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged true" in out


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    assert _build_parser() is _build_parser()
    path = tmp_path / "s.json"
    assert main(["generate", "--count", "5", "--seed", "1", "--out", str(path)]) == 0
    assert main(["solve", str(path), "--mode", "sideways"]) == 2
    assert main(["solve", str(path), "--mode", "box"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("literal", ["Infinity", "1e400"])
@pytest.mark.parametrize("command", ["check", "solve"])
def test_non_finite_energy_is_input_error_exit_2(relaxed_file, tmp_path, capsys, command, literal):
    doc = json.loads(relaxed_file.read_text())
    doc["users"]["energy"][0] = "NUMBER"
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps(doc).replace('"NUMBER"', literal))
    assert main([command, str(path)]) == 2
    assert "users[0].energy" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["generate", "--count", "5", "--seed", "-1"],
    ["reproduce", "--case", "uniform", "--seed", "-1"],
    ["solve", "SCENARIO", "--mode", "box", "--init", "random", "--init-seed", "-1"],
], ids=["generate", "reproduce", "solve"])
def test_negative_seed_is_usage_error(relaxed_file, tmp_path, capsys, argv):
    argv = [str(relaxed_file) if a == "SCENARIO" else a for a in argv]
    if argv[0] == "generate":
        argv += ["--out", str(tmp_path / "never.json")]
    assert main(argv) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["generate", "--count", "5", "--seed", "SEED"],
    ["reproduce", "--case", "uniform", "--seed", "SEED"],
    ["reproduce", "--case", "concavity", "--seed", "SEED"],
    ["solve", "SCENARIO", "--mode", "box", "--init", "random", "--init-seed", "SEED"],
    ["solve", "SCENARIO", "--mode", "box", "--init-seed", "SEED"],
], ids=["generate", "reproduce-uniform", "reproduce-concavity", "solve-random", "solve-centroid"])
@pytest.mark.parametrize("seed", [2**64, 2**64 + 9, 2**200], ids=["2^64", "2^64+9", "2^200"])
def test_seed_beyond_64_bits_is_usage_error(relaxed_file, tmp_path, capsys, argv, seed):
    # SplitMix64 keeps 64 bits of state: 2**64 + s would silently replay seed s.
    argv = [str(relaxed_file) if a == "SCENARIO" else str(seed) if a == "SEED" else a for a in argv]
    out = tmp_path / "never.json"
    if argv[0] == "generate":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert "below 2**64" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["check"], ["solve", "--mode", "box"]], ids=["check", "solve"])
@pytest.mark.parametrize("seed", [2**64, 2**64 + 9], ids=["2^64", "2^64+9"])
def test_file_seed_beyond_64_bits_is_usage_error(relaxed_file, tmp_path, capsys, command, seed):
    path = tmp_path / "big-seed.json"
    doc = json.loads(relaxed_file.read_text())
    doc["seed"] = seed
    path.write_text(json.dumps(doc))
    assert main([command[0], str(path), *command[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"seed must be a non-negative integer below 2**64, got {seed}" in err


def test_largest_seed_still_works(tmp_path, capsys):
    path = tmp_path / "edge.json"
    seed = str(2**64 - 1)
    assert main(["generate", "--count", "5", "--seed", seed, "--out", str(path)]) == 0
    assert load(path).seed == 2**64 - 1
    assert main(["solve", str(path), "--mode", "box", "--init", "random", "--init-seed", seed]) == 0
    capsys.readouterr()


LOWEST, HIGHEST = (repr(z) for z in ALTITUDE_LIMITS)


def refused(argv, capsys, field, tmp_path) -> None:
    """`argv` exits 2 with one error line naming `field`, under warnings as
    errors, and writes no file in `tmp_path` that was not there."""
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2, argv
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {field}") and err.count("\n") == 1, err
    assert sorted(tmp_path.iterdir()) == before


def out_of_domain_file(path, z_min=None, energy=None, area=None):
    """`generate --count 200 --seed 9` with its altitude, energies or box
    changed in the file, past the checks `generate` makes."""
    doc = scenario_to_dict(generate_uniform(200, cases.BOUNDS, *cases.ENERGY, seed=9))
    if z_min is not None:
        doc["bounds"]["z_min"] = doc["bounds"]["z_max"] = z_min
    if energy is not None:
        doc["users"]["energy"] = [energy] * 200
    if area is not None:
        doc["bounds"]["x_max"] = doc["bounds"]["y_max"] = area
    path.write_text(json.dumps(doc))
    return path


def exhaustive(path, spacing) -> str:
    """The answer line `grid` prints, up to the evaluated count, from a scan
    of every node."""
    from uavlift.oracle import GridSpec, grid_values

    s = load(path)
    grid = GridSpec(spacing=spacing, bounds=s.bounds)
    gxs, gys = grid.xs(), grid.ys()
    totals = grid_values(*s.users.arrays, s.bounds.z_min, gxs, gys).ravel()
    j = int(np.argmax(totals))
    return f"best ({gxs[j // len(gys)]:g}, {gys[j % len(gys)]:g}) value {totals[j]:.6f} J/m^2 ("


@pytest.fixture(params=["1e-100", "1e-80"])
def tiny_altitude_file(request, tmp_path, capsys):
    # z_min^4 underflows at 1e-100 m, and 2*sum(E)/z_min^4 overflows at
    # 1e-80 m: both lie below the input domain, so `generate` refuses them.
    # The fixture gives the file at the domain's lowest altitude, 2^-10 m.
    argv = ["generate", "--count", "200", "--seed", "9", "--out", str(tmp_path / "tiny.json")]
    refused([*argv, "--z-min", request.param], capsys, "bounds.z_min must lie in", tmp_path)
    assert main([*argv, "--z-min", LOWEST]) == 0
    capsys.readouterr()
    return tmp_path / "tiny.json", request.param


class TestTinyAltitude:
    @pytest.mark.parametrize("mode", ["box", "region"])
    def test_solve_is_an_input_error_naming_z_min(self, tiny_altitude_file, tmp_path, capsys, mode):
        # a file at the tiny altitude is refused; at the lowest one the ascent runs
        path, z_min = tiny_altitude_file
        below = out_of_domain_file(tmp_path / "below.json", z_min=float(z_min))
        refused(["solve", str(below), "--mode", mode], capsys, "bounds.z_min must lie in", tmp_path)
        assert main(["solve", str(path), "--mode", mode]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: objective may be non-concave") and "Traceback" not in err

    def test_solve_warns_nothing_before_the_error(self, tiny_altitude_file, tmp_path, capsys):
        path, z_min = tiny_altitude_file
        below = out_of_domain_file(tmp_path / "below.json", z_min=float(z_min))
        refused(["solve", str(below), "--mode", "box"], capsys, "bounds.z_min must lie in", tmp_path)

    def test_grid_prunes_nothing_and_warns_nothing(self, tiny_altitude_file, capsys):
        # at the lowest altitude the grid warns nothing and its answer is the exhaustive scan's
        path, _ = tiny_altitude_file
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["grid", str(path), "--spacing", "5"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith(exhaustive(path, 5.0))


@pytest.mark.parametrize("z_min", ["1e-76", "1e-75"])
def test_grid_whose_bound_overflows_warns_nothing(tmp_path, capsys, z_min):
    # One user: at 1e-76 m the old global cap sum(E)/(2 z_min^4) was finite
    # but its product with a tile's squared reach overflowed. Both altitudes
    # lie below the input domain; at its lowest, 2^-10 m, every bound is
    # finite, no warning is raised, and the answer is the exhaustive scan's.
    path = tmp_path / "g.json"
    argv = ["generate", "--count", "1", "--seed", "1", "--out", str(path)]
    refused([*argv, "--z-min", z_min], capsys, "bounds.z_min must lie in", tmp_path)
    assert main([*argv, "--z-min", LOWEST]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["grid", str(path), "--spacing", "5"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith(exhaustive(path, 5.0))


@pytest.fixture(params=[
    ["--count", "200", "--seed", "9", "--z-min", "1e80"],
    ["--count", "200", "--seed", "9", "--z-min", "1e160"],
    ["--count", "2", "--seed", "9", "--z-min", "1e10", "--energy-low", "1e-310", "--energy-high", "1e-310"],
], ids=["1e80", "1e160", "E=1e-310"])
def huge_altitude_file(request, tmp_path, capsys):
    # 2*sum(E)/z_min^4 rounded to 0 at these altitudes and energies, which lie
    # beyond the input domain, so `generate` refuses them. The fixture gives
    # the file at the domain's highest altitude, 2^24 m, and for the
    # subnormal energies also at its least total energy, 2^-900 J.
    path = tmp_path / "huge.json"
    refused(["generate", *request.param, "--out", str(path)], capsys, "bounds.z_min must lie in", tmp_path)
    argv = [a if a not in ("1e80", "1e160", "1e10") else HIGHEST for a in request.param]
    argv = [a if a != "1e-310" else repr(ENERGY_LIMITS[0] / 2) for a in argv]
    assert main(["generate", *argv, "--out", str(path)]) == 0
    capsys.readouterr()
    return path, request.param


class TestHugeAltitude:
    @pytest.mark.parametrize("mode", ["box", "region"])
    def test_solve_is_an_input_error_naming_z_min(self, huge_altitude_file, tmp_path, capsys, mode):
        # a file at the huge altitude is refused; at the highest one no range
        # reaches the station, and box mode converges
        path, argv = huge_altitude_file
        above = out_of_domain_file(tmp_path / "above.json", z_min=float(argv[argv.index("--z-min") + 1]))
        refused(["solve", str(above), "--mode", mode], capsys, "bounds.z_min must lie in", tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", str(path), "--mode", mode])
        out, err = capsys.readouterr()
        assert err == ""
        if mode == "box":
            assert rc == 0 and "converged true" in out
        else:
            assert rc == 3 and out.startswith("infeasible: ")
            assert "constraint unsatisfiable at altitude 1.67772e+07 m" in out

    def test_grid_prunes_with_a_zero_cap_and_warns_nothing(self, huge_altitude_file, capsys):
        path, _ = huge_altitude_file
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["grid", str(path), "--spacing", "5"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith(exhaustive(path, 5.0))

    def test_check_prints_no_radius_and_exits_3(self, huge_altitude_file, capsys):
        path, _ = huge_altitude_file
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", str(path)]) == 3
        out, err = capsys.readouterr()
        assert err == ""
        rows = out.splitlines()[1:-2]
        assert rows and all(row.split()[-1] == "-" for row in rows)
        assert "region: EMPTY" in out


def test_solve_on_a_box_too_wide_for_its_corner_distances_warns_nothing(tmp_path, capsys):
    # A 1e200 m box, whose corner distances overflow, lies beyond the input
    # domain: `generate` and every command refuse it with one error line,
    # also under -W error. On the domain's widest box, 2^24 m a side, at its
    # highest altitude, box mode solves with no warning but the model's own
    # (the objective there is so flat that 100 steps do not converge).
    path = tmp_path / "wide.json"
    argv = ["generate", "--count", "200", "--seed", "9", "--out", str(path)]
    refused([*argv, "--area", "1e200x1e200", "--z-min", "1e201"], capsys, "bounds.x_max must lie in", tmp_path)
    wide = out_of_domain_file(tmp_path / "w200.json", area=1e200)
    for command in (["solve", "--mode", "box"], ["check"], ["grid"], ["surface", "--out", "w.csv"]):
        refused([command[0], str(wide), *command[1:]], capsys, "bounds.x_max must lie in", tmp_path)
    assert main([*argv, "--area", "16777216x16777216", "--z-min", HIGHEST]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "objective may be non-concave")
        assert main(["solve", str(path), "--mode", "box"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("placement (")


def test_check_prints_a_wide_box_in_six_digits(tmp_path, capsys):
    # the widest box of the input domain prints its lengths with two
    # decimals, eight digits before the point; a 1e200 m box, whose would be
    # 200, is refused
    path = tmp_path / "wide.json"
    argv = ["generate", "--count", "200", "--seed", "9", "--out", str(path)]
    refused([*argv, "--area", "1e200x1e200", "--z-min", "1e201"], capsys, "bounds.x_max must lie in", tmp_path)
    assert main([*argv, "--area", "16777216x16777216", "--z-min", HIGHEST]) == 0
    capsys.readouterr()
    assert main(["check", str(path)]) == 3
    assert ("concavity certificate: z_min 1.67772e+07 m vs sqrt(3)*d_max 41095618.50 m "
            "(d_max 23726566.41 m): fails\n") in capsys.readouterr().out


def test_solve_on_a_box_too_wide_for_its_squared_distances_warns_once(tmp_path, capsys):
    # A 1e80 m box, whose squared distances overflow, lies beyond the input
    # domain. On its widest box at z = 1 m the one line on stderr is the
    # non-concavity warning, and the placement and threshold print with two
    # decimals.
    path = tmp_path / "w.json"
    argv = ["generate", "--count", "5", "--seed", "1", "--z-min", "1", "--out", str(path)]
    refused([*argv, "--area", "1e80x1e80"], capsys, "bounds.x_max must lie in", tmp_path)
    assert main([*argv, "--area", "16777216x16777216"]) == 0
    capsys.readouterr()
    assert main(["solve", str(path), "--mode", "box"]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "warning: objective may be non-concave: z_min = 1 m does not exceed "
        "sqrt(3)*d_max = 41095618.50 m; the ascent finds a local optimum\n"
    )
    assert captured.out.startswith("placement (8388608.00, 8388608.00, 1) m | ")


@pytest.fixture()
def node_file(tmp_path, capsys):
    # one user exactly on grid node (0, 0) at z = 1e-160 m, where E / z^2
    # overflowed: below the input domain, so `generate` refuses it, and the
    # fixture writes the file by hand
    path = tmp_path / "node.json"
    argv = ["generate", "--clusters", "0,0,0,1,4500,4500", "--seed", "1", "--out", str(path)]
    refused([*argv, "--z-min", "1e-160"], capsys, "bounds.z_min must lie in", tmp_path)
    assert main([*argv, "--z-min", "1"]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    doc["bounds"]["z_min"] = doc["bounds"]["z_max"] = 1e-160
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("argv", [
    ["surface", "--spacing", "5", "--out", "n.svg"],
    ["surface", "--spacing", "5", "--out", "n.csv"],
    ["grid", "--spacing", "5"],
], ids=["surface-svg", "surface-csv", "grid"])
def test_overflowing_objective_is_input_error(node_file, tmp_path, capsys, monkeypatch, argv):
    # the file is refused, and so is an altitude override as low, before any
    # grid node is evaluated
    monkeypatch.chdir(tmp_path)
    refused([argv[0], str(node_file), *argv[1:]], capsys, "bounds.z_min must lie in", tmp_path)
    if argv[0] == "surface":
        doc = json.loads(node_file.read_text())
        doc["bounds"]["z_min"] = doc["bounds"]["z_max"] = 1.0
        node_file.write_text(json.dumps(doc))
        refused([argv[0], str(node_file), "--z", "1e-160", *argv[1:]], capsys,
                "z must lie in [0.0009765625, 16777216.0] m, got 1e-160", tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["node.json"]


@pytest.mark.parametrize("argv", [
    ["generate", "--count", "2", "--seed", "1", "--energy-low", "1e308", "--energy-high", "1e308",
     "--out", "out.json"],
    ["check", "e.json"],
    ["solve", "e.json", "--mode", "box"],
    ["solve", "e.json"],
    ["grid", "e.json", "--spacing", "5"],
    ["grid", "e.json", "--spacing", "5", "--mode", "region"],
    ["surface", "e.json", "--spacing", "5", "--out", "e.csv"],
], ids=["generate", "check", "solve-box", "solve-region", "grid-box", "grid-region", "surface"])
@pytest.mark.parametrize("warnings_as_errors", [False, True], ids=["warn", "W-error"])
def test_overflowing_total_energy_is_input_error(tmp_path, capsys, monkeypatch, argv, warnings_as_errors):
    # two users whose energies are finite but sum beyond the double range
    monkeypatch.chdir(tmp_path)
    doc = {"users": {"x": [0.0, 250.0], "y": [0.0, 250.0], "energy": [1e308, 1e308]},
           "rf": dataclasses.asdict(DEFAULT_RF), "bounds": dataclasses.asdict(cases.BOUNDS)}
    (tmp_path / "e.json").write_text(json.dumps(doc))
    with warnings.catch_warnings():
        if warnings_as_errors:
            warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: the users' total energy must lie in {TOTAL_ENERGY} J, got inf\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.json"]


@pytest.mark.parametrize("warnings_as_errors", [False, True], ids=["warn", "W-error"])
def test_largest_double_energy_solves(tmp_path, capsys, warnings_as_errors):
    # one user of 1.7e308 J lies beyond the input domain's total energy, and
    # `generate` refuses it; one of 2^900 J, its ceiling, solves with no
    # warning, and the noise keeps the lifetime finite
    path = tmp_path / "e.json"
    argv = ["generate", "--count", "1", "--seed", "1", "--noise", "1e-3", "--out", str(path)]
    refused([*argv, "--energy-low", "1.7e308", "--energy-high", "1.7e308"], capsys,
            "the users' total energy must lie in", tmp_path)
    top = repr(ENERGY_LIMITS[1])
    assert main([*argv, "--energy-low", top, "--energy-high", top]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        if warnings_as_errors:
            warnings.simplefilter("error")
        assert main(["solve", str(path), "--mode", "box"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "converged true" in out


def three_disk_file(path):
    # Three unit-K users whose 8 m disks at z = 30 m cut a 10 m box, where
    # the certificate holds.
    rf = RfParams(rate=1.0, bandwidth=3.0, noise=1.0, frequency=299792458 / (4 * math.pi),
                  p_max=1e6, tau_th=1.0)
    users = tuple(UserDevice(x, y, 30.0**2 + 8.0**2) for x, y in ((3, 3), (7, 4), (5, 8)))
    save(Scenario(users=users, rf=rf, bounds=AreaBounds(0, 10, 0, 10, 30, 30)), path)
    return path


def test_start_beyond_the_double_range_solves_like_a_far_one(tmp_path, capsys):
    # Starts 1e300 and 1.7e308 m out lie beyond the input domain: one error
    # line naming the coordinate, and no report written. From the domain's
    # edge, 2^24 m out on each axis, the solve warns nothing, also under
    # -W error, and ends where the centroid start does.
    path = three_disk_file(tmp_path / "c.json")
    report = tmp_path / "r.json"
    for init in ("1e300,1e300", "1.7e308,1.7e308"):
        refused(["solve", str(path), "--mode", "region", "--init", init, "--report", str(report)], capsys,
                "init.x must lie in [-16777216.0, 16777216.0] m", tmp_path)
    answers = []
    for init in ("16777216,16777216", "centroid"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            assert main(["solve", str(path), "--mode", "region", "--init", init, "--report", str(report)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "converged true" in out
        answers.append(json.loads(report.read_text())["placement"])
    assert math.dist(answers[0], answers[1]) < 1e-3
    assert contains(build(load(path)), answers[0][:2])


def test_far_starts_solve_like_starts_1e9_m_out(tmp_path, capsys):
    # The 12 disks of random_region(7, 12) as unit-K users at z = 1 m. From
    # (1e17, 1e17) every candidate's distance to the start was one double,
    # and the first projection cycled to its pivot cap (exit 4). Starts 1e9 m
    # out and more lie beyond the input domain and are refused; starts at its
    # edge end where starts 1e6 m out on the same ray do.
    table = random_region(7, 12).table
    users = [UserDevice(x, y, r * r + 1.0) for x, y, r in zip(*(a.tolist() for a in table[:3]))]
    path = tmp_path / "k12.json"
    save(unit_scenario(users, AreaBounds(0, 10, 0, 10, 1, 1), p_max=1e6), path)
    for far in ("1e17,1e17", "1e9,1e9", "-1e300,1e300", "-1e9,1e9"):
        refused(["solve", str(path), "--mode", "region", f"--init={far}"], capsys, "init.", tmp_path)
    for far, near in (("16777216,16777216", "1e6,1e6"), ("-16777216,16777216", "-1e6,1e6")):
        outs = []
        for init in (far, near):
            assert main(["solve", str(path), "--mode", "region", f"--init={init}"]) == 0, init
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "converged true" in outs[0]


def test_a_range_far_beyond_the_box_keeps_region_solves_in_the_box(tmp_path, capsys):
    # p_max = 1e200 W and tau_th = 1e-100 s give disks of 1e57 m: region mode
    # once counted (1e5, 1e5) as a member, as membership allowed 1e-12 of the
    # largest radius, and answered there; it lands where box mode does
    path = tmp_path / "far.json"
    argv = ["generate", "--count", "5", "--seed", "1", "--p-max", "1e200", "--tau-th", "1e-100", "--out", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    outs = []
    for mode in ("region", "box"):
        assert main(["solve", str(path), "--mode", mode, "--init", "1e5,1e5"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].startswith("placement (151.30, 135.96, 650) m | ")


@pytest.mark.parametrize("argv, field", [
    (["--area", "16777216.000000004x250"], "bounds.x_max must lie in"),
    (["--area", "250x0.0009765624999999999"], "bounds require y_max - y_min >= 0.0009765625 m"),
    (["--z-min", "0.0009765624999999999"], "bounds.z_min must lie in"),
    (["--z-min", "16777216.000000004"], "bounds.z_min must lie in"),
    (["--energy-low", "8.452712498170645e+270", "--energy-high", "8.452712498170645e+270"],
     "the users' total energy must lie in"),
    (["--energy-low", "1.1830521861667745e-271", "--energy-high", "1.1830521861667745e-271"],
     "the users' total energy must lie in"),
], ids=["width", "height", "lowest-z", "highest-z", "energy-ceiling", "energy-floor"])
def test_generate_refuses_the_next_double_beyond_each_domain_edge(tmp_path, capsys, argv, field):
    # the edge itself is accepted: the same flags one double inward write the file
    out = tmp_path / "d.json"
    refused(["generate", "--count", "1", "--seed", "1", *argv, "--out", str(out)], capsys, field, tmp_path)
    inward = [a.replace("16777216.000000004", "16777216").replace("0.0009765624999999999", "0.0009765625")
              .replace("8.452712498170645e+270", "8.452712498170644e+270")
              .replace("1.1830521861667745e-271", "1.1830521861667747e-271") for a in argv]
    assert main(["generate", "--count", "1", "--seed", "1", *inward, "--out", str(out)]) == 0
    capsys.readouterr()


def test_solve_refuses_a_start_one_double_beyond_the_domain(tmp_path, capsys, relaxed_file):
    report = tmp_path / "r.json"
    refused(["solve", str(relaxed_file), "--init", "0,-16777216.000000004", "--report", str(report)], capsys,
            "init.y must lie in", tmp_path)
    assert main(["solve", str(relaxed_file), "--init", "0,-16777216", "--report", str(report)]) == 0
    capsys.readouterr()


CORNERS = [
    pytest.param(side, z, energy, id=f"side={side:g}-z={z:g}-E={energy:g}")
    for side in (MIN_SIDE, COORD_LIMIT) for z in ALTITUDE_LIMITS for energy in ENERGY_LIMITS
]


@pytest.mark.parametrize("side, z, energy", CORNERS)
def test_corner_instances_of_the_domain_warn_nothing(tmp_path, capsys, monkeypatch, side, z, energy):
    # Three users, at two box corners and the centre, sharing the total
    # energy, on the smallest and the widest box, at the lowest and highest
    # altitude, with the least and the largest total energy. Under warnings
    # as errors no command raises one, but for the model's own
    # non-concavity warning, and each exits 0, or 3 where no range reaches.
    monkeypatch.chdir(tmp_path)
    users = UserArrays(np.array([0.0, side, 0.5 * side]), np.array([0.0, side, 0.25 * side]),
                       np.array([0.5, 0.25, 0.25]) * energy)
    save(Scenario(users, DEFAULT_RF, AreaBounds(0, side, 0, side, z, z)), "c.json")
    spacing = repr(side / 8)
    commands = [["check"], ["solve", "--mode", "box"], ["solve", "--mode", "region"],
                ["grid", "--spacing", spacing], ["grid", "--spacing", spacing, "--mode", "region"],
                ["surface", "--spacing", spacing, "--out", "c.csv"]]
    for command in commands:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "objective may be non-concave")
            rc = main([command[0], "c.json", *command[1:]])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "") or (rc == 3 and (err == "" or err.startswith("infeasible: "))), (command, rc, err)
        assert err.count("\n") <= 1
@pytest.mark.parametrize("argv", [
    ["solve", "s.json", "--mode", "box", "--no-line-search"],
    ["generate", "--count", "5", "--seed", "1", "--z-max", "700"],
], ids=["no-line-search", "z-max"])
def test_removed_flags_are_refused(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestGrid:
    def test_box_mode(self, relaxed_file, capsys):
        rc = main(["grid", str(relaxed_file), "--spacing", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "best (" in out

    def test_region_mode_on_infeasible_exit_3(self, reference_file, capsys):
        rc = main(["grid", str(reference_file), "--mode", "region", "--c", "3e8"])
        capsys.readouterr()
        assert rc == 3

    def test_spacing_beyond_the_node_ceiling_is_usage_error(self, relaxed_file, capsys):
        rc = main(["grid", str(relaxed_file), "--spacing", "1e-4"])
        assert rc == 2
        assert "nodes" in capsys.readouterr().err


class TestSurface:
    def test_csv_output(self, relaxed_file, tmp_path, capsys):
        out_path = tmp_path / "surface.csv"
        rc = main(["surface", str(relaxed_file), "--spacing", "10", "--out", str(out_path)])
        capsys.readouterr()
        assert rc == 0
        assert out_path.read_text().startswith("x,y,value")

    def test_svg_output_with_altitude_override(self, relaxed_file, tmp_path, capsys):
        out_path = tmp_path / "surface.svg"
        rc = main([
            "surface", str(relaxed_file), "--z", "30", "--spacing", "10",
            "--out", str(out_path),
        ])
        capsys.readouterr()
        assert rc == 0
        assert out_path.read_text().startswith("<svg")

    def test_zero_spacing_is_usage_error(self, relaxed_file, tmp_path, capsys):
        rc = main([
            "surface", str(relaxed_file), "--spacing", "0",
            "--out", str(tmp_path / "x.csv"),
        ])
        capsys.readouterr()
        assert rc == 2

    def test_spacing_beyond_the_node_ceiling_is_usage_error(self, relaxed_file, tmp_path, capsys):
        out_path = tmp_path / "y.csv"
        rc = main(["surface", str(relaxed_file), "--spacing", "1e-4", "--out", str(out_path)])
        assert rc == 2
        assert "nodes" in capsys.readouterr().err
        assert not out_path.exists()

    def test_unknown_extension_is_usage_error(self, relaxed_file, tmp_path, capsys):
        rc = main([
            "surface", str(relaxed_file), "--spacing", "10",
            "--out", str(tmp_path / "surface.png"),
        ])
        capsys.readouterr()
        assert rc == 2

    def test_unknown_extension_is_refused_before_the_grid(
        self, relaxed_file, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("surface_grid ran before --out was checked")

        monkeypatch.setattr("uavlift.surface.surface_grid", refuse)
        rc = main([
            "surface", str(relaxed_file), "--spacing", "1",
            "--out", str(tmp_path / "x.txt"),
        ])
        assert rc == 2
        assert ".csv or .svg" in capsys.readouterr().err
        assert not (tmp_path / "x.txt").exists()


class TestReproduce:
    def test_uniform_case_passes(self, capsys):
        assert reproduce(capsys, "uniform", None) == REPRODUCE_OUTPUT["uniform", None]

    def test_nonuniform_case_passes(self, capsys):
        assert reproduce(capsys, "nonuniform", None) == REPRODUCE_OUTPUT["nonuniform", None]

    def test_concavity_case_passes(self, capsys):
        assert reproduce(capsys, "concavity", None) == REPRODUCE_OUTPUT["concavity", None]

    @pytest.mark.parametrize("case", ["uniform", "nonuniform", "concavity"])
    def test_seed_3_output_is_unchanged(self, capsys, case):
        assert reproduce(capsys, case, 3) == REPRODUCE_OUTPUT[case, 3]

    def test_unknown_case_is_usage_error(self, capsys):
        assert main(["reproduce", "--case", "mystery"]) == 2
        capsys.readouterr()


def reproduce(capsys, case, seed):
    rc = main(["reproduce", "--case", case] + ([] if seed is None else ["--seed", str(seed)]))
    return rc, capsys.readouterr().out


# (exit code, stdout) of `reproduce` per (case, --seed), pinned byte for byte;
# seed 3 misses the uniform case's objective and lifetime bands.
REPRODUCE_OUTPUT = {
    ("uniform", None): (0, """case uniform: 200 users on [0,250]^2, z 650 m, box mode, seed 9
  placement (130.2, 126.6, 650)   reference (131.0, 128.0, 650.0)
  objective 5.2038 J/m^2   reference 5.19
  lifetime  282846 s    reference 282096
PASS objective in [5.0, 5.4] J/m^2
PASS lifetime in [2.70e5, 2.95e5] s
PASS placement within 15 m of (125, 125)
PASS iterations <= 100
"""),
    ("uniform", 3): (1, """case uniform: 200 users on [0,250]^2, z 650 m, box mode, seed 3
  placement (126.0, 124.3, 650)   reference (131.0, 128.0, 650.0)
  objective 4.9407 J/m^2   reference 5.19
  lifetime  268544 s    reference 282096
FAIL objective in [5.0, 5.4] J/m^2
FAIL lifetime in [2.70e5, 2.95e5] s
PASS placement within 15 m of (125, 125)
PASS iterations <= 100
"""),
    ("nonuniform", None): (0, """case nonuniform: clusters 150:50 (3:1 density), z 650 m, box mode, seed 9
  placement (105.7, 126.3, 650)   reference (92.0, 156.0, 650.0)
  objective 5.2816 J/m^2   reference 5.22
  dense centroid (77.9, 147.6) at 35.0 m; sparse centroid (203.2, 53.5) at 121.6 m
PASS placement strictly closer to the dense cluster centroid
"""),
    ("nonuniform", 3): (0, """case nonuniform: clusters 150:50 (3:1 density), z 650 m, box mode, seed 3
  placement (103.3, 129.6, 650)   reference (92.0, 156.0, 650.0)
  objective 5.1667 J/m^2   reference 5.22
  dense centroid (76.1, 150.1) at 34.0 m; sparse centroid (199.2, 59.8) at 118.6 m
PASS placement strictly closer to the dense cluster centroid
"""),
    ("concavity", None): (0, """case concavity: seed 9, d_max 353.55 m, threshold 612.37 m
  z 650 m: certificate holds=True; concavity proven, per-user curvature bound -8.132e-06
  z 30 m: concavity refuted, eigenvalue 4.904e-02 at (170.6, 187.7)
PASS certificate holds at z=650 and the per-user bound proves concavity
PASS z=30 has a positive-eigenvalue witness
"""),
    ("concavity", 3): (0, """case concavity: seed 3, d_max 353.55 m, threshold 612.37 m
  z 650 m: certificate holds=True; concavity proven, per-user curvature bound -7.255e-06
  z 30 m: concavity refuted, eigenvalue 5.213e-03 at (28.4, 175.1)
PASS certificate holds at z=650 and the per-user bound proves concavity
PASS z=30 has a positive-eigenvalue witness
"""),
}

