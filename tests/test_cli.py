import json

import pytest

from uavlift.cli import main
from uavlift.scenario import load


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

    def test_explicit_gamma_and_eps(self, relaxed_file, capsys):
        rc = main([
            "solve", str(relaxed_file), "--mode", "box",
            "--gamma", "1e4", "--eps", "1e-5", "--max-iters", "2000",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged true" in out


@pytest.mark.parametrize("literal", ["Infinity", "1e400"])
@pytest.mark.parametrize("command", ["check", "solve"])
def test_non_finite_energy_is_input_error_exit_2(relaxed_file, tmp_path, capsys, command, literal):
    doc = json.loads(relaxed_file.read_text())
    doc["users"][0]["energy"] = "NUMBER"
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps(doc).replace('"NUMBER"', literal))
    assert main([command, str(path)]) == 2
    assert "users[0].energy" in capsys.readouterr().err


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

    def test_unknown_extension_is_usage_error(self, relaxed_file, tmp_path, capsys):
        rc = main([
            "surface", str(relaxed_file), "--spacing", "10",
            "--out", str(tmp_path / "surface.png"),
        ])
        capsys.readouterr()
        assert rc == 2


class TestReproduce:
    def test_uniform_case_passes(self, capsys):
        rc = main(["reproduce", "--case", "uniform"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_nonuniform_case_passes(self, capsys):
        rc = main(["reproduce", "--case", "nonuniform"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out

    def test_concavity_case_passes(self, capsys):
        rc = main(["reproduce", "--case", "concavity"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 2

    def test_unknown_case_is_usage_error(self, capsys):
        assert main(["reproduce", "--case", "mystery"]) == 2
        capsys.readouterr()
