import numpy as np
import pytest
import yaml

from apfmpc.cli import EXIT_CONFIG, EXIT_OK, EXIT_USAGE, main
from apfmpc.geometry import OrientedRectangle, Pose2D
from apfmpc.kinematics import RobotState
from apfmpc.simulator import Scenario, save_scenario


@pytest.fixture
def scenario_file(tmp_path):
    walls = [
        OrientedRectangle(Pose2D(10.0, 3.1, 0.0), 12.0, 0.1),
        OrientedRectangle(Pose2D(10.0, -3.1, 0.0), 12.0, 0.1),
    ]
    scn = Scenario(name="clitest", corridor=walls,
                   path=np.array([[0.0, 0.0], [20.0, 0.0]]),
                   ref_speed=1.0, obstacles=[],
                   initial_state=RobotState(0.0, 0.0, 0.0, 0.5, 0.5),
                   duration=2.0)
    path = tmp_path / "clitest.yaml"
    save_scenario(scn, path)
    return path


def edited_file(scenario_file, tmp_path, **changes):
    """Copy of the scenario file with top-level keys replaced."""
    data = yaml.safe_load(scenario_file.read_text())
    data.update(changes)
    path = tmp_path / "edited.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


class TestRun:
    def test_writes_log_and_summary(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(scenario_file), "--out", str(out)]) == EXIT_OK
        log = out / "clitest.log.csv"
        summary = out / "clitest.summary"
        assert log.exists() and summary.exists()
        text = summary.read_text()
        assert "outcome: completed" in text
        assert "max_slip_measure:" in text

    def test_log_csv_parseable(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["run", str(scenario_file), "--out", str(out)])
        data = np.genfromtxt(out / "clitest.log.csv", delimiter=",",
                             names=True)
        assert len(data) == 20
        assert set(data.dtype.names) >= {"t", "x", "y", "theta", "v_f", "v_r"}

    def test_plots_flag_writes_series_and_svg(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["run", str(scenario_file), "--out", str(out), "--plots"])
        for suffix in ("trajectory.csv", "heading.csv", "wheel_speeds.csv",
                       "inputs.csv", "slip.csv", "trajectory.svg"):
            assert (out / f"clitest.{suffix}").exists()
        svg = (out / "clitest.trajectory.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_variant_flag(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        code = main(["run", str(scenario_file), "--out", str(out),
                     "--variant", "no_customization"])
        assert code == EXIT_OK

    def test_byte_identical_reruns(self, scenario_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", str(scenario_file), "--out", str(out1)])
        main(["run", str(scenario_file), "--out", str(out2)])
        assert ((out1 / "clitest.log.csv").read_bytes()
                == (out2 / "clitest.log.csv").read_bytes())
        assert ((out1 / "clitest.summary").read_bytes()
                == (out2 / "clitest.summary").read_bytes())


class TestCompare:
    def test_writes_both_logs_and_deltas(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert main(["compare", str(scenario_file), "--out", str(out)]) == EXIT_OK
        assert (out / "clitest.full.log.csv").exists()
        assert (out / "clitest.no_customization.log.csv").exists()
        text = (out / "clitest.compare.summary").read_text()
        assert "full.outcome:" in text
        assert "no_customization.outcome:" in text
        assert "delta.min_clearance:" in text


class TestValidate:
    def test_valid_file(self, scenario_file, capsys):
        assert main(["validate", str(scenario_file)]) == EXIT_OK
        assert str(scenario_file) in capsys.readouterr().out

    @pytest.mark.parametrize("changes", [
        {"controller_variant": "fancy"},
        {"path": [[0.0, 0.0], [0.0, 0.0], [20.0, 0.0]]},
    ], ids=["unknown_variant", "zero_length_segment"])
    def test_rejects_what_run_rejects(self, scenario_file, tmp_path, capsys, changes):
        bad = edited_file(scenario_file, tmp_path, **changes)
        assert main(["validate", str(bad)]) == EXIT_CONFIG
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenario:\n  name: broken\n")
        assert main(["validate", str(bad)]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_file_names_path(self, tmp_path, capsys):
        missing = tmp_path / "does_not_exist.yaml"
        assert main(["run", str(missing)]) == EXIT_CONFIG
        assert str(missing) in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_help_is_ok(self, capsys):
        assert main(["--help"]) == EXIT_OK
