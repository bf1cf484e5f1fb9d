import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrfactory import capacity
from nrfactory.cli import _scenario_from_args, build_parser, main
from nrfactory.config import load_scenario
from nrfactory.radiolink import dl_sinr, sinr_grid, ul_sinr
from oracles import sinr_map_csv_oracle

SRC = Path(__file__).resolve().parent.parent / "src"


def run(args, capsys=None):
    code = main(args)
    return code


class TestUsecasesCommand:
    def test_csv_has_ten_rows(self, tmp_path):
        out = tmp_path / "uc.csv"
        assert run(["usecases", "--format", "csv", "-o", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        uc1 = next(r for r in rows if r["name"].startswith("UC1"))
        assert float(uc1["message_size_bytes"]) == 500
        assert float(uc1["network_reliability_fraction"]) == 0.9999

    def test_json(self, tmp_path):
        out = tmp_path / "uc.json"
        assert run(["usecases", "--format", "json", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["use_cases"]) == 10


class TestCoexistCommand:
    def test_dddu_vs_ddddu_cross_link(self, tmp_path):
        out = tmp_path / "coexist.json"
        assert run(["coexist", "--indoor", "DDDU", "--outdoor", "DDDDU", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["dl"]["cross_link"]["value"] == pytest.approx(0.2)
        assert data["dl"]["near_far"]["value"] == pytest.approx(0.8)
        assert data["indoor_dl_safe"] is False
        assert data["risk"]["dl"] == "HIGH"

    def test_safe_pattern_search(self, tmp_path):
        out = tmp_path / "safe.json"
        code = run([
            "coexist", "--indoor", "DDDDUDDDUU", "--outdoor", "DDDDU",
            "--find-safe", "10", "--min-ul", "3", "-o", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["indoor_dl_safe"] is True
        assert "DDDDUDDDUU" in data["safe_indoor_patterns"]

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(["coexist", "--indoor", "DDDU", "--outdoor", "DDDDU", "-o", str(a)])
        run(["coexist", "--indoor", "DDDU", "--outdoor", "DDDDU", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestLatencyCommand:
    def test_json_output(self, tmp_path):
        out = tmp_path / "lat.json"
        code = run([
            "latency", "--preset", "tdd3800", "--pattern", "DDDSU",
            "--direction", "both", "--bound", "5", "-o", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["directions"]["DL"]["t1_ms"] > 0
        assert data["directions"]["DL"]["attempts_within_bound"] >= 1
        affine = data["directions"]["UL"]["t_up_ms_by_retx"]
        diffs = [b - a for a, b in zip(affine, affine[1:])]
        assert all(d == pytest.approx(diffs[0]) for d in diffs)

    def test_fdd_band(self, tmp_path):
        out = tmp_path / "lat.json"
        assert run(["latency", "--preset", "fdd2100", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["pattern"] is None


class TestCapacityCommand:
    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["capacity", "--usecase", "UC1"])
        assert err.value.code == 1

    def test_das_heads_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "das.yaml"
        path.write_text("radio:\n  antenna: das\n  das_heads: 12\n")
        assert main(["capacity", "--config", str(path), "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert "das_heads" in err and "Traceback" not in err

    def test_small_run_and_determinism(self, tmp_path):
        args = [
            "capacity", "--preset", "tdd3800", "--pattern", "DUDU",
            "--usecase", "UC7", "--gnbs", "3", "--drops", "2", "--seed", "5",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b), "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()
        with a.open() as fh:
            row = next(csv.DictReader(fh))
        assert int(row["combined_users"]) == min(int(row["max_dl_users"]), int(row["max_ul_users"]))

    def test_undecided_load_is_a_solver_failure(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(capacity, "_CERTIFICATE_ROUNDS", 1)
        args = [
            "capacity", "--preset", "tdd3800", "--pattern", "DUDU", "--usecase", "UC1",
            "--gnbs", "3", "--drops", "2", "--seed", "1", "-o", str(tmp_path / "c.csv"),
        ]
        assert main(args) == 2
        stderr = capsys.readouterr().err
        assert "solver failure:" in stderr
        assert "Traceback" not in stderr


class TestSinrMapCommand:
    def test_grid_csv(self, tmp_path):
        out = tmp_path / "map.csv"
        code = run([
            "sinr-map", "--preset", "tdd3800", "--gnbs", "3",
            "--resolution", "10", "-o", str(out),
        ])
        assert code == 0
        with out.open() as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["x_m", "y_m", "sinr_db"]
        assert len(rows) == 12 * 5

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sinr-map", "--preset", "tdd3800", "--gnbs", "3", "--resolution", "10"]
        run(args + ["-o", str(a)])
        run(args + ["-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("antenna", ["omni", "das", "aas"])
    @pytest.mark.parametrize("direction", ["DL", "UL"])
    def test_bytes_equal_csv_writer(self, tmp_path, antenna, direction):
        out = tmp_path / "map.csv"
        argv = ["sinr-map", "--preset", "tdd3800", "--antenna", antenna, "--direction", direction, "--resolution", "1"]
        assert run(argv + ["-o", str(out)]) == 0
        cfg = _scenario_from_args(build_parser().parse_args(argv))
        grid = sinr_grid(cfg.scenario, cfg.band, cfg.radio, direction, resolution_m=1.0)
        assert out.read_bytes() == sinr_map_csv_oracle(grid.grid, 1.0).encode()

    @pytest.mark.parametrize("direction", ["DL", "UL"])
    def test_rows_are_the_evaluated_points(self, tmp_path, direction):
        # 7 m divides neither 120 m nor 50 m: the last cells are clamped to the hall
        out = tmp_path / "map.csv"
        argv = ["sinr-map", "--preset", "tdd3800", "--direction", direction, "--resolution", "7"]
        assert run(argv + ["-o", str(out)]) == 0
        rows = [[float(v) for v in row] for row in list(csv.reader(out.read_text().splitlines()))[1:]]
        assert len(rows) == 18 * 8
        cfg = load_scenario({"band": {"preset": "tdd3800"}})
        hall = cfg.scenario.hall
        assert all(0.0 < x <= hall.length_m and 0.0 < y <= hall.width_m for x, y, _ in rows)
        assert {x for x, _, _ in rows} >= {120.0} and {y for _, y, _ in rows} >= {50.0}
        point_sinr = dl_sinr if direction == "DL" else ul_sinr
        for x, y, value in rows[::5] + rows[-8:]:
            want = point_sinr((x, y, cfg.scenario.ue_height_m), cfg.scenario, cfg.band, cfg.radio)
            assert abs(value - want) <= 1e-6, (x, y)


class TestExclusionCommand:
    def test_seed_required(self):
        with pytest.raises(SystemExit) as err:
            main(["exclusion", "--table15"])
        assert err.value.code == 1

    def test_small_table15_run(self, tmp_path):
        out = tmp_path / "excl.json"
        code = run([
            "exclusion", "--table15", "--seed", "2", "--k-points", "8",
            "--tol-bits", "1e-3", "-o", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["m_aps"] == 72
        assert data["k_users"] == 8
        assert len(data["maxmin_exclusion"]["per_point_power_dbm"]) == 8
        assert data["maxmin_exclusion"]["min_se_bits_per_s_per_hz"] <= (
            data["maxmin"]["min_se_bits_per_s_per_hz"] + 1e-6
        )

    def test_failed_sweep_writes_no_file(self, tmp_path, capsys):
        # the sweep starts 40 dB above the ceiling, at 3110 dBm, which is out of range
        sweep, out = tmp_path / "s.csv", tmp_path / "e.json"
        code = run([
            "exclusion", "--table15", "--seed", "1", "--k-points", "4", "--gamma-dbm", "3070",
            "--sweep-csv", str(sweep), "-o", str(out),
        ])
        assert code == 1
        assert not sweep.exists() and not out.exists()
        assert "out of range" in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["exclusion", "--table15", "--seed", "2", "--k-points", "6", "--tol-bits", "1e-3"]
        run(args + ["-o", str(a)])
        run(args + ["-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("preset", ["fdd2100", "tdd3800", "tdd26000"])
@pytest.mark.parametrize(
    "argv",
    [
        ["latency", "--bound", "5"],
        ["capacity", "--tti", "7", "--drops", "1", "--gnbs", "3", "--seed", "1"],
        ["sinr-map", "--gnbs", "3", "--resolution", "10"],
    ],
    ids=["latency", "capacity", "sinr-map"],
)
def test_command_runs_on_every_preset(preset, argv, tmp_path):
    assert run(argv + ["--preset", preset, "-o", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["latency", "--retx", "-1"],
        ["latency", "--retx", "65"],
        ["latency", "--bound", "inf"],
        ["latency", "--bound", "nan"],
        ["latency", "--bound", "0"],
        ["latency", "--tti", "0"],
        ["latency", "--pdcch", "0"],
        ["latency", "--harq", "0"],
        ["capacity", "--seed", "-1"],
        ["capacity", "--seed", "1", "--gnbs", "0"],
        ["capacity", "--seed", "1", "--workers", "0"],
        ["capacity", "--seed", "1", "--drops", "0"],
        ["coexist", "--indoor", "DDDU", "--outdoor", "DDDDU", "--separation", "nan"],
        ["coexist", "--indoor", "DDDU", "--outdoor", "DDDDU", "--separation", "inf"],
        ["coexist", "--indoor", "DDDU", "--outdoor", "DDDDU", "--separation", "-5"],
        ["coexist", "--indoor", "DDDU", "--outdoor", "DDDDU", "--wall-loss", "nan"],
        ["coexist", "--indoor", "DDDU", "--outdoor", "DDDDU", "--wall-loss", "inf"],
        ["coexist", "--indoor", "DDDU", "--outdoor", "DDDDU", "--wall-loss", "-5"],
        ["coexist", "--indoor", "DDDU", "--outdoor", "DDDDU", "--find-safe", "0"],
        ["sinr-map", "--gnbs", "0"],
        ["sinr-map", "--tti", "-2"],
        ["sinr-map", "--resolution", "nan"],
        ["exclusion", "--seed", "-1"],
        ["exclusion", "--seed", "1", "--gamma-dbm", "nan"],
        ["exclusion", "--seed", "1", "--gamma-dbm", "inf"],
        ["exclusion", "--seed", "1", "--k-points", "0"],
        ["exclusion", "--seed", "1", "--tol-bits", "nan"],
        ["exclusion", "--seed", "1", "--tol-bits", "0"],
        ["exclusion", "--seed", "1", "--sweep-points", "0"],
    ],
    ids=" ".join,
)
def test_bad_value_is_an_input_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    stderr = capsys.readouterr().err
    assert "error: argument" in stderr
    assert "Traceback" not in stderr


# zero, negative, huge, infinite, not-a-number and empty values for a numeric flag
BOUNDARY = ("0", "-1", "-1e308", "1e308", str(2**63), "inf", "-inf", "nan", "")
# flags whose valid values set the amount of work: bad values and small valid ones
SMALL = ("0", "-1", "inf", "nan", "", "1", "2")
# grid spacing in m: bad values and coarse valid ones
COARSE = ("0", "-1", "inf", "nan", "", "25", "1e308")

NUMERIC_FLAGS = {
    "latency": (
        ["latency"],
        {"--tti": BOUNDARY, "--retx": BOUNDARY, "--bound": BOUNDARY, "--pdcch": BOUNDARY, "--harq": BOUNDARY},
    ),
    "capacity": (
        ["capacity", "--seed", "1", "--drops", "1", "--gnbs", "3"],
        {"--seed": BOUNDARY, "--drops": SMALL, "--gnbs": SMALL, "--workers": SMALL, "--tti": BOUNDARY},
    ),
    "sinr-map": (
        ["sinr-map", "--gnbs", "3", "--resolution", "25"],
        {"--resolution": COARSE, "--activity": BOUNDARY, "--gnbs": SMALL, "--tti": BOUNDARY},
    ),
    "coexist": (
        ["coexist", "--indoor", "DDDU", "--outdoor", "DDDDU"],
        {"--separation": BOUNDARY, "--wall-loss": BOUNDARY, "--offset": BOUNDARY, "--find-safe": SMALL,
         "--min-ul": BOUNDARY},
    ),
    "exclusion": (
        ["exclusion", "--table15", "--seed", "1", "--k-points", "4", "--sweep-csv", "sweep.csv"],
        {"--seed": BOUNDARY, "--gamma-dbm": BOUNDARY, "--tol-bits": BOUNDARY, "--k-points": SMALL,
         "--sweep-points": SMALL},
    ),
}


@pytest.mark.parametrize("command", NUMERIC_FLAGS)
def test_boundary_values_keep_the_exit_code_contract(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NRFACTORY_OUTDIR", str(tmp_path))
    base, flags = NUMERIC_FLAGS[command]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(values=st.fixed_dictionaries({}, optional={flag: st.sampled_from(v) for flag, v in flags.items()}))
    def check(values):
        # --flag=value hands values such as -inf to the flag rather than reading them as options
        argv = base + [f"{flag}={value}" for flag, value in values.items()] + ["-o", "out"]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2), argv
        assert "Traceback" not in capsys.readouterr().err, argv

    # every value of every flag on its own, then random combinations
    for flag, values in flags.items():
        for value in values:
            check = example(values={flag: value})(check)
    check()


def test_empty_pattern_is_rejected(capsys):
    assert main(["latency", "--pattern", ""]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_exclusion_flags_win_over_the_file(tmp_path):
    cfg = tmp_path / "excl.yaml"
    cfg.write_text("exclusion:\n  k_points: 6\n")
    out = tmp_path / "excl.json"
    assert run(["exclusion", "--config", str(cfg), "--seed", "2", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["k_users"] == 6
    args = ["exclusion", "--config", str(cfg), "--seed", "2", "--k-points", "4", "--tol-bits", "1e-3"]
    assert run(args + ["-o", str(out)]) == 0
    assert json.loads(out.read_text())["k_users"] == 4


class TestTopLevel:
    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand_exits_one(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_version_prints_checksum(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "nrfactory" in out and "checksum" in out

    def test_no_state_carries_between_calls(self, tmp_path):
        bounded, plain, fresh = tmp_path / "bounded.json", tmp_path / "plain.json", tmp_path / "fresh.json"
        assert run(["latency", "--preset", "tdd3800", "--bound", "5", "-o", str(bounded)]) == 0
        assert run(["latency", "--preset", "tdd3800", "-o", str(plain)]) == 0
        assert "bound_ms" in bounded.read_text()
        assert "bound_ms" not in plain.read_text()
        script = f"from nrfactory.cli import main; main(['latency', '--preset', 'tdd3800', '-o', {str(fresh)!r}])"
        subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, timeout=120
        )
        assert plain.read_bytes() == fresh.read_bytes()

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NRFACTORY_OUTDIR", str(tmp_path))
        assert run(["usecases", "-o", "cases.csv"]) == 0
        assert (tmp_path / "cases.csv").exists()

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("radio:\n  unknown_key: 1\n")
        assert main(["latency", "--config", str(bad)]) == 1
