"""The ``-o`` outputs of a fixed matrix of cheap CLI commands, pinned across trees.

Each output is hashed with SHA-256 and compared with the committed
``tests/golden/digests.json``.  Criterion 9 compares two runs of one tree;
this test compares the tree with the one the digests were written from.
The exclusion JSON comes from the HiGHS LP solver, so it is compared by
value instead: the LP's minimum SE to within the command's ``--tol-bits``
(the gap the solver certifies), its other fields exactly.  A changed digest
is a changed output: rewrite the file with ``python tests/golden/update.py``
only when a model change is meant to move it, and list the output in
CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from nrfactory.cli import main

DIGESTS = Path(__file__).parent / "golden" / "digests.json"

PRESETS = ("fdd2100", "tdd3800", "tdd26000")

COMMANDS = (
    [["usecases", "--format", "csv"], ["usecases", "--format", "json"]]
    + [["latency", "--preset", p, "--bound", "5"] for p in PRESETS]
    + [["latency", "--preset", p, "--bound", "5", "--ul-access", "configured_grant"] for p in PRESETS]
    + [["latency", "--preset", p, "--pattern", "DUDU", "--tti", "2"] for p in PRESETS[1:]]
    + [
        ["sinr-map", "--preset", p, "--antenna", a, "--direction", d, "--resolution", "10"]
        for p in PRESETS
        for a in ("omni", "das", "aas")
        for d in ("DL", "UL")
    ]
    + [
        ["coexist", "--indoor", "DDDDUDDDUU", "--outdoor", "DDDDU"],
        # criterion 9, serial and on two workers
        ["capacity", "--preset", "tdd3800", "--pattern", "DUDU", "--usecase", "UC7",
         "--gnbs", "3", "--drops", "3", "--seed", "11"],
        ["capacity", "--preset", "tdd3800", "--pattern", "DUDU", "--usecase", "UC7",
         "--gnbs", "3", "--drops", "3", "--seed", "11", "--workers", "2"],
        # the README's 12-gNB AAS example
        ["capacity", "--preset", "tdd3800", "--pattern", "DUDU", "--usecase", "UC1",
         "--antenna", "aas", "--gnbs", "12", "--seed", "1"],
        ["capacity", "--preset", "tdd3800", "--pattern", "DUDU", "--usecase", "UC7",
         "--gnbs", "3", "--drops", "3", "--seed", "11", "--antenna", "das"],
        ["capacity", "--preset", "fdd2100", "--usecase", "UC7", "--gnbs", "3", "--drops", "3",
         "--seed", "1", "--antenna", "das"],
        ["capacity", "--preset", "tdd26000", "--usecase", "UC1", "--drops", "2", "--seed", "3",
         "--antenna", "das"],
        ["capacity", "--preset", "tdd3800", "--pattern", "DUDU", "--usecase", "UC1", "--gnbs", "3",
         "--drops", "3", "--seed", "1", "--antenna", "aas"],
        ["capacity", "--preset", "fdd2100", "--usecase", "UC1", "--gnbs", "3", "--drops", "3",
         "--seed", "1", "--antenna", "aas"],
        ["capacity", "--preset", "tdd26000", "--usecase", "UC7", "--gnbs", "3", "--drops", "3", "--seed", "1"],
        ["capacity", "--preset", "tdd3800", "--pattern", "DDDSU", "--usecase", "UC4", "--gnbs", "3",
         "--drops", "7", "--seed", "5", "--workers", "2"],
    ]
)

# criterion 9's exclusion command
EXCLUSION = ["exclusion", "--table15", "--seed", "4", "--k-points", "8", "--tol-bits", "1e-3"]
EXCLUSION_TOL_BITS = 1e-3
# the LP's outputs; every other field of the JSON is pinned exactly
LP_SECTIONS = ("maxmin", "maxmin_exclusion")


def output(argv: list[str], path: Path) -> bytes:
    assert main(argv + ["-o", str(path)]) == 0
    return path.read_bytes()


def digest(argv: list[str], path: Path) -> str:
    return hashlib.sha256(output(argv, path)).hexdigest()


def key(argv: list[str]) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS.read_text())


def test_digests(golden, tmp_path):
    assert sorted(golden["digests"]) == sorted(key(argv) for argv in COMMANDS)
    changed = [
        key(argv) for i, argv in enumerate(COMMANDS) if digest(argv, tmp_path / str(i)) != golden["digests"][key(argv)]
    ]
    assert changed == [], f"outputs differ from the golden digests (numpy {golden['numpy']}, scipy {golden['scipy']})"


def test_exclusion(golden, tmp_path):
    expected = golden["exclusion"][key(EXCLUSION)]
    got = json.loads(output(EXCLUSION, tmp_path / "exclusion.json"))
    assert sorted(got) == sorted(expected)
    for name in LP_SECTIONS:
        assert sorted(got[name]) == sorted(expected[name])
        se = got[name]["min_se_bits_per_s_per_hz"]
        assert se == pytest.approx(expected[name]["min_se_bits_per_s_per_hz"], abs=EXCLUSION_TOL_BITS)
        assert len(got[name]["per_point_power_dbm"]) == len(expected[name]["per_point_power_dbm"])
        assert min(got[name]["per_user_se_bits_per_s_per_hz"]) == pytest.approx(se, abs=1e-6)
    assert max(got["maxmin_exclusion"]["per_point_power_dbm"]) <= got["gamma_dbm"] + 1e-6
    assert {k: v for k, v in got.items() if k not in LP_SECTIONS} == {
        k: v for k, v in expected.items() if k not in LP_SECTIONS
    }
