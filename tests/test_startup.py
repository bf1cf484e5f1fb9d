"""A command loads only the modules it runs.

scipy.optimize and the process pool cost most of the package's import
time, and only ``exclusion`` solves an LP and only ``capacity --workers N``
with N > 1 opens a pool.  Each check runs in a fresh interpreter, since the
test process itself has long loaded everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

DEFERRED = ("scipy.optimize", "scipy.sparse", "concurrent.futures.process")

SCRIPT = """
import json, sys
from nrfactory.cli import main
loaded = {{"import": [m for m in {names!r} if m in sys.modules]}}
for argv in {commands!r}:
    assert main(argv + ["-o", {out!r} + "/" + argv[0]]) == 0, argv
    loaded[argv[0]] = [m for m in {names!r} if m in sys.modules]
print(json.dumps(loaded))
"""


def loaded_after(commands: list[list[str]], names: tuple[str, ...], tmp_path) -> dict[str, list[str]]:
    """Which of ``names`` are in sys.modules after importing the CLI and after each command."""
    script = SCRIPT.format(names=names, commands=commands, out=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_without_an_lp_or_a_pool_leave_them_unloaded(tmp_path):
    commands = [
        ["usecases"],
        ["latency", "--preset", "tdd3800"],
        ["capacity", "--seed", "1", "--drops", "1", "--gnbs", "3"],
        ["sinr-map", "--resolution", "10"],
        ["coexist", "--indoor", "DDDDUDDDUU", "--outdoor", "DDDDU"],
    ]
    loaded = loaded_after(commands, DEFERRED + ("numpy.random",), tmp_path)
    assert loaded == {
        "import": ["numpy.random"],
        "usecases": ["numpy.random"],
        "latency": ["numpy.random"],
        "capacity": ["numpy.random"],
        "sinr-map": ["numpy.random"],
        "coexist": ["numpy.random"],
    }


def test_exclusion_loads_the_solver_on_its_first_solve(tmp_path):
    commands = [["exclusion", "--table15", "--seed", "1", "--k-points", "8"]]
    loaded = loaded_after(commands, ("scipy.optimize",), tmp_path)
    assert loaded == {"import": [], "exclusion": ["scipy.optimize"]}
