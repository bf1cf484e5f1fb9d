"""The names the traced benchmark wraps still exist, with the arguments its hooks read.

``bench/layers.py`` wraps functions of ``nrfactory`` by module path.  A name
that vanishes silently drops its per-layer metrics from the traced result,
and a hook that cannot read its argument fails the benchmark job.  The
benchmark directory is imported read-only: no bytecode is written there.
"""

import importlib
import inspect
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from nrfactory import exclusion

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("layers")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))


def package_module(module: str):
    return importlib.import_module(f"nrfactory.{module}")


def hook_arguments(hook) -> list[str]:
    """The call arguments a hook reads through ``tracer.argument``."""
    return re.findall(r'argument\(fn, args, kwargs, "(\w+)"\)', inspect.getsource(hook))


def test_every_traced_name_exists(layers):
    missing = [
        f"{module}.{name}"
        for module, name, _, _ in layers.NAMED
        if not hasattr(package_module(module), name)
    ]
    assert missing == []


def test_hooks_find_their_arguments(layers):
    read = set()
    for module, name, _, hook in layers.NAMED:
        if hook is None:
            continue
        params = inspect.signature(getattr(package_module(module), name)).parameters
        for arg in hook_arguments(hook):
            assert arg in params, f"{module}.{name} has no parameter {arg!r}"
            read.add(arg)
    assert read == {"ue_positions", "n_users", "n_drops", "directions", "A_ub"}


def test_lp_matrix_is_a_dense_array(monkeypatch):
    # the LP-size hook reads A_ub.itemsize, which scipy sparse matrices lack
    seen = []
    real = exclusion.linprog

    def spy(*args, **kwargs):
        seen.append(kwargs["A_ub"])
        return real(*args, **kwargs)

    monkeypatch.setattr(exclusion, "linprog", spy)
    rng = np.random.default_rng(0)
    scenario = exclusion.CellFreeScenario(
        h=rng.uniform(0.1, 0.5, size=(2, 3)) + 0j,
        g=rng.uniform(0.1, 0.5, size=(2, 1)) + 0j,
        p_t_mw=1.0, noise_mw=1.0, gamma_norm=0.1,
    )
    exclusion.solve_maxmin(scenario, use_exclusion=True)
    assert len(seen) == 1
    assert isinstance(seen[0], np.ndarray)
    assert seen[0].size * seen[0].itemsize > 0
