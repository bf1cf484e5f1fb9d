"""What the traced run wraps in ``nrfactory`` and the per-layer metrics it derives.

The layers are the modules of ``src/nrfactory``.  Engine modules get their
public entry points wrapped by name; the small modules (timing,
coexistence, usecases, config) get every public function wrapped and are
reported as layer totals, counting only calls entered from another layer.
"""

from __future__ import annotations

import inspect
import sys

from tracer import PACKAGE, Tracer, argument

CLI_COMMANDS = {
    "usecases": "cmd_usecases",
    "latency": "cmd_latency",
    "sinr-map": "cmd_sinr_map",
    "coexist": "cmd_coexist",
}

WHOLE_MODULES = ("timing", "coexistence", "usecases", "config")


def _ues(counts, fn, args, kwargs, links):
    counts["ues"] = counts.get("ues", 0) + len(argument(fn, args, kwargs, "ue_positions"))


def _rays(counts, fn, args, kwargs, channel):
    counts["rays"] = counts.get("rays", 0) + channel.q


def _probe(counts, fn, args, kwargs, load):
    n_users = argument(fn, args, kwargs, "n_users")
    n_drops = argument(fn, args, kwargs, "n_drops")
    directions = argument(fn, args, kwargs, "directions")
    counts["feasible"] = counts.get("feasible", 0) + bool(load.feasible)
    counts["user_drops"] = counts.get("user_drops", 0) + n_users * n_drops
    counts["drop_directions"] = counts.get("drop_directions", 0) + n_drops * len(directions)


def _lp_outcome(counts, fn, args, kwargs, allocation):
    counts["lp_infeasible"] = counts.get("lp_infeasible", 0) + (allocation is None)


def _lp_matrix(counts, fn, args, kwargs, result):
    a_ub = argument(fn, args, kwargs, "A_ub")
    counts["lp_bytes"] = counts.get("lp_bytes", 0) + a_ub.size * a_ub.itemsize


# (module, name, leaf, hook); leaf names run millions of times per pass
NAMED = [
    ("radiolink", "sinr_to_se", True, None),
    ("radiolink", "dl_sinr_array", False, None),
    ("radiolink", "ul_sinr_array", False, None),
    ("radiolink", "build_links", False, _ues),
    ("radiolink", "dl_sinr", False, None),
    ("radiolink", "ul_sinr", False, None),
    ("radiolink", "sinr_grid", False, None),
    ("propagation", "pathloss_array", True, None),
    ("propagation", "synthesize_multipath", False, _rays),
    ("capacity", "max_served_users", False, None),
    ("capacity", "evaluate_load", False, _probe),
    ("capacity", "ProcessPoolExecutor", False, None),
    ("exclusion", "table15_scenario", False, None),
    ("exclusion", "solve_maxmin", False, None),
    ("exclusion", "feasibility_lp", False, _lp_outcome),
    ("exclusion", "linprog", False, _lp_matrix),
    ("cli", "main", False, None),
] + [("cli", fn, False, None) for fn in CLI_COMMANDS.values()]


def install(tracer: Tracer) -> None:
    """Wrap every traced name; names the program no longer has become absent."""
    for module, name, leaf, hook in NAMED:
        tracer.trace(module, name, leaf=leaf, hook=hook)
    for module in WHOLE_MODULES:
        mod = sys.modules[f"{PACKAGE}.{module}"]
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                tracer.trace(module, name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _metrics(t: Tracer) -> list[tuple[str, str, tuple[str, ...], object]]:
    """(metric, unit, traced names it needs, value) for one pass."""
    c, s, count = t.calls, t.seconds, t.counts.get
    sinr_in_capacity = c("radiolink.dl_sinr_array", "capacity") + c("radiolink.ul_sinr_array", "capacity")
    layer = {name: t.layers.get(name, [0, 0.0]) for name in WHOLE_MODULES}
    rows = [
        ("radiolink.sinr_to_se.calls", "count", ("radiolink.sinr_to_se",), c("radiolink.sinr_to_se")),
        ("radiolink.sinr_to_se.s", "s", ("radiolink.sinr_to_se",), s("radiolink.sinr_to_se")),
        ("radiolink.dl_sinr_array.calls", "count", ("radiolink.dl_sinr_array",), c("radiolink.dl_sinr_array")),
        ("radiolink.dl_sinr_array.s", "s", ("radiolink.dl_sinr_array",), s("radiolink.dl_sinr_array")),
        ("radiolink.ul_sinr_array.calls", "count", ("radiolink.ul_sinr_array",), c("radiolink.ul_sinr_array")),
        ("radiolink.ul_sinr_array.s", "s", ("radiolink.ul_sinr_array",), s("radiolink.ul_sinr_array")),
        ("radiolink.build_links.calls", "count", ("radiolink.build_links",), c("radiolink.build_links")),
        ("radiolink.build_links.s", "s", ("radiolink.build_links",), s("radiolink.build_links")),
        ("radiolink.build_links.ues_per_call", "ue/call", ("radiolink.build_links",),
         _ratio(count("ues", 0), c("radiolink.build_links"))),
        ("radiolink.point_sinr.calls", "count", ("radiolink.dl_sinr", "radiolink.ul_sinr"),
         c("radiolink.dl_sinr") + c("radiolink.ul_sinr")),
        ("radiolink.sinr_grid.s", "s", ("radiolink.sinr_grid",), s("radiolink.sinr_grid")),
        ("propagation.pathloss_array.calls", "count", ("propagation.pathloss_array",),
         c("propagation.pathloss_array")),
        ("propagation.pathloss_array.s", "s", ("propagation.pathloss_array",), s("propagation.pathloss_array")),
        ("propagation.synthesize_multipath.calls", "count", ("propagation.synthesize_multipath",),
         c("propagation.synthesize_multipath")),
        ("propagation.synthesize_multipath.s", "s", ("propagation.synthesize_multipath",),
         s("propagation.synthesize_multipath")),
        ("propagation.rays", "count", ("propagation.synthesize_multipath",), count("rays", 0)),
        ("capacity.probes", "count", ("capacity.evaluate_load",), c("capacity.evaluate_load")),
        ("capacity.probe_feasible_ratio", "1", ("capacity.evaluate_load",),
         _ratio(count("feasible", 0), c("capacity.evaluate_load"))),
        ("capacity.user_drops", "count", ("capacity.evaluate_load",), count("user_drops", 0)),
        ("capacity.s_per_user_drop", "s", ("capacity.evaluate_load",),
         _ratio(s("capacity.evaluate_load"), count("user_drops", 0))),
        ("capacity.sinr_evals_per_drop", "call/drop",
         ("capacity.evaluate_load", "radiolink.dl_sinr_array", "radiolink.ul_sinr_array"),
         _ratio(sinr_in_capacity, count("drop_directions", 0))),
        ("capacity.evaluate_load.self_s", "s", ("capacity.evaluate_load",), t.self_seconds("capacity.evaluate_load")),
        ("capacity.pools", "count", ("capacity.ProcessPoolExecutor",), c("capacity.ProcessPoolExecutor")),
        ("exclusion.lp_solves", "count", ("exclusion.feasibility_lp",), c("exclusion.feasibility_lp")),
        ("exclusion.lp_infeasible_ratio", "1", ("exclusion.feasibility_lp",),
         _ratio(count("lp_infeasible", 0), c("exclusion.feasibility_lp"))),
        ("exclusion.linprog.s", "s", ("exclusion.linprog",), s("exclusion.linprog")),
        ("exclusion.lp_build_s", "s", ("exclusion.feasibility_lp", "exclusion.linprog"),
         s("exclusion.feasibility_lp") - s("exclusion.linprog")),
        ("exclusion.lp_mb", "MB", ("exclusion.linprog",), count("lp_bytes", 0) / 1e6),
        ("exclusion.table15_scenario.s", "s", ("exclusion.table15_scenario",), s("exclusion.table15_scenario")),
        ("exclusion.table15_scenario.self_s", "s", ("exclusion.table15_scenario",),
         t.self_seconds("exclusion.table15_scenario")),
        ("exclusion.solve_maxmin.calls", "count", ("exclusion.solve_maxmin",), c("exclusion.solve_maxmin")),
        ("exclusion.solve_maxmin.s", "s", ("exclusion.solve_maxmin",), s("exclusion.solve_maxmin")),
        ("timing.calls", "count", (), layer["timing"][0]),
        ("timing.s", "s", (), layer["timing"][1]),
        ("coexistence.calls", "count", (), layer["coexistence"][0]),
        ("coexistence.s", "s", (), layer["coexistence"][1]),
        ("usecases.calls", "count", (), layer["usecases"][0]),
        ("usecases.s", "s", (), layer["usecases"][1]),
        ("config.load_scenario.calls", "count", ("config.load_scenario",), c("config.load_scenario")),
        ("config.load_scenario.s", "s", ("config.load_scenario",), s("config.load_scenario")),
    ]
    rows += [
        (f"cli.{command}.s", "s", (f"cli.{fn}",), s(f"cli.{fn}")) for command, fn in CLI_COMMANDS.items()
    ]
    cli_names = ("cli.main",) + tuple(f"cli.{fn}" for fn in CLI_COMMANDS.values())
    rows.append(("cli.self_s", "s", ("cli.main",), sum(t.self_seconds(n) for n in cli_names)))
    return rows


def pass_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the pass just traced; absent names are left out."""
    return {
        metric: (float(value), unit)
        for metric, unit, needs, value in _metrics(t)
        if all(t.has(name) for name in needs)
    }


def pass_counts(t: Tracer) -> dict[str, int]:
    """The work counters that must repeat exactly between passes on the same inputs."""
    calls: dict[str, int] = {}
    for (name, _), stat in t.stats.items():
        calls[f"{name}.calls"] = calls.get(f"{name}.calls", 0) + stat[0]
    counts = {key: value for key, value in sorted(calls.items()) if value}
    counts.update({key: int(value) for key, value in sorted(t.counts.items())})
    return counts


def absent_metrics(t: Tracer) -> list[str]:
    """Per-layer metrics that need a name the program no longer has."""
    return [metric for metric, _, needs, _ in _metrics(t) if not all(t.has(name) for name in needs)]
