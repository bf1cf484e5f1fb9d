"""One workload process of the nrfactory benchmark.

Started by run.py, which sets the thread environment and the import path.
The process imports nrfactory, builds the workload's inputs from the seed
and prints ``ready``; run.py times set-up up to that line.  It then runs
passes over the workload's job list, checks every job's output and prints
one JSON line with the pass times, job rows and, with ``--trace 1``, the
per-layer metrics of a second series of traced passes.

Jobs call only public entry points of nrfactory, with the engines' default
solver arguments.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy

import nrfactory.cli
from nrfactory import capacity, exclusion, radiolink
from nrfactory.config import load_scenario
from nrfactory.propagation import FactoryScenario, Hall, default_gnb_layout, gnb_grid
from nrfactory.radiolink import AasAntenna, BandConfig, RadioConfig
from nrfactory.timing import TddPattern
from nrfactory.usecases import find_use_case

import layers
from tracer import Tracer

WORKLOADS = ("capacity", "capacity-workers2", "exclusion", "cli")
HARD_LIMIT_S = 150.0   # run.py must exit within 180 s


class CheckFailed(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclasses.dataclass
class Job:
    name: str
    run: Callable[[dict], Any]          # receives the results of earlier jobs of the pass
    check: Callable[[Any, dict], None]  # raises CheckFailed; the dict includes this job
    summary: Callable[[Any], Any]


# --- capacity: the criterion-6 quartet -------------------------------------

HALL = Hall(120.0, 50.0, 10.0)


def capacity_jobs(seed: int, workers: int) -> list[Job]:
    uc1 = find_use_case("UC1")

    def scenario(n_gnbs):
        grid = gnb_grid(2, 6, 8.0, HALL) if n_gnbs == 12 else gnb_grid(1, 3, 8.0, HALL)
        return FactoryScenario(hall=HALL, gnb_positions=grid, scenario_type="InF_DH", carrier_ghz=3.8)

    def band(pattern):
        return BandConfig(duplex="TDD", carrier_ghz=3.8, bandwidth_mhz=100.0, scs_khz=30,
                          tdd_pattern=TddPattern.from_string(pattern), tti_symbols=14)

    omni = RadioConfig(gnb_nf_db=5.0, ue_nf_db=9.0)
    aas = RadioConfig(antenna=AasAntenna(), gnb_nf_db=5.0, ue_nf_db=9.0)
    configs = {
        "omni3-DUDU": (scenario(3), band("DUDU"), omni),
        "aas3-DUDU": (scenario(3), band("DUDU"), aas),
        "aas12-DUDU": (scenario(12), band("DUDU"), aas),
        "omni3-DDDSU": (scenario(3), band("DDDSU"), omni),
    }

    def search(sc, bd, radio):
        return lambda done: capacity.max_served_users(sc, bd, radio, uc1, n_drops=20, seed=seed, workers=workers)

    def check_min(res, done):
        expect(res.combined == min(res.max_users_dl, res.max_users_ul), "combined != min(dl, ul)")

    def check_orderings(res, done):
        check_min(res, done)
        omni3, aas3, aas12, dddsu3 = (done[name] for name in configs)
        expect(aas12.combined >= aas3.combined >= omni3.combined, "antenna/density ordering")
        expect(dddsu3.max_users_dl >= omni3.max_users_dl, "DL favours DDDSU")
        expect(omni3.max_users_ul >= dddsu3.max_users_ul, "UL favours DUDU")
        expect(omni3.combined > dddsu3.combined, "balanced pattern wins overall")

    names = list(configs)
    return [
        Job(name, search(*configs[name]), check_orderings if name == names[-1] else check_min,
            lambda r: {"dl": r.max_users_dl, "ul": r.max_users_ul})
        for name in names
    ]


# --- exclusion: table15 build and three max-min solves ----------------------

def exclusion_jobs(seed: int) -> list[Job]:
    def build(done):
        return exclusion.table15_scenario(seed=seed, gamma_dbm=-120.0, max_reflections=1, k_points=112)

    def check_build(sc, done):
        expect(sc.h.shape == (72, 112) and sc.g.shape == (72, 8), f"shapes {sc.h.shape} {sc.g.shape}")
        expect(bool(np.all(np.isfinite(sc.h)) and np.all(np.isfinite(sc.g))), "non-finite channel")

    def solve(use_exclusion, gamma_dbm=None):
        def run(done):
            sc = done["table15"]
            if gamma_dbm is not None:
                sc = dataclasses.replace(sc, gamma_norm=exclusion.gamma_norm_from_dbm(gamma_dbm, sc.p_t_mw))
            return sc, exclusion.solve_maxmin(sc, use_exclusion=use_exclusion)
        return run

    def check_solution(out, done, ceiling: bool):
        sc, res = out
        rho = np.asarray(res.allocation.rho)
        h_pow = np.abs(sc.h) ** 2
        expect(bool(np.all(rho >= 0.0)), "negative rho")
        expect(bool(np.all(rho.sum(axis=1) <= 1.0 + 1e-9)), "AP budget exceeded")
        if ceiling:
            power = (np.abs(sc.g) ** 2).T @ rho.sum(axis=1)
            expect(bool(np.all(power <= sc.gamma_norm * (1.0 + 1e-9))), "exclusion ceiling exceeded")
        received = np.einsum("mk,mk->k", rho, h_pow)
        se = np.log2(1.0 + received / (received.sum() - received + sc.noise_mw / sc.p_t_mw))
        expect(abs(float(se.min()) - res.min_se) <= 1e-9, "min_se does not match the allocation")
        k = sc.k_users
        expect(res.min_se <= math.log2(1.0 + 1.0 / (k - 1)) + 1e-12, "min_se above log2(1 + 1/(K-1))")
        if not ceiling:
            expect(float(se.max() - se.min()) <= 1e-3, "best-worst user spread above 1e-3")

    def check_free(out, done):
        check_solution(out, done, ceiling=False)

    def check_120(out, done):
        check_solution(out, done, ceiling=True)

    def check_90(out, done):
        check_solution(out, done, ceiling=True)
        free, at_90, at_120 = (done[n][1].min_se for n in ("maxmin", "maxmin-90dBm", "maxmin-120dBm"))
        expect(at_90 < free, "the -90 dBm ceiling does not bind")
        expect(free >= at_90 - 2e-3 and at_90 >= at_120 - 2e-3, "min_se does not fall as the ceiling tightens")

    def min_se(out):
        return {"min_se": out[1].min_se}

    return [
        Job("table15", build, check_build, lambda sc: {"aps": sc.m_aps, "users": sc.k_users}),
        Job("maxmin", solve(False), check_free, min_se),
        Job("maxmin-120dBm", solve(True), check_120, min_se),
        Job("maxmin-90dBm", solve(True, -90.0), check_90, min_se),
    ]


# --- cli: in-process nrfactory.cli.main -------------------------------------

LATENCY_JOBS = {
    "latency-fdd2100": ("fdd2100", ["--bound", "5"]),
    "latency-tdd3800-DUDU-tti2": ("tdd3800", ["--pattern", "DUDU", "--tti", "2", "--bound", "2"]),
    "latency-tdd26000": ("tdd26000", ["--bound", "1"]),
}


def cli_jobs(seed: int, outdir: Path) -> list[Job]:
    os.environ["NRFACTORY_OUTDIR"] = str(outdir)
    # `latency --preset P` crashes when the scenario has no [scheduling]
    # section, so each preset gets a config file that states the latency
    # calculator's default scheduling explicitly.
    for name, (preset, _) in LATENCY_JOBS.items():
        (outdir / f"{name}.yaml").write_text(
            f"band:\n  preset: {preset}\nscheduling:\n  ul_access: sr_based\n"
        )
    cfg = load_scenario({"band": {"preset": "tdd3800"}})
    map_scenario = dataclasses.replace(
        cfg.scenario, gnb_positions=default_gnb_layout(12, cfg.scenario.hall)
    )
    map_radio = dataclasses.replace(cfg.radio, antenna=AasAntenna())
    # the CLI jobs take no random input; the seed picks the map points the
    # check recomputes through radiolink
    sample = random.Random(seed).sample(range(6000), 4)

    def cli(argv):
        def run(done):
            try:
                return nrfactory.cli.main(argv)
            except SystemExit as exc:
                return exc.code
        return run

    def exit_ok(code):
        expect(code == 0, f"exit code {code}")

    def output(path: Path) -> str:
        # Read and remove, so that every pass writes a new file: overwriting
        # an existing one costs far more than creating it on some filesystems.
        try:
            return path.read_text()
        finally:
            path.unlink(missing_ok=True)

    def check_map(direction, path):
        point_sinr = radiolink.dl_sinr if direction == "DL" else radiolink.ul_sinr

        def check(code, done):
            exit_ok(code)
            rows = list(csv.reader(output(path).splitlines()))
            expect(rows[0] == ["x_m", "y_m", "sinr_db"], "map header")
            values = [[float(v) for v in row] for row in rows[1:]]
            expect(len(values) == 6000, f"{len(values)} map rows")
            expect(all(math.isfinite(v) for row in values for v in row), "non-finite map value")
            for i in sample:
                x, y, sinr = values[i]
                want = point_sinr((x, y, map_scenario.ue_height_m), map_scenario, cfg.band, map_radio)
                expect(abs(sinr - round(want, 6)) <= 1e-6, f"map point ({x}, {y}): {sinr} != {want}")
        return check

    def check_latency(path):
        def check(code, done):
            exit_ok(code)
            for direction, entry in json.loads(output(path))["directions"].items():
                t_up = entry["t_up_ms_by_retx"]
                expect(all(a < b for a, b in zip(t_up, t_up[1:])), f"{direction} t_up not rising: {t_up}")
        return check

    def check_coexist(code, done):
        exit_ok(code)
        payload = json.loads(output(outdir / "coexist.json"))
        for direction in ("dl", "ul"):
            parts = payload[direction]
            total = sum(Fraction(parts[k]["exact"]) for k in ("near_far", "cross_link", "quiet"))
            expect(total == 1, f"{direction} fractions sum to {total}")

    def check_usecases(code, done):
        exit_ok(code)
        payload = json.loads(output(outdir / "usecases.json"))
        expect(len(payload["use_cases"]) == 10, f"{len(payload['use_cases'])} use cases")

    map_args = ["--preset", "tdd3800", "--gnbs", "12", "--antenna", "aas", "--resolution", "1"]
    jobs = [
        Job(f"sinr-map-{d}", cli(["sinr-map", *map_args, "--direction", d, "-o", f"map_{d}.csv"]),
            check_map(d, outdir / f"map_{d}.csv"), lambda code: {"exit": code})
        for d in ("DL", "UL")
    ]
    for name, (_, extra) in LATENCY_JOBS.items():
        argv = ["latency", "--config", str(outdir / f"{name}.yaml"), *extra, "-o", f"{name}.json"]
        jobs.append(Job(name, cli(argv), check_latency(outdir / f"{name}.json"), lambda code: {"exit": code}))
    jobs.append(Job(
        "coexist",
        cli(["coexist", "--indoor", "DDDDUDDDUU", "--outdoor", "DDDDU", "--find-safe", "10", "-o", "coexist.json"]),
        check_coexist, lambda code: {"exit": code},
    ))
    jobs.append(Job("usecases", cli(["usecases", "--format", "json", "-o", "usecases.json"]),
                    check_usecases, lambda code: {"exit": code}))
    return jobs


def make_jobs(workload: str, seed: int, outdir: Path) -> list[Job]:
    if workload == "capacity":
        return capacity_jobs(seed, workers=1)
    if workload == "capacity-workers2":
        return capacity_jobs(seed, workers=2)
    if workload == "exclusion":
        return exclusion_jobs(seed)
    return cli_jobs(seed, outdir)


# --- passes -----------------------------------------------------------------

def run_pass(jobs: list[Job], rows: list[dict], phase: str, tracer: Tracer | None = None) -> float:
    """Run every job once; returns the summed job seconds (checks excluded)."""
    done: dict = {}
    total = 0.0
    for job in jobs:
        row = {"phase": phase, "job": job.name, "status": "ok"}
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            result = job.run(done)
        except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
            result = None
            row["status"] = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        total += seconds
        row["seconds"] = seconds
        if row["status"] == "ok":
            done[job.name] = result
            try:
                job.check(result, done)
                row["result"] = job.summary(result)
            except CheckFailed as exc:
                row["status"] = f"check failed: {exc}"
            except Exception as exc:  # unreadable output fails the job
                row["status"] = f"check raised {type(exc).__name__}: {exc}"
        rows.append(row)
    return total


def run_passes(jobs, rows, phase, budget_s, min_passes, deadline, tracer=None, on_pass=None) -> list[float]:
    """Passes until the next one would end after ``budget_s`` (at least ``min_passes``)."""
    start = time.perf_counter()
    times: list[float] = []
    while True:
        elapsed = time.perf_counter() - start
        mean = elapsed / len(times) if times else 0.0
        if len(times) >= min_passes and (
            elapsed + mean > budget_s or time.perf_counter() + mean > deadline
        ):
            return times
        if tracer is not None:
            tracer.new_pass()
        times.append(run_pass(jobs, rows, phase, tracer))
        if on_pass is not None:
            on_pass()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # largest reaped worker
    return (own + workers) * 1024 / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    args.outdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = make_jobs(args.workload, args.seed, args.outdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        deadline = time.perf_counter() + HARD_LIMIT_S
        rows: list[dict] = []
        result: dict = {
            "versions": {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
        }
        untraced_budget = args.seconds / 3 if args.trace else args.seconds
        untraced = run_passes(jobs, rows, "untraced", untraced_budget, 1, deadline)
        result["pass_seconds"] = untraced
        if args.trace:
            result.update(traced_series(jobs, rows, args, untraced, deadline))
        result["peak_rss_mb"] = peak_rss_mb()
        result["rows"] = rows
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(args.outdir, ignore_errors=True)


def traced_series(jobs, rows, args, untraced: list[float], deadline: float) -> dict:
    """Traced passes: per-layer metrics (medians over passes) and the exact-count check."""
    tracer = Tracer()
    layers.install(tracer)
    per_pass: list[dict] = []
    counts: list[dict] = []

    def collect():
        per_pass.append(layers.pass_metrics(tracer))
        counts.append(layers.pass_counts(tracer))

    try:
        traced = run_passes(jobs, rows, "traced", args.seconds - sum(untraced), 2, deadline, tracer, collect)
    finally:
        tracer.uninstall()

    metrics = {
        name: {"value": statistics.median(p[name][0] for p in per_pass), "unit": unit}
        for name, (_, unit) in per_pass[0].items()
    }
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(traced) / statistics.median(untraced) - 1.0, "unit": "1",
    }
    keys = set().union(*counts)
    mismatched = sorted(k for k in keys if len({c.get(k) for c in counts}) > 1)
    spans_file = args.outdir.parent / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({
        "fields": tracer.span_fields,
        "spans": tracer.spans(),
    }))
    return {
        "traced_pass_seconds": traced,
        "layer_metrics": metrics,
        "counts": counts[0],
        "count_mismatches": mismatched,
        "absent": tracer.absent + layers.absent_metrics(tracer),
        "spans_file": spans_file.name,
    }


if __name__ == "__main__":
    sys.exit(main())
