"""nrfactory benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Workloads:

    capacity           criterion-6 capacity quartet, workers=1
    capacity-workers2  the same quartet with a 2-process pool per probe
    exclusion          table15 scenario build plus three max-min solves
    cli                in-process CLI: sinr-map DL/UL, latency x3, coexist, usecases

With ``--trace 0`` the result carries the end-to-end metrics ``setup_s``
(median over several fresh processes of start-to-ready: import plus input
set-up), ``wall_s`` (median seconds of one pass over the job list) and
``peak_rss_mb`` (workload process plus its largest worker).  ``--workload
all`` runs every workload in turn and ends with a summary table.  With
``--trace 1`` it carries the per-layer metrics of traced passes and
``trace.overhead_frac``.  Failed jobs (raised, non-zero CLI exit, failed
output check) are counted in ``failed`` out of ``attempted``.  The last
line of standard output is the JSON result; details, per-job rows and the
run context go to ``.bench_out/`` and the lines above it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("capacity", "capacity-workers2", "exclusion", "cli")
SETUP_SAMPLES = 21   # fresh processes timed from start to ready per run
RUN_LIMIT_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def start_workload(args, outdir: Path, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a workload process and wait for its ``ready`` line; returns it and its set-up seconds."""
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--outdir", str(outdir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], 60.0)
    line = proc.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"workload process did not get ready (got {line!r})")
    return proc, setup_s


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def setup_only(args, out_root: Path, tag: str, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        proc, seconds = start_workload(args, out_root / f"{tag}-setup", setup_only=True)
        proc.communicate(timeout=30)
        if proc.returncode != 0:
            raise BenchError(f"set-up process exited with {proc.returncode}")
        samples.append(seconds)
    return samples


def run_workload(args) -> dict:
    """Run one workload in fresh processes; returns its context, rows and metrics."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    out_root = ROOT / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # set-up samples bracket the measured run, so slow drift of the machine
    # moves their median less
    extra = 0 if args.trace else SETUP_SAMPLES // 2
    setup_samples = setup_only(args, out_root, tag, extra)
    proc, seconds = start_workload(args, out_root / f"{tag}-work", setup_only=False)
    setup_samples.append(seconds)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("workload process ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    setup_samples += setup_only(args, out_root, tag, extra)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **result["versions"],
        "thread_env": {var: child_env()[var] for var in THREAD_VARS},
    }
    if args.trace:
        metrics = result["layer_metrics"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_s": {"value": statistics.median(result["pass_seconds"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    run = {"context": context, "setup_samples_s": setup_samples, **result, "metrics": metrics}
    out_root.mkdir(exist_ok=True)
    (out_root / f"result-{tag}.json").write_text(json.dumps(run, indent=1))
    return run


def report(run: dict) -> dict:
    """Print the run's context, job rows and metrics; returns the contract's result object."""
    rows = run["rows"]
    failed = [row for row in rows if row["status"] != "ok"]
    mismatches = run.get("count_mismatches", [])
    print("context " + json.dumps(run["context"]))
    by_job: dict[str, list[dict]] = {}
    for row in rows:
        by_job.setdefault(f"{row['phase']} {row['job']}", []).append(row)
    for name, job_rows in by_job.items():
        bad = sum(row["status"] != "ok" for row in job_rows)
        median_s = statistics.median(row["seconds"] for row in job_rows)
        last = job_rows[-1]
        detail = last.get("result") if last["status"] == "ok" else last["status"]
        print(f"job {name}: runs={len(job_rows)} failed={bad} median_s={median_s:.4f} result={json.dumps(detail)}")
    if "counts" in run:
        print("counts " + json.dumps(run["counts"]))
        if mismatches:
            print("count mismatch between traced passes: " + ", ".join(mismatches))
        if run["absent"]:
            print("absent: " + ", ".join(run["absent"]))
    print(f"failed_frac {len(failed) / len(rows):.4f} ({len(failed)}/{len(rows)} jobs)")
    for name, metric in run["metrics"].items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": not failed and not mismatches,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": run["metrics"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "nrfactory" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no nrfactory sources under {ROOT / 'src'}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            run = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
            sys.stderr.write(f"bench: {name}: {exc}\n")
            return 1
        results[name] = report(run)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print("summary")
    for name, result in results.items():
        cells = [f"{k}={m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()]
        frac = result["failed"] / result["attempted"]
        print(f"  {name:18s} " + "  ".join(cells) + f"  failed_frac={frac:.3f} 1")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
