"""Command-line surface tying the evaluation engines together.

Subcommands: latency, capacity, sinr-map, coexist, exclusion, usecases.
Exit codes: 0 success, 1 validation/input error, 2 solver failure.
Stochastic commands require --seed and produce byte-identical outputs for
identical command lines; NRFACTORY_OUTDIR sets the default output
directory for relative paths.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, capacity as capacity_mod, coexistence as coexist_mod
from . import exclusion as exclusion_mod
from .config import ExclusionSection, ScenarioConfig, load_scenario, preset_checksum, PRESET_NAMES
from .errors import NrFactoryError, SolverFailure
from .propagation import default_gnb_layout
from .radiolink import AasAntenna, DasAntenna, OmniAntenna, sinr_grid
from .timing import (
    SchedulingConfig,
    TddPattern,
    max_attempts_within_bound,
    one_way_latency,
    worst_case_alignment,
)
from .usecases import builtin_use_cases, find_use_case


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


# the latency table has one row per retransmission count; a bound keeps it small
MAX_RETX = 64


def _checked(convert, ok, what: str):
    """An argparse ``type=`` that converts the text and rejects values failing ``ok``."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_nonnegative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_retx_count = _checked(int, lambda v: 0 <= v <= MAX_RETX, f"an integer in 0..{MAX_RETX}")
_finite_float = _checked(float, math.isfinite, "a finite number")
_nonnegative_float = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite non-negative number")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite positive number")


def _out_path(name: Optional[str]) -> Optional[Path]:
    if name is None:
        return None
    path = Path(name)
    outdir = os.environ.get("NRFACTORY_OUTDIR")
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _emit(text: str, out: Optional[Path]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _emit_json(payload: dict, out: Optional[Path]) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _emit_csv(header: list[str], rows: list[list], out: Optional[Path]) -> None:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(text.getvalue(), out)


def _scenario_from_args(args) -> ScenarioConfig:
    if getattr(args, "config", None):
        cfg = load_scenario(args.config)
    else:
        overlay: dict = {"band": {"preset": args.preset}}
        cfg = load_scenario(overlay)
    band = cfg.band
    sched = cfg.scheduling
    if getattr(args, "pattern", None) is not None:
        band = dataclasses.replace(band, tdd_pattern=TddPattern.from_string(args.pattern))
    if getattr(args, "tti", None) is not None:
        band = dataclasses.replace(band, tti_symbols=args.tti)
        if sched is not None:
            sched = dataclasses.replace(sched, tti_symbols=args.tti)
    radio = cfg.radio
    if getattr(args, "antenna", None):
        if args.antenna == "omni":
            radio = dataclasses.replace(radio, antenna=OmniAntenna())
        elif args.antenna == "das":
            radio = dataclasses.replace(radio, antenna=DasAntenna(), gnb_nf_db=19.0)
        else:
            radio = dataclasses.replace(radio, antenna=AasAntenna())
    scenario = cfg.scenario
    if getattr(args, "gnbs", None) is not None:
        scenario = dataclasses.replace(
            scenario, gnb_positions=default_gnb_layout(args.gnbs, scenario.hall)
        )
    return dataclasses.replace(cfg, band=band, radio=radio, scenario=scenario, scheduling=sched)


def cmd_usecases(args) -> int:
    cases = builtin_use_cases()
    out = _out_path(args.output)
    if args.format == "json":
        payload = {
            "use_cases": [
                {
                    "name": c.name,
                    "message_size_bytes": c.message_size_bytes,
                    "cycle_time_ms": c.cycle_time_ms,
                    "bitrate_mbps": c.bitrate_mbps,
                    "csa_nines_min": c.csa_nines[0],
                    "csa_nines_max": c.csa_nines[1],
                    "survival_time_cycles": c.survival_time_cycles,
                    "latency_bound_ms": c.latency_bound_ms,
                    "network_reliability": c.network_reliability,
                }
                for c in cases
            ]
        }
        _emit_json(payload, out)
    else:
        header = [
            "name", "message_size_bytes", "cycle_time_ms", "bitrate_mbps",
            "csa_nines_min", "csa_nines_max", "survival_time_cycles",
            "latency_bound_ms", "network_reliability_fraction",
        ]
        rows = [
            [
                c.name, c.message_size_bytes, c.cycle_time_ms,
                "" if c.bitrate_mbps is None else c.bitrate_mbps,
                c.csa_nines[0], c.csa_nines[1], c.survival_time_cycles,
                c.latency_bound_ms, c.network_reliability,
            ]
            for c in cases
        ]
        _emit_csv(header, rows, out)
    return 0


def cmd_latency(args) -> int:
    cfg = _scenario_from_args(args)
    band = cfg.band
    # no [scheduling] section: SR-based uplink on the band's TTI
    sched = cfg.scheduling if cfg.scheduling is not None else SchedulingConfig(tti_symbols=band.tti_symbols)
    if args.ul_access:
        sched = dataclasses.replace(sched, ul_access=args.ul_access)
    if args.capability:
        sched = dataclasses.replace(sched, ue_capability=args.capability)
    if args.pdcch is not None:
        sched = dataclasses.replace(sched, pdcch_occasions_per_slot=args.pdcch)
    if args.harq is not None:
        sched = dataclasses.replace(sched, harq_feedback_occasions_per_slot=args.harq)
    num = band.numerology
    directions = ["DL", "UL"] if args.direction == "both" else [args.direction]

    payload: dict = {
        "band": {"duplex": band.duplex, "carrier_ghz": band.carrier_ghz, "scs_khz": band.scs_khz},
        "pattern": str(band.tdd_pattern) if band.tdd_pattern else None,
        "tti_symbols": sched.tti_symbols,
        "ul_access": sched.ul_access,
        "ue_capability": sched.ue_capability,
        "directions": {},
    }
    for direction in directions:
        align = worst_case_alignment(band.tdd_pattern, num, sched, direction)
        results = [
            one_way_latency(band.tdd_pattern, num, sched, None, direction, n)
            for n in range(args.retx + 1)
        ]
        entry = {
            "worst_case_alignment_ms": align,
            "t1_ms": results[0].t1_ms,
            "t2_ms": results[0].t2_ms,
            "t_harq_ms": results[0].t_harq_ms,
            "t_up_ms_by_retx": [r.t_up_ms for r in results],
        }
        if args.bound is not None:
            fit = max_attempts_within_bound(band.tdd_pattern, num, sched, None, direction, args.bound)
            entry["bound_ms"] = args.bound
            entry["initial_fits"] = fit.initial_fits
            entry["max_retx_within_bound"] = fit.n_retx if fit.initial_fits else None
            entry["attempts_within_bound"] = fit.attempts
        payload["directions"][direction] = entry
    _emit_json(payload, _out_path(args.output))
    return 0


def cmd_capacity(args) -> int:
    cfg = _scenario_from_args(args)
    use_case = cfg.use_case if cfg.use_case else find_use_case(args.usecase)
    result = capacity_mod.max_served_users(
        cfg.scenario,
        cfg.band,
        cfg.radio,
        use_case,
        n_drops=args.drops,
        seed=args.seed,
        sched=cfg.scheduling,
        workers=args.workers,
    )
    antenna = cfg.radio.antenna
    antenna_name = (
        "omni" if isinstance(antenna, OmniAntenna)
        else "das" if isinstance(antenna, DasAntenna)
        else f"aas{antenna.rows}x{antenna.cols}x{antenna.polarizations}"
    )
    header = [
        "use_case", "band_ghz", "bandwidth_mhz", "pattern", "antenna", "gnbs_count",
        "max_dl_users", "max_ul_users", "combined_users",
        "se_dl_bits_per_s_per_hz_per_cell", "se_ul_bits_per_s_per_hz_per_cell",
        "drops_count", "seed",
    ]
    row = [
        use_case.name,
        cfg.band.carrier_ghz,
        cfg.band.bandwidth_mhz,
        str(cfg.band.tdd_pattern) if cfg.band.tdd_pattern else "FDD",
        antenna_name,
        len(cfg.scenario.gnb_positions),
        result.max_users_dl,
        result.max_users_ul,
        result.combined,
        round(result.se_per_cell_dl, 6),
        round(result.se_per_cell_ul, 6),
        result.drops_evaluated,
        args.seed,
    ]
    _emit_csv(header, [row], _out_path(args.output))
    return 0


def cmd_sinr_map(args) -> int:
    cfg = _scenario_from_args(args)
    grid = sinr_grid(
        cfg.scenario, cfg.band, cfg.radio, args.direction,
        resolution_m=args.resolution, activity=args.activity,
    )
    _emit(grid.csv_text(), _out_path(args.output))
    return 0


def cmd_coexist(args) -> int:
    indoor = TddPattern.from_string(args.indoor)
    outdoor = TddPattern.from_string(args.outdoor)
    report = coexist_mod.overlap_analysis(indoor, outdoor, slot_offset=args.offset)
    risk = coexist_mod.risk_report(report, args.separation, args.wall_loss)

    def frac(f) -> dict:
        return {"exact": f"{f.numerator}/{f.denominator}", "value": float(f)}

    payload = {
        "indoor_pattern": str(indoor),
        "outdoor_pattern": str(outdoor),
        "period_slots": report.period_slots,
        "unit": report.unit,
        "slot_offset": report.slot_offset,
        "indoor_dl_safe": report.indoor_dl_safe,
        "dl": {
            "near_far": frac(report.dl.near_far),
            "cross_link": frac(report.dl.cross_link),
            "quiet": frac(report.dl.quiet),
        },
        "ul": {
            "near_far": frac(report.ul.near_far),
            "cross_link": frac(report.ul.cross_link),
            "quiet": frac(report.ul.quiet),
        },
        "risk": {
            "overall": risk.risk,
            "dl": risk.dl_risk,
            "ul": risk.ul_risk,
            "ue_separation_m": risk.ue_separation_m,
            "wall_loss_db": risk.wall_loss_db,
            "annotations": list(risk.annotations),
        },
    }
    if args.find_safe is not None:
        safe = coexist_mod.find_safe_patterns(outdoor, args.find_safe, args.min_ul)
        payload["safe_indoor_patterns"] = [str(p) for p in safe]
    if args.offset:
        payload["warning"] = "non-zero slot offset is outside the synchronized-start operating point"
    _emit_json(payload, _out_path(args.output))
    return 0


def cmd_exclusion(args) -> int:
    # a flag given on the command line wins over the file, the file over the defaults
    section = load_scenario(args.config).exclusion if args.config else ExclusionSection()
    if section is None:
        raise NrFactoryError("config file has no [exclusion] section")
    gamma_dbm = args.gamma_dbm if args.gamma_dbm is not None else section.gamma_dbm
    tol = args.tol_bits if args.tol_bits is not None else section.tol_bits
    k_points = args.k_points if args.k_points is not None else section.k_points

    scenario = exclusion_mod.table15_scenario(
        seed=args.seed, gamma_dbm=gamma_dbm, max_reflections=section.max_reflections, k_points=k_points
    )

    def to_dbm(norm: np.ndarray) -> list[float]:
        return [round(10.0 * float(np.log10(max(p, 1e-300) * scenario.p_t_mw)), 6) for p in norm]

    uniform = exclusion_mod.uniform_full_power(scenario)
    payload: dict = {
        "m_aps": scenario.m_aps,
        "k_users": scenario.k_users,
        "l_points": scenario.l_points,
        "seed": args.seed,
        "gamma_dbm": gamma_dbm,
        "no_control": {
            "min_se_bits_per_s_per_hz": round(float(exclusion_mod.all_user_se(scenario, uniform).min()), 6),
            "per_point_power_dbm": to_dbm(exclusion_mod.all_exclusion_powers(scenario, uniform)),
        },
    }
    for label, use_excl in (("maxmin", False), ("maxmin_exclusion", True)):
        result = exclusion_mod.solve_maxmin(scenario, use_exclusion=use_excl, tol_bits=tol)
        payload[label] = {
            "min_se_bits_per_s_per_hz": round(result.min_se, 6),
            "per_user_se_bits_per_s_per_hz": [round(float(v), 6) for v in result.per_user_se],
            "per_point_power_dbm": to_dbm(result.per_point_power),
        }
    # every solve runs before either file is written, so a failure leaves neither
    rows = []
    if args.sweep_csv:
        for g in np.linspace(gamma_dbm + 40.0, gamma_dbm, args.sweep_points):
            sc = dataclasses.replace(
                scenario, gamma_norm=exclusion_mod.gamma_norm_from_dbm(float(g), scenario.p_t_mw)
            )
            res = exclusion_mod.solve_maxmin(sc, use_exclusion=True, tol_bits=tol)
            rows.append([round(float(g), 6), round(res.min_se, 6)])
    _emit_json(payload, _out_path(args.output))
    if args.sweep_csv:
        _emit_csv(
            ["gamma_dbm", "min_se_bits_per_s_per_hz"], rows, _out_path(args.sweep_csv)
        )
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="nrfactory", description=__doc__)
    parser.add_argument(
        "--version",
        action="version",
        version=f"nrfactory {__version__} (data checksum {preset_checksum()})",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_common(p, preset_default="tdd3800"):
        p.add_argument("--config", help="scenario YAML file")
        p.add_argument("--preset", default=preset_default, choices=PRESET_NAMES)
        p.add_argument("--pattern", help="TDD pattern override, e.g. DDDSU")
        p.add_argument("--tti", type=_positive_int, help="TTI length in symbols")
        p.add_argument("-o", "--output", help="output file (default: stdout)")

    p_uc = sub.add_parser("usecases", help="dump the use-case catalogue")
    p_uc.add_argument("--format", choices=("csv", "json"), default="csv")
    p_uc.add_argument("-o", "--output")
    p_uc.set_defaults(func=cmd_usecases)

    p_lat = sub.add_parser("latency", help="worst-case air-interface latency")
    add_common(p_lat)
    p_lat.add_argument("--direction", choices=("DL", "UL", "both"), default="both")
    p_lat.add_argument("--retx", type=_retx_count, default=3, help=f"max retransmissions to tabulate (0..{MAX_RETX})")
    p_lat.add_argument("--bound", type=_positive_float, help="latency bound in ms for attempt counting")
    p_lat.add_argument("--ul-access", choices=("sr_based", "configured_grant"))
    p_lat.add_argument("--capability", choices=("cap1", "cap2"))
    p_lat.add_argument("--pdcch", type=_positive_int, help="PDCCH occasions per slot")
    p_lat.add_argument("--harq", type=_positive_int, help="HARQ feedback occasions per slot")
    p_lat.set_defaults(func=cmd_latency)

    p_cap = sub.add_parser("capacity", help="maximum served users per use case")
    add_common(p_cap)
    p_cap.add_argument("--usecase", default="UC1", help="catalogue use-case name")
    p_cap.add_argument("--seed", type=_nonnegative_int, required=True)
    p_cap.add_argument("--drops", type=_positive_int, default=20)
    p_cap.add_argument("--antenna", choices=("omni", "das", "aas"))
    p_cap.add_argument("--gnbs", type=_positive_int, help="gNB count (default layout)")
    p_cap.add_argument("--workers", type=_positive_int, default=1)
    p_cap.set_defaults(func=cmd_capacity)

    p_map = sub.add_parser("sinr-map", help="SINR heatmap grid as CSV")
    add_common(p_map)
    p_map.add_argument("--direction", choices=("DL", "UL"), default="DL")
    p_map.add_argument("--resolution", type=_positive_float, default=1.0)
    p_map.add_argument("--activity", type=float, default=1.0)
    p_map.add_argument("--antenna", choices=("omni", "das", "aas"))
    p_map.add_argument("--gnbs", type=_positive_int)
    p_map.set_defaults(func=cmd_sinr_map)

    p_co = sub.add_parser("coexist", help="TDD overlap and risk analysis")
    p_co.add_argument("--indoor", required=True, help="indoor pattern, e.g. DDDDUDDDUU")
    p_co.add_argument("--outdoor", required=True, help="outdoor pattern, e.g. DDDDU")
    p_co.add_argument("--separation", type=_nonnegative_float, default=1.0, help="UE separation in m")
    p_co.add_argument("--wall-loss", type=_nonnegative_float, default=8.0, help="window/wall loss in dB")
    p_co.add_argument("--offset", type=int, default=0, help="outdoor slot offset (exploratory)")
    p_co.add_argument("--find-safe", type=_positive_int, metavar="LENGTH", help="list safe indoor patterns")
    p_co.add_argument("--min-ul", type=int, default=1)
    p_co.add_argument("-o", "--output")
    p_co.set_defaults(func=cmd_coexist)

    p_ex = sub.add_parser("exclusion", help="max-min power allocation with exclusion zone")
    p_ex.add_argument("--table15", action="store_true", help="use the built-in 72-AP scenario")
    p_ex.add_argument("--config", help="scenario YAML with an [exclusion] section")
    p_ex.add_argument("--seed", type=_nonnegative_int, required=True)
    p_ex.add_argument("--gamma-dbm", type=_finite_float, help="ceiling in dBm (default -120)")
    p_ex.add_argument("--tol-bits", type=_positive_float, help="bound on the certified gap (default 1e-4)")
    p_ex.add_argument("--k-points", type=_positive_int, help="measurement points (default 112)")
    p_ex.add_argument("--sweep-csv", help="write a gamma-sweep trade-off CSV here")
    p_ex.add_argument("--sweep-points", type=_positive_int, default=10)
    p_ex.add_argument("-o", "--output")
    p_ex.set_defaults(func=cmd_exclusion)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except SolverFailure as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return 2
    except NrFactoryError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
