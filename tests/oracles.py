"""Independent brute-force oracles used to pin the engine implementations.

Everything here is written as plainly as possible (per-offset scans, literal
formulas) and must stay independent of the package internals it checks.
"""

import math

SYM = 14
EPS = 1e-9


def roles_of(pattern_str: str, split=(10, 2, 2)) -> list[str]:
    dl, guard, ul = split
    out: list[str] = []
    for ch in pattern_str:
        if ch == "D":
            out.extend("D" * SYM)
        elif ch == "U":
            out.extend("U" * SYM)
        else:
            out.extend("D" * dl + "-" * guard + "U" * ul)
    return out


def occasion_offsets(per_slot: int) -> set[int]:
    return {(j * SYM) // per_slot for j in range(per_slot)}


def usable_start(roles: list[str], s: int, want: str, tti: int) -> bool:
    period = len(roles)
    in_slot = (s % period) % SYM
    if in_slot + tti > SYM:
        return False
    return all(roles[(s + i) % period] == want for i in range(tti))


def scan_data_start(roles, offsets, want, tti, t: float) -> int:
    """First integer symbol s >= t that starts a usable transmission."""
    period = len(roles)
    s = math.ceil(t - EPS)
    for _ in range(3 * period + SYM):
        if (s % SYM) in offsets and usable_start(roles, s % period, want, tti):
            return s
        s += 1
    raise LookupError("no usable occasion")


def sr_opportunities(roles) -> list[int]:
    period = len(roles)
    opps = []
    for slot in range(period // SYM):
        for i in range(SYM):
            if roles[slot * SYM + i] == "U":
                opps.append(slot * SYM + i)
                break
    return opps


def scan_sr(roles, t: float) -> int:
    period = len(roles)
    opps = set(sr_opportunities(roles))
    s = math.ceil(t - EPS)
    for _ in range(3 * period + SYM):
        if (s % period) in opps:
            return s
        s += 1
    raise LookupError("no SR opportunity")


def alignment_oracle_symbols(
    pattern_str,
    split,
    direction: str,
    tti: int,
    pdcch_per_slot: int,
    ul_access: str,
    proc_pusch_symbols: float,
) -> float:
    """Worst wait over all integer arrival offsets, by forward simulation.

    ``pattern_str`` None is an FDD carrier pair: DL and PDCCH occasions are
    scanned on an all-D slot, SR and UL occasions on an all-U slot.
    """
    if pattern_str is None:
        dl_roles, ul_roles = ["D"] * SYM, ["U"] * SYM
    else:
        dl_roles = ul_roles = roles_of(pattern_str, split)
    period = len(dl_roles)
    offsets = occasion_offsets(pdcch_per_slot)

    if direction == "DL" or ul_access == "configured_grant":
        roles, want = (dl_roles, "D") if direction == "DL" else (ul_roles, "U")
        worst = 0
        for o in range(period):
            worst = max(worst, scan_data_start(roles, offsets, want, tti, o) - o)
        return float(worst)

    worst = 0.0
    for o in range(period):
        t = float(scan_sr(ul_roles, float(o)))
        t += 1.0 + proc_pusch_symbols
        t = float(scan_data_start(dl_roles, offsets, "D", 1, t))
        t += 1.0 + proc_pusch_symbols
        t = float(scan_data_start(ul_roles, offsets, "U", tti, t))
        worst = max(worst, t - o)
    return worst


def inf_los_probability_oracle(
    d2d_m: float,
    clutter_density: float,
    clutter_size_m: float,
    clutter_height_m: float,
    bs_height_m: float,
    ue_height_m: float,
) -> float:
    """Literal evaluation of the high-BS indoor-factory LOS formula."""
    k = (
        -clutter_size_m
        / math.log(1.0 - clutter_density)
        * (bs_height_m - ue_height_m)
        / (clutter_height_m - ue_height_m)
    )
    return math.exp(-d2d_m / k)


def inf_pathloss_oracle(scenario_type: str, los: bool, d3d_m: float, fc_ghz: float) -> float:
    """Literal evaluation of the configured indoor-factory pathloss curves."""
    pl_los = 31.84 + 21.50 * math.log10(d3d_m) + 19.00 * math.log10(fc_ghz)
    if los:
        return pl_los
    if scenario_type == "InF_SH":
        pl_nlos = 32.4 + 23.0 * math.log10(d3d_m) + 20.0 * math.log10(fc_ghz)
    elif scenario_type == "InF_DH":
        pl_nlos = 33.63 + 21.9 * math.log10(d3d_m) + 20.0 * math.log10(fc_ghz)
    else:
        raise ValueError(scenario_type)
    return max(pl_nlos, pl_los)
