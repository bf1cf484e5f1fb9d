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


def _lin(db: float) -> float:
    return 10.0 ** (db / 10.0)


def link_se_oracle(sinr_db: float, bler: float) -> float:
    """Attenuated Shannon with a 1 dB per BLER decade backoff, capped at 7.4."""
    backoff = -math.log10(bler)
    return min(7.4, 0.75 * math.log2(1.0 + _lin(sinr_db - backoff)))


def load_oracle(
    coupling_db,
    direction: str,
    radio: dict,
    bler: float,
    attempts: int,
    message_bytes: float,
    cycle_ms: float,
    supply: float,
    tol: float = 1e-12,
    max_rounds: int = 100_000,
):
    """Fixed point of one drop's load map, by scalar loops over the links.

    ``coupling_db[n][g]`` is the loss from UE n to gNB g without antenna
    gains; each UE is served by its least-loss gNB.  ``radio`` holds plain
    numbers: tx powers and antenna gains (dBm, dBi), ``noise_dbm`` of the
    receiver in this direction, and the UL power control's ``p0_dbm`` and
    ``alpha``.  The DL state is each cell's activity, the UL state each
    UE's interferer weight min(demand / supply, 1); the map is iterated
    from full load until no state entry moves by more than ``tol``.

    Returns (feasible, worst utilization at the fixed point), or None when
    the iteration does not settle within ``max_rounds``.
    """
    n_ue, n_cells = len(coupling_db), len(coupling_db[0])
    serving = [min(range(n_cells), key=lambda g: coupling_db[n][g]) for n in range(n_ue)]
    noise = _lin(radio["noise_dbm"])
    e_tx = sum(bler**i for i in range(attempts))
    rb_symbol_hz_s = 12 * 15e3 * 1e-3 / 14

    if direction == "UL":
        eff = [coupling_db[n][serving[n]] - radio["gain_serve"] - radio["ue_gain"] for n in range(n_ue)]
        p_tx = [min(radio["ue_tx_max"], radio["p0_dbm"] + radio["alpha"] * max(e, 1e-6)) for e in eff]

    def sinr_db(state):
        out = []
        for n in range(n_ue):
            s = serving[n]
            interference = 0.0
            if direction == "DL":
                signal = _lin(radio["gnb_tx"] + radio["gain_serve"] + radio["ue_gain"] - coupling_db[n][s])
                for g in range(n_cells):
                    if g != s:
                        rx = _lin(radio["gnb_tx"] + radio["gain_interf"] + radio["ue_gain"] - coupling_db[n][g])
                        interference += state[g] * rx
            else:
                signal = _lin(p_tx[n] - eff[n])
                for m in range(n_ue):
                    if serving[m] != s:
                        loss = coupling_db[m][s] - radio["gain_interf"] - radio["ue_gain"]
                        interference += state[m] * _lin(p_tx[m] - loss)
            out.append(10.0 * math.log10(signal / (interference + noise)))
        return out

    def demands(state):
        dem = []
        for x in sinr_db(state):
            se = link_se_oracle(x, bler)
            dem.append(math.inf if se <= 0.0 else 8.0 * message_bytes / se * e_tx * 1000.0 / cycle_ms / rb_symbol_hz_s)
        return dem

    def utilization(dem):
        return [sum(d for d, s in zip(dem, serving) if s == c) / supply for c in range(n_cells)]

    state = [1.0] * (n_cells if direction == "DL" else n_ue)
    for _ in range(max_rounds):
        dem = demands(state)
        util = utilization(dem)
        new = [min(u, 1.0) for u in util] if direction == "DL" else [min(d / supply, 1.0) for d in dem]
        settled = max(abs(a - b) for a, b in zip(new, state)) <= tol
        state = new
        if settled:
            worst = max(utilization(demands(state)))
            return worst <= 1.0, worst
    return None


def das_sinr_oracle(coupling_db, direction: str, radio: dict) -> list[float]:
    """SINR in dB of each UE of a DAS cell, by scalar loops over the heads.

    ``coupling_db[n][h]`` is the loss from UE n to head h without antenna
    gains; ``radio`` holds plain numbers as in ``load_oracle``, with
    ``head_gain`` the gain of every head.  The heads form one cell, so
    there is no interference.  DL: the heads' received powers summed, over
    the noise.  UL: the power control compensates the head-combined
    coupling, -10 log10 of the heads' summed linear gains, and the signal
    arrives over that coupling.
    """
    noise = _lin(radio["noise_dbm"])
    out = []
    for row in coupling_db:
        if direction == "DL":
            signal = 0.0
            for c in row:
                signal += _lin(radio["gnb_tx"] + radio["head_gain"] + radio["ue_gain"] - c)
        else:
            gain = 0.0
            for c in row:
                gain += _lin(-(c - radio["head_gain"] - radio["ue_gain"]))
            eff = -10.0 * math.log10(gain)
            p_tx = min(radio["ue_tx_max"], radio["p0_dbm"] + radio["alpha"] * max(eff, 1e-6))
            signal = _lin(p_tx - eff)
        out.append(10.0 * math.log10(signal / noise))
    return out


def median_coupling_oracle(scenario, ue_positions):
    """(N, G) pathloss with median shadowing (0 dB) and median LOS state, one gNB column at a time.

    The radiolink code before its LOS and pathloss became one (N, G)
    broadcast, verbatim; it shares the distance, LOS-probability and
    pathloss formulas with the package and checks only the broadcast.
    """
    import numpy as np
    from nrfactory.errors import NoGnb
    from nrfactory.propagation import link_distances, los_probability_array, pathloss_array

    if not scenario.gnb_positions:
        raise NoGnb("scenario defines no gNBs")
    gnbs = np.asarray(scenario.gnb_positions, dtype=float)
    d2d, d3d = link_distances(gnbs, ue_positions)
    out = np.empty_like(d3d)
    for gi in range(gnbs.shape[0]):
        p_los = los_probability_array(scenario, d2d[:, gi], bs_height_m=float(gnbs[gi, 2]))
        out[:, gi] = pathloss_array(
            scenario.scenario_type, p_los >= 0.5, np.maximum(d3d[:, gi], 1.0), scenario.carrier_ghz
        )
    return out


def sampled_coupling_oracle(scenario, ue_positions, rng_los, rng_shadow):
    """(N, G) pathloss + shadowing with per-link LOS/shadow draws, one gNB column at a time.

    Verbatim from before the broadcast, like ``median_coupling_oracle``.
    """
    import numpy as np
    from nrfactory.errors import NoGnb
    from nrfactory.propagation import link_distances, los_probability_array, pathloss_array, shadow_sigma_db

    if not scenario.gnb_positions:
        raise NoGnb("scenario defines no gNBs")
    gnbs = np.asarray(scenario.gnb_positions, dtype=float)
    d2d, d3d = link_distances(gnbs, ue_positions)
    n, g = d3d.shape
    u_los = rng_los.random((n, g))
    z_shadow = rng_shadow.standard_normal((n, g))
    out = np.empty((n, g))
    sigma_los = shadow_sigma_db(scenario.scenario_type, True)
    sigma_nlos = shadow_sigma_db(scenario.scenario_type, False)
    for gi in range(g):
        p_los = los_probability_array(scenario, d2d[:, gi], bs_height_m=float(gnbs[gi, 2]))
        los = u_los[:, gi] < p_los
        pl = pathloss_array(
            scenario.scenario_type, los, np.maximum(d3d[:, gi], 1.0), scenario.carrier_ghz
        )
        out[:, gi] = pl + z_shadow[:, gi] * np.where(los, sigma_los, sigma_nlos)
    return out


def link_distances_hypot_oracle(gnb_positions, ue_positions):
    """(N, G) 2D and 3D distances as the package computed them with ``np.hypot``,
    verbatim: d2d = hypot(dx, dy) and d3d = sqrt(d2d² + dz²)."""
    import numpy as np

    gnbs = np.asarray(gnb_positions, dtype=float)
    ues = np.asarray(ue_positions, dtype=float)
    dx = ues[:, None, 0] - gnbs[None, :, 0]
    dy = ues[:, None, 1] - gnbs[None, :, 1]
    dz = ues[:, None, 2] - gnbs[None, :, 2]
    d2d = np.hypot(dx, dy, out=dx)
    d3d = np.multiply(d2d, d2d, out=dy)
    d3d += np.multiply(dz, dz, out=dz)
    return d2d, np.sqrt(d3d, out=d3d)


def sinr_to_se_db_oracle(sinr_db, bler_target, max_se=7.4, eta=0.75, backoff_db_per_decade=1.0):
    """The package's link adaptation as it was on dB input, verbatim:
    min(max_se, eta * log2(1 + 10^((sinr_db - backoff) / 10)))."""
    import numpy as np

    backoff = -backoff_db_per_decade * math.log10(bler_target)
    se = eta * np.log2(1.0 + 10.0 ** ((np.asarray(sinr_db, dtype=float) - backoff) / 10.0))
    return np.minimum(max_se, se)


def search_oracle(feasible, limit: int = 1 << 22) -> int:
    """Largest n with ``feasible(n)``, by probing 1, doubling, then bisecting.

    The capacity search as it was before the per-drop search: every probe
    asks the whole predicate, here all drops at once.  A doubling past
    ``limit`` raises ValueError.
    """
    if not feasible(1):
        return 0
    lo, hi = 1, 2
    while feasible(hi):
        lo = hi
        hi *= 2
        if hi > limit:
            raise ValueError("search diverged")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def maxmin_lp_oracle(scenario, use_exclusion: bool) -> float:
    """Max-min SE of a cell-free scenario from one LP over all M * K columns.

    The exclusion engine's LP as it was before column generation: maximize
    the common received power s (units of n/P_T) over every rho[m, k] at
    once, with x = rho / sigma and the ceiling rows divided by gamma.  The
    witness is clipped to the budgets and the ceiling, and its worst-user
    SE is returned.
    """
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    h_pow = np.abs(scenario.h) ** 2
    m, k = h_pow.shape
    noise = scenario.noise_mw / scenario.p_t_mw
    gp = np.abs(scenario.g) ** 2 if use_exclusion else np.zeros((m, 0))
    g_max = float(gp.max(initial=0.0))
    sigma = min(1.0, scenario.gamma_norm / g_max) if g_max > 0 else 1.0
    n_var = m * k + 1  # x[m*K + k] = rho[m, k] / sigma, x[-1] = s

    a_ub = np.zeros((m + gp.shape[1], n_var))
    a_ub[:m, :-1] = np.kron(np.eye(m), np.ones(k))
    a_ub[m:, :-1] = np.repeat(gp.T * (sigma / scenario.gamma_norm), k, axis=1)
    b_ub = np.concatenate([np.full(m, 1.0 / sigma), np.ones(gp.shape[1])])
    coef = h_pow.T * (sigma / noise)
    users, aps = np.nonzero(coef)
    a_eq = csr_matrix(
        (
            np.append(coef[users, aps], np.full(k, -1.0)),
            (np.append(users, np.arange(k)), np.append(aps * k + users, np.full(k, n_var - 1))),
        ),
        shape=(k, n_var),
    )
    cost = np.zeros(n_var)
    cost[-1] = -1.0
    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.zeros(k), bounds=(0.0, None), method="highs")
    if not result.success:
        raise RuntimeError(f"oracle LP failed: {result.message}")
    rho = sigma * np.clip(result.x[:-1].reshape(m, k), 0.0, None)
    row_sums = rho.sum(axis=1)
    over = row_sums > 1.0
    rho[over] /= row_sums[over, None] * (1.0 + 1e-15)
    if gp.size:
        worst = float(np.max(gp.T @ rho.sum(axis=1)))
        if worst > scenario.gamma_norm:
            rho *= scenario.gamma_norm / worst * (1.0 - 1e-15)
    s = (rho * h_pow).sum(axis=0) / noise
    return math.log2(1.0 + float(np.min(s / (s.sum() - s + 1.0))))


def sinr_map_csv_oracle(grid, resolution_m: float) -> str:
    """The sinr-map CSV as the CLI wrote it before the one-pass writer: rows of
    unclamped cell centres, the SINR rounded per value, then ``csv.writer``."""
    import csv
    import io

    rows = []
    nx, ny = grid.shape
    for ix in range(nx):
        for iy in range(ny):
            x = (ix + 0.5) * resolution_m
            y = (iy + 0.5) * resolution_m
            rows.append((x, y, float(grid[ix, iy])))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["x_m", "y_m", "sinr_db"])
    writer.writerows([[x, y, round(v, 6)] for x, y, v in rows])
    return text.getvalue()
