"""Max-min power allocation with a micro-exclusion-zone power ceiling.

A set of M ceiling access points jointly serves K points with per-AP power
coefficients rho[m, k] (sum over k at most 1 per AP).  The worst user's
spectral efficiency is maximized subject to the per-AP budgets and,
optionally, a ceiling gamma on the total normalized power received at each
of L test points spanning the exclusion volume:

    SE_k = log2(1 + S_k / (sum_{k' != k} S_{k'} + n/P_T)),
    S_k  = sum_m rho[m, k] * |h[m, k]|^2,
    sum_k sum_m rho[m, k] * |g[m, l]|^2 <= gamma   for every l.

The noise-normalized exclusion constraint uses the non-coherent
transmit-covariance realization Q_k = P_T * diag(rho[:, k]), which keeps
every constraint linear.  At a max-min optimum every user receives the same
S_k = s * n/P_T (a user above the minimum could give up power and only cut
the others' interference), and the worst SINR s / ((K - 1) s + 1) rises
with s, so one LP that maximizes s solves the program exactly.  Without a
ceiling s grows with the budgets and the min SE approaches
log2(1 + 1/(K - 1)): 0.093109 bits/s/Hz at K = 16, 0.012939 at K = 112.

Note the interference term sums the interferers' own channel powers,
mirroring the additive structure of the SE expression above; a
coherent-precoding variant would couple test points and users nonlinearly
and is intentionally not modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, SolverFailure
from .propagation import Hall, multipath_response
from .radiolink import thermal_noise_dbm


@dataclass(frozen=True)
class CellFreeScenario:
    """Channel state for the cell-free max-min problem."""

    h: np.ndarray        # (M, K) complex AP-to-user channels
    g: np.ndarray        # (M, L) complex AP-to-test-point channels
    p_t_mw: float        # per-AP transmit power
    noise_mw: float
    gamma_norm: float    # exclusion ceiling, normalized by p_t_mw

    def __post_init__(self):
        h = np.asarray(self.h)
        g = np.asarray(self.g)
        if h.ndim != 2 or g.ndim != 2 or g.shape[0] != h.shape[0] or h.size == 0:
            raise DomainError("h must be (M, K) with M, K >= 1 and g must be (M, L)")
        if not all(math.isfinite(v) and v > 0 for v in (self.p_t_mw, self.noise_mw, self.gamma_norm)):
            raise DomainError("powers and gamma must be finite and positive")
        if not np.all(np.isfinite(h)) or not np.all(np.isfinite(g)):
            raise DomainError("channels must be finite")
        if np.any(np.sum(np.abs(h) ** 2, axis=0) <= 0):
            raise DomainError("every user needs a nonzero channel to some AP")

    @property
    def m_aps(self) -> int:
        return self.h.shape[0]

    @property
    def k_users(self) -> int:
        return self.h.shape[1]

    @property
    def l_points(self) -> int:
        return self.g.shape[1]

    @property
    def noise_over_pt(self) -> float:
        return self.noise_mw / self.p_t_mw

    def h_pow(self) -> np.ndarray:
        return np.abs(self.h) ** 2

    def g_pow(self) -> np.ndarray:
        return np.abs(self.g) ** 2


@dataclass(frozen=True)
class PowerAllocation:
    """Per-AP, per-user power coefficients in [0, 1] with unit AP budgets."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho)
        if rho.ndim != 2:
            raise DomainError("rho must be an (M, K) matrix")
        if np.any(rho < -1e-12):
            raise DomainError("rho must be non-negative")
        if np.any(rho.sum(axis=1) > 1.0 + 1e-9):
            raise DomainError("per-AP power budget exceeded")


def uniform_full_power(scenario: CellFreeScenario) -> PowerAllocation:
    """The no-control reference: every AP splits its full budget evenly."""
    m, k = scenario.m_aps, scenario.k_users
    return PowerAllocation(rho=np.full((m, k), 1.0 / k))


def _received_powers(scenario: CellFreeScenario, rho: np.ndarray) -> np.ndarray:
    return np.einsum("mk,mk->k", rho, scenario.h_pow())


def all_user_se(scenario: CellFreeScenario, allocation: PowerAllocation) -> np.ndarray:
    s = _received_powers(scenario, np.asarray(allocation.rho))
    denom = s.sum() - s + scenario.noise_over_pt
    return np.log2(1.0 + s / denom)


def all_exclusion_powers(scenario: CellFreeScenario, allocation: PowerAllocation) -> np.ndarray:
    rho = np.asarray(allocation.rho)
    per_ap = rho.sum(axis=1)
    return scenario.g_pow().T @ per_ap


def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, None), method="highs"):
    """``scipy.optimize.linprog``, imported on the first solve.

    scipy.optimize takes most of the package's import time and only this
    module's LP uses it, so a command that solves no LP never loads it.
    """
    from scipy.optimize import linprog as solve

    return solve(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method=method)


@dataclass(frozen=True)
class LpWitness(PowerAllocation):
    """A max-min LP solution with the solver's dual bound on its min SE."""

    se_bound: float


def feasibility_lp(
    scenario: CellFreeScenario, sinr_target: float, use_exclusion: bool
) -> Optional[LpWitness]:
    """The max-min witness if its worst-user SINR meets the target, else None.

    The LP maximizes the common received power s, in units of n/P_T:

        sum_m |h[m, k]|^2 rho[m, k] = s * n/P_T     for every user k,
        sum_k rho[m, k] <= 1                         for every AP m,
        sum_m |g[m, l]|^2 sum_k rho[m, k] <= gamma   for every test point l.

    Under a tight ceiling the optimal rho lie below the solver's
    tolerances, so the variables are x = rho / sigma with
    sigma = min(1, gamma / max |g|^2), and the ceiling rows are divided
    by gamma.  s is divided by an estimate of its optimum, so that the
    solver's absolute dual tolerance stays small against the column
    prices below.

    The optimum uses few of the M * K columns rho[m, k], so the LP is
    solved by column generation (Gilmore & Gomory 1961).  A restricted LP
    starts from each user's 4 strongest APs.  After each solve, an
    inactive column enters when its value omega_k * coef[k, m] exceeds
    its price u_m + sum_l v_l * ceil[l, m] by more than a relative 1e-9,
    where omega, u and v are the duals of the user, AP and ceiling rows.
    The loop stops when no column enters: the duals then price every
    column of the full LP, so the restricted optimum is the full one and
    its dual objective bounds it.  Every round adds a column and rho = 0,
    s = 0 is always feasible, so the loop ends after at most M * K rounds.
    """
    if sinr_target < 0:
        raise DomainError("sinr_target must be >= 0")
    m, k = scenario.m_aps, scenario.k_users
    gp = scenario.g_pow() if use_exclusion else np.zeros((m, 0))
    g_max = float(gp.max(initial=0.0))
    sigma = min(1.0, scenario.gamma_norm / g_max) if g_max > 0 else 1.0
    ceil = gp.T * (sigma / scenario.gamma_norm)  # (L, M) ceiling rows on x
    coef = scenario.h_pow().T * (sigma / scenario.noise_over_pt)  # (K, M) user rows on x
    # the largest AP sum each AP allows alone; a user given all of it would
    # get coef @ cap, and a 1/K share of the weakest such user estimates s
    cap = 1.0 / np.maximum(sigma, ceil.max(axis=0, initial=0.0))
    scale = float(np.min(coef @ cap)) / k
    coef /= scale
    b_ub = np.concatenate([np.full(m, 1.0 / sigma), np.ones(ceil.shape[0])])

    active = np.zeros((m, k), dtype=bool)
    strongest = np.argsort(-coef, axis=1)[:, :4]
    active[strongest, np.arange(k)[:, None]] = True
    while True:
        aps, users = np.nonzero(active)  # column j of x is rho[aps[j], users[j]] / sigma
        n_col = len(aps)
        cols = np.arange(n_col)
        # AP budgets, then the ceilings; user rows, divided by n/P_T, then -s
        a_ub = np.zeros((m + ceil.shape[0], n_col + 1))
        a_ub[aps, cols] = 1.0
        a_ub[m:, :-1] = ceil[:, aps]
        a_eq = np.zeros((k, n_col + 1))
        a_eq[users, cols] = coef[users, aps]
        a_eq[:, -1] = -1.0
        cost = np.zeros(n_col + 1)
        cost[-1] = -1.0
        result = linprog(
            cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.zeros(k), bounds=(0.0, None), method="highs"
        )
        if not result.success:
            raise SolverFailure(f"LP solver failed (status {result.status}): {result.message}")
        price = -result.ineqlin.marginals[:m] - ceil.T @ result.ineqlin.marginals[m:]
        value = coef.T * result.eqlin.marginals
        enter = ~active & (value > price[:, None] * (1.0 + 1e-9))
        if not enter.any():
            break
        active |= enter

    rho = np.zeros((m, k))
    rho[aps, users] = sigma * np.clip(result.x[:-1], 0.0, None)
    # repair solver-tolerance slack so the witness meets every hard
    # constraint exactly (scaling rho down only loses a solver-epsilon of SE)
    row_sums = rho.sum(axis=1)
    over = row_sums > 1.0
    if np.any(over):
        rho[over] /= row_sums[over, None] * (1.0 + 1e-15)
    if gp.size:
        worst = float(np.max(gp.T @ rho.sum(axis=1)))
        if worst > scenario.gamma_norm:
            rho *= scenario.gamma_norm / worst * (1.0 - 1e-15)

    s = _received_powers(scenario, rho) / scenario.noise_over_pt
    if np.min(s / (s.sum() - s + 1.0)) < sinr_target:
        return None
    # the user rows have a zero right-hand side, so the dual objective is b_ub . y
    s_dual = -float(b_ub @ result.ineqlin.marginals) * scale
    return LpWitness(rho=rho, se_bound=math.log2(1.0 + s_dual / ((k - 1) * s_dual + 1.0)))


GAP_RTOL = 1e-6  # largest certified gap of solve_maxmin, relative to the dual bound


@dataclass(frozen=True)
class MaxMinResult:
    allocation: PowerAllocation
    min_se: float
    per_user_se: np.ndarray
    per_point_power: np.ndarray


def solve_maxmin(
    scenario: CellFreeScenario,
    use_exclusion: bool,
    tol_bits: float = 1e-4,
) -> MaxMinResult:
    """Maximize the minimum user SE with the max-min LP of ``feasibility_lp``.

    The certified gap is the SE at the solver's dual bound minus the
    returned witness's min SE.  A gap above ``tol_bits`` or above
    ``GAP_RTOL`` of the bound raises SolverFailure; the relative test
    matters under a tight ceiling, where the whole min SE can be smaller
    than ``tol_bits``.
    """
    if not tol_bits > 0:
        raise DomainError("tol_bits must be > 0")
    witness = feasibility_lp(scenario, 0.0, use_exclusion)
    per_user = all_user_se(scenario, witness)
    min_se = float(per_user.min())
    gap = witness.se_bound - min_se
    if gap > tol_bits or gap > GAP_RTOL * witness.se_bound:
        raise SolverFailure(
            f"certified gap {gap:.3g} bits exceeds tol_bits {tol_bits:g} "
            f"or {GAP_RTOL:g} of the bound {witness.se_bound:.6g}"
        )
    return MaxMinResult(
        allocation=witness,
        min_se=min_se,
        per_user_se=per_user,
        per_point_power=all_exclusion_powers(scenario, witness),
    )


def gamma_norm_from_dbm(gamma_dbm: float, p_t_mw: float) -> float:
    """Exclusion ceiling in dBm converted to the p_t-normalized scale."""
    try:
        return 10.0 ** (gamma_dbm / 10.0) / p_t_mw
    except OverflowError:
        raise DomainError(f"exclusion ceiling {gamma_dbm} dBm is out of range") from None


FACTORY_SECTION_HALL = Hall(length_m=30.0, width_m=15.0, height_m=5.0)


def table15_scenario(
    seed: int = 1,
    gamma_dbm: float = -120.0,
    max_reflections: int = 1,
    k_points: int = 112,
) -> CellFreeScenario:
    """The 72-AP factory-section scenario used for the exclusion study.

    72 single-antenna ceiling APs on a 2.5 m grid at 4 m height over a
    30 x 15 m section, 112 seeded measurement points at 1.5 m height, and
    8 test points at the vertices of a 1 x 1 x 1.5 m exclusion volume
    centered on the floor.  Channels come from the image-method multipath
    synthesizer at 30 GHz; per-AP power 200 mW, ceiling -120 dBm.
    """
    hall = FACTORY_SECTION_HALL
    spacing = 2.5
    aps = [
        (spacing / 2 + spacing * i, spacing / 2 + spacing * j, 4.0)
        for j in range(int(hall.width_m / spacing))
        for i in range(int(hall.length_m / spacing))
    ]

    rng = np.random.default_rng(seed)
    users = np.column_stack(
        [
            rng.uniform(0.0, hall.length_m, size=k_points),
            rng.uniform(0.0, hall.width_m, size=k_points),
            np.full(k_points, 1.5),
        ]
    )

    cx, cy = hall.length_m / 2.0, hall.width_m / 2.0
    zone_x = (cx - 0.5, cx + 0.5)
    zone_y = (cy - 0.5, cy + 0.5)
    zone_z = (0.0, 1.5)
    test_points = [(x, y, z) for x in zone_x for y in zone_y for z in zone_z]

    channels = multipath_response(aps, np.vstack([users, test_points]), hall, max_reflections, carrier_ghz=30.0)
    h, g = channels[:, :k_points], channels[:, k_points:]

    p_t_mw = 200.0
    noise_mw = 10.0 ** ((thermal_noise_dbm(100e6) + 9.0) / 10.0)
    return CellFreeScenario(
        h=h,
        g=g,
        p_t_mw=p_t_mw,
        noise_mw=noise_mw,
        gamma_norm=gamma_norm_from_dbm(gamma_dbm, p_t_mw),
    )
