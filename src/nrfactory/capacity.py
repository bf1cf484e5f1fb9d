"""Snapshot capacity search: maximum served users per use case and band.

Capacity is the largest user count for which every user, in every seeded
drop, meets its latency bound at its reliability target in both directions
while no cell exceeds its schedulable resources.  The scheduler is
abstracted to deterministic resource accounting (per-cell utilization at
most 1) - absolute numbers are scheduler-dependent, orderings between
configurations are the meaningful output.  Interference load and cell
utilization are coupled through a monotone load map, whose iterates from
full and from zero interferer load bracket its fixed point and so decide
each drop exactly; a drop they leave undecided is a solver failure.  DL
interferer load is each cell's activity; UL load is each UE's weight
min(demand / supply, 1), which on a feasible drop is its share of its
cell's resources.  Drops share a base seed with per-drop derivation so
results are machine- and parallelism-independent.  Each drop's feasibility
is monotone in the user count, and drops are nested (the first n users of
a larger drop are the drop's n users), so the capacity is the minimum over
drops of each drop's capacity: the search runs drop by drop, building each
drop's links and link powers once for both directions, and tests a later
drop only at the running minimum.  The certificate works on linear SINR,
and a drop's DL decisions start from the iterates of its earlier ones.
"""

from __future__ import annotations

import itertools
from contextlib import closing
from dataclasses import dataclass
from importlib import resources
from typing import Iterator, Literal, Optional, Union

import numpy as np
import numpy.random  # numpy loads it lazily; loaded before a pool forks, workers need not each import it
import yaml

from .errors import DomainError, SolverFailure
from .propagation import FactoryScenario, drop_ues
from .radiolink import (
    BandConfig,
    LinkPowers,
    RadioConfig,
    SnapshotLinks,
    build_links,
    cell_count,
    dl_sinr_linear,
    link_powers,
    sinr_to_se,
    sinr_to_se_linear,
    ul_sinr_linear,
)
from .timing import AttemptFit, SchedulingConfig, TddPattern, max_attempts_within_bound
from .usecases import UseCaseSpec, per_attempt_bler_target

Direction = Literal["DL", "UL"]

# time-bandwidth product of one RB for one symbol: 12 subcarriers * scs *
# (slot/14) is scs-independent
RB_SYMBOL_HZ_S = 12.0 * 15.0e3 * 1e-3 / 14.0


def _load_rb_table() -> dict[int, dict[int, int]]:
    raw = yaml.safe_load(resources.files("nrfactory.data").joinpath("rb_table.yaml").read_text())
    return {int(scs): {int(bw): int(rb) for bw, rb in row.items()} for scs, row in raw["rb_per_bandwidth"].items()}


_RB_TABLE = _load_rb_table()


def rbs_per_slot(band: BandConfig) -> int:
    """Schedulable resource blocks for the band's bandwidth and numerology."""
    try:
        return _RB_TABLE[band.scs_khz][int(band.bandwidth_mhz)]
    except KeyError:
        raise DomainError(
            f"no RB-table entry for {band.bandwidth_mhz} MHz at {band.scs_khz} kHz"
        ) from None


@dataclass(frozen=True)
class ResourceModel:
    """Schedulable-resource accounting for one band."""

    rb_bandwidth_hz: float
    rbs_per_slot: int
    control_overhead: float = 0.10

    def __post_init__(self):
        if not 0.0 <= self.control_overhead < 1.0:
            raise DomainError("control overhead must be in [0, 1)")

    @classmethod
    def from_band(cls, band: BandConfig, control_overhead: float = 0.10) -> "ResourceModel":
        return cls(
            rb_bandwidth_hz=12.0 * band.scs_khz * 1e3,
            rbs_per_slot=rbs_per_slot(band),
            control_overhead=control_overhead,
        )


def direction_fraction(pattern: Optional[TddPattern], direction: Direction) -> float:
    """Fraction of symbols carrying the direction (1.0 on FDD carriers)."""
    if pattern is None:
        return 1.0
    return pattern.symbols_in_direction(direction) / pattern.period_symbols


def resources_per_second(
    band: BandConfig,
    pattern: Optional[TddPattern],
    direction: Direction,
    model: ResourceModel,
) -> float:
    """Schedulable RB-symbols per second for one cell in one direction."""
    slots_per_second = 1000.0 / band.numerology.slot_duration_ms
    symbols_per_second = slots_per_second * band.numerology.symbols_per_slot
    frac = direction_fraction(pattern, direction)
    return model.rbs_per_slot * symbols_per_second * frac * (1.0 - model.control_overhead)


def expected_transmissions(bler: float, attempts: int) -> float:
    """Mean number of attempts used out of ``attempts`` allowed (truncated geometric)."""
    return sum(bler**i for i in range(attempts))


def required_user_resources(
    use_case: UseCaseSpec,
    sinr_db: Union[float, np.ndarray],
    attempts: int,
) -> Union[float, np.ndarray]:
    """RB-symbols per second each user needs at the given link quality.

    The per-attempt BLER target splits the reliability budget over the
    attempts the latency bound allows; the expected transmission count
    multiplies the single-shot resource demand.  ``sinr_db`` is a scalar or
    an array; the result has its shape and is ``inf`` where the spectral
    efficiency is 0.
    """
    bler, *factors = _demand_factors(use_case, attempts)
    with np.errstate(divide="ignore"):
        return _demand(sinr_to_se(sinr_db, bler), *factors)


def _demand_factors(use_case: UseCaseSpec, attempts: int) -> tuple[float, float, float, float]:
    """The SINR-independent part of ``required_user_resources``: the per-attempt
    BLER target, bits per message, expected transmissions and messages per
    RB-symbol."""
    if attempts < 1:
        raise DomainError("attempts must be >= 1")
    bler = per_attempt_bler_target(use_case.network_reliability, attempts)
    messages_per_rb_symbol = 1000.0 / use_case.cycle_time_ms / RB_SYMBOL_HZ_S
    return bler, 8.0 * use_case.message_size_bytes, expected_transmissions(bler, attempts), messages_per_rb_symbol


def _demand(se, bits_per_message: float, transmissions: float, messages_per_rb_symbol: float):
    """The per-SE part of ``required_user_resources``; it divides by 0 where the SE is 0."""
    return bits_per_message / se * transmissions * messages_per_rb_symbol


def link_attempts(
    band: BandConfig, sched: SchedulingConfig, direction: Direction, bound_ms: float
) -> AttemptFit:
    """Attempts the latency bound allows on this band (position-independent)."""
    return max_attempts_within_bound(
        band.tdd_pattern, band.numerology, sched, None, direction, bound_ms
    )


def default_scheduling(band: BandConfig) -> SchedulingConfig:
    """Capacity-run defaults: occasion density matching the TTI grid and
    configured-grant uplink (the worst-case SR round trip would outright
    exceed tight bounds on DL-heavy patterns, collapsing UL capacity to 0).
    """
    occasions = max(1, band.numerology.symbols_per_slot // band.tti_symbols)
    return SchedulingConfig(
        tti_symbols=band.tti_symbols,
        pdcch_occasions_per_slot=occasions,
        harq_feedback_occasions_per_slot=occasions,
        ul_access="configured_grant",
        ue_capability="cap1",
    )


@dataclass(frozen=True)
class LoadResult:
    feasible: bool


@dataclass(frozen=True)
class CapacityResult:
    max_users_dl: int
    max_users_ul: int
    combined: int
    se_per_cell_dl: float
    se_per_cell_ul: float
    drops_evaluated: int

    def __post_init__(self):
        if self.combined != min(self.max_users_dl, self.max_users_ul):
            raise DomainError("combined capacity must be min(dl, ul)")


# rounds of the load certificate before a drop counts as undecided
_CERTIFICATE_ROUNDS = 200


@dataclass
class _WarmStart:
    """DL certificate iterates kept from earlier decisions on one drop.

    The DL load map T_n of a drop's first n users grows with n: the same
    activity gives the same first n rows, and more users only add
    non-negative demand.  A lower iterate L of a decision at n_f lies below
    T_n_f's fixed point and has L <= T_n_f(L); at any n >= n_f both still
    hold for T_n, so iterating T_n from L rises and stays below its fixed
    point.  Likewise an upper iterate U of a decision at n_i starts a
    falling sequence above the fixed point at any n <= n_i.  The search
    keeps L of its latest feasible decision (it asks larger counts next)
    and U of its latest infeasible one.
    """

    lower: Optional[tuple[int, np.ndarray]] = None  # (n_f, lower iterate) of the latest feasible decision
    upper: Optional[tuple[int, np.ndarray]] = None  # (n_i, upper iterate) of the latest infeasible decision


def _drop_feasible(
    links: SnapshotLinks,
    band: BandConfig,
    radio: RadioConfig,
    use_case: UseCaseSpec,
    direction: Direction,
    attempts: int,
    supply: float,
    powers: Optional[LinkPowers] = None,
    warm: Optional[_WarmStart] = None,
) -> bool:
    """Decide whether one drop's load fits every cell, by a two-sided certificate.

    One round maps an interferer state to SINRs, demands and the next
    state.  The map is monotone: more interferer load means lower SINR and
    so more demand.  Iterates from full load are therefore upper bounds of
    its fixed point and iterates from zero load lower bounds (Yates, IEEE
    JSAC 1995).  The drop is feasible once an upper iterate has every
    cell's utilization within 1 and no zero-SE link, and infeasible once a
    lower iterate has not.  The DL state is each cell's activity, the UL
    state each UE's interferer weight min(demand / supply, 1).  A drop left
    undecided after ``_CERTIFICATE_ROUNDS`` rounds raises SolverFailure.
    ``powers`` is ``link_powers(links, radio, band, direction)``, computed
    here when not given.  ``warm`` (DL only) holds the iterates of earlier
    decisions on the same drop: the iterates start from them where they
    are valid bounds at this user count, and the decision leaves its own
    in it.
    """
    n_users, n_cells = links.coupling_db.shape
    if powers is None:
        powers = link_powers(links, radio, band, direction)
    bler, *factors = _demand_factors(use_case, attempts)

    def step(state: np.ndarray) -> tuple[bool, np.ndarray]:
        if direction == "DL":
            sinr = dl_sinr_linear(links, radio, band, state, powers=powers)
        else:
            # each cell's activity is the sum of its weights, so ul_sinr_linear keeps them as given
            activity = np.bincount(links.serving, weights=state, minlength=n_cells)
            sinr = ul_sinr_linear(links, radio, band, activity, interferer_weights=state, powers=powers)
        demand = _demand(sinr_to_se_linear(sinr, bler), *factors)
        util = np.bincount(links.serving, weights=demand, minlength=n_cells) / supply
        fits = bool((util <= 1.0 + 1e-9).all())
        return fits, np.minimum(util if direction == "DL" else demand / supply, 1.0)

    if warm is None:
        warm = _WarmStart()
    elif direction != "DL":
        raise DomainError("warm starts hold DL iterates only")
    size = n_cells if direction == "DL" else n_users
    upper = warm.upper[1] if warm.upper is not None and warm.upper[0] >= n_users else np.ones(size)
    lower = warm.lower[1] if warm.lower is not None and warm.lower[0] <= n_users else np.zeros(size)
    with np.errstate(divide="ignore"):  # a zero-SE link demands inf
        for _ in range(_CERTIFICATE_ROUNDS):
            fits, upper = step(upper)
            if fits:
                warm.lower = (n_users, lower)
                return True
            fits, lower = step(lower)
            if not fits:
                warm.upper = (n_users, upper)
                return False
    raise SolverFailure(
        f"{direction} load of {n_users} users undecided after {_CERTIFICATE_ROUNDS} certificate rounds"
    )


class _Drop:
    """One seeded drop, its links built row by row up to the largest user count asked for.

    Positions, LOS and shadowing come from three generators seeded
    ``[seed, drop, 0..2]`` and are drawn user-major, so the drop's first n
    rows do not depend on how many rows it holds.  A count above the held
    one draws and builds only the rows up to max(n, 2 x held) and appends
    them.  Link powers are row-wise too: each direction's are computed at
    the largest count asked for in it, and sliced below it.
    """

    def __init__(self, scenario: FactoryScenario, radio: RadioConfig, seed: int, drop: int):
        self.scenario, self.radio = scenario, radio
        self._rngs = [np.random.default_rng([seed, drop, stream]) for stream in range(3)]
        self._links: Optional[SnapshotLinks] = None
        self._powers: dict[tuple[BandConfig, Direction], LinkPowers] = {}

    def links(self, n_users: int) -> SnapshotLinks:
        built = self._links
        held = 0 if built is None else len(built.serving)
        if built is None or n_users > held:
            rng_positions, rng_los, rng_shadow = self._rngs
            positions = drop_ues(self.scenario, max(n_users, 2 * held) - held, rng_positions)
            rows = build_links(self.scenario, self.radio, positions, rng_los, rng_shadow)
            built = self._links = rows if built is None else SnapshotLinks(
                np.concatenate([built.coupling_db, rows.coupling_db]), np.concatenate([built.serving, rows.serving])
            )
        if n_users == len(built.serving):
            return built
        return SnapshotLinks(built.coupling_db[:n_users], built.serving[:n_users])

    def powers(self, n_users: int, band: BandConfig, direction: Direction) -> LinkPowers:
        """``link_powers(self.links(n_users), ...)``, sliced from the largest such count computed."""
        links = self.links(n_users)
        held = self._powers.get((band, direction))
        if held is None or n_users > len(held.signal):
            held = self._powers[band, direction] = link_powers(links, self.radio, band, direction)
        return held if n_users == len(held.signal) else held.head(n_users)


def _evaluate_drop(
    scenario: FactoryScenario,
    band: BandConfig,
    radio: RadioConfig,
    use_case: UseCaseSpec,
    n_users: int,
    seed: int,
    drop: int,
    setup: dict[Direction, tuple[int, float]],
) -> bool:
    links = _Drop(scenario, radio, seed, drop).links(n_users)
    return all(
        _drop_feasible(links, band, radio, use_case, direction, attempts, supply)
        for direction, (attempts, supply) in setup.items()
    )


def _direction_setup(
    band: BandConfig, sched: SchedulingConfig, model: ResourceModel, use_case: UseCaseSpec, direction: Direction
) -> Optional[tuple[int, float]]:
    """(attempts, supply) of one direction, or None when not even the first attempt meets the bound."""
    fit = link_attempts(band, sched, direction, use_case.latency_bound_ms)
    if not fit.initial_fits:
        return None
    return fit.attempts, resources_per_second(band, band.tdd_pattern, direction, model)


def evaluate_load(
    scenario: FactoryScenario,
    band: BandConfig,
    radio: RadioConfig,
    use_case: UseCaseSpec,
    n_users: int,
    n_drops: int = 20,
    seed: int = 1,
    sched: Optional[SchedulingConfig] = None,
    model: Optional[ResourceModel] = None,
    directions: tuple[Direction, ...] = ("DL", "UL"),
    workers: int = 1,
) -> LoadResult:
    """Check whether ``n_users`` can be served in every drop.

    Infeasibility is a result, not an error.  The drops are decided in
    order and the first infeasible one decides the call, also on
    ``workers > 1`` processes, so results (and a SolverFailure of a later
    drop) are the same for a fixed (seed, n_drops) regardless of
    ``workers``.
    """
    if n_users < 0:
        raise DomainError("n_users must be >= 0")
    if n_drops < 1:
        raise DomainError("n_drops must be >= 1")
    if sched is None:
        sched = default_scheduling(band)
    if model is None:
        model = ResourceModel.from_band(band)

    setup = {direction: _direction_setup(band, sched, model, use_case, direction) for direction in directions}
    if None in setup.values():
        return LoadResult(feasible=n_users == 0)

    args = [(scenario, band, radio, use_case, n_users, seed, drop, setup) for drop in range(n_drops)]
    # closing shuts a pool down, cancelling the drops not yet started, once one drop is infeasible
    with closing(_starmap(_evaluate_drop, args, workers)) as results:
        return LoadResult(feasible=all(results))


def ProcessPoolExecutor(max_workers: int):
    """``concurrent.futures.ProcessPoolExecutor``, imported when a search first asks for a pool."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _starmap(fn, args: list[tuple], workers: int) -> Iterator:
    """``fn(*a)`` for each ``a`` in order, on a pool of ``workers`` processes when that is more than one."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, *zip(*args))
    else:
        yield from itertools.starmap(fn, args)


def _search_drops(
    scenario: FactoryScenario,
    band: BandConfig,
    radio: RadioConfig,
    use_case: UseCaseSpec,
    seed: int,
    drops: range,
    setup: dict[Direction, tuple[int, float]],
) -> dict[Direction, int]:
    """The most users every drop in ``drops`` serves, per direction of ``setup``.

    That is the minimum over the drops of each drop's capacity, since each
    drop's feasibility is monotone in n.  The first drop is searched fully
    (probe 1, double, bisect); each later drop is tested only at the
    running minimum, and bisected below it when that test fails.  One drop
    serves both directions: DL is decided on it first, then UL, then it is
    discarded.  Its DL decisions share one ``_WarmStart``.  A direction
    whose minimum reaches 0 is not searched further.
    """
    caps: dict[Direction, Optional[int]] = dict.fromkeys(setup)
    for index in drops:
        drop = _Drop(scenario, radio, seed, index)
        for direction, (attempts, supply) in setup.items():
            warm = _WarmStart() if direction == "DL" else None

            def ok(n: int) -> bool:
                powers = drop.powers(n, band, direction)
                return _drop_feasible(
                    drop.links(n), band, radio, use_case, direction, attempts, supply, powers=powers, warm=warm
                )

            cap = caps[direction]
            if cap is None:
                lo, hi = 0, 1
                while ok(hi):
                    lo, hi = hi, 2 * hi
                    if hi > 1 << 22:
                        raise DomainError("capacity search diverged; check the resource model")
            elif cap == 0 or ok(cap):
                continue
            else:
                lo, hi = 0, cap
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if ok(mid):
                    lo = mid
                else:
                    hi = mid
            caps[direction] = lo
        if not any(caps.values()):
            break
    return caps


def se_per_cell(
    users: int,
    use_case: UseCaseSpec,
    band: BandConfig,
    direction: Direction,
    n_cells: int,
) -> float:
    """Served-traffic spectral efficiency in bits/s/Hz/cell.

    The direction's bandwidth share is the full carrier on FDD and the
    symbol fraction of the TDD pattern otherwise.
    """
    bitrate = use_case.bitrate_mbps if use_case.bitrate_mbps else use_case.implied_bitrate_mbps
    bw = band.bandwidth_mhz * direction_fraction(band.tdd_pattern, direction)
    if bw <= 0 or n_cells < 1:
        raise DomainError("direction bandwidth and cell count must be positive")
    return users * bitrate / (bw * n_cells)


def max_served_users(
    scenario: FactoryScenario,
    band: BandConfig,
    radio: RadioConfig,
    use_case: UseCaseSpec,
    n_drops: int = 20,
    seed: int = 1,
    sched: Optional[SchedulingConfig] = None,
    model: Optional[ResourceModel] = None,
    workers: int = 1,
) -> CapacityResult:
    """Per-direction capacity, the minimum over drops; combined is their minimum.

    The drops are split into ``workers`` interleaved sets, each searched by
    a running minimum per direction; the capacity is the minimum over the
    sets, so it does not depend on ``workers``.  With ``workers > 1`` the
    sets run on one process pool.
    """
    if n_drops < 1:
        raise DomainError("n_drops must be >= 1")
    if sched is None:
        sched = default_scheduling(band)
    if model is None:
        model = ResourceModel.from_band(band)
    n_sets = max(1, min(workers, n_drops))
    setups = {direction: _direction_setup(band, sched, model, use_case, direction) for direction in ("DL", "UL")}
    setup = {direction: s for direction, s in setups.items() if s is not None}
    tasks = [(scenario, band, radio, use_case, seed, range(i, n_drops, n_sets), setup) for i in range(n_sets)]
    caps = list(_starmap(_search_drops, tasks, workers))
    # a direction without a setup serves no one
    dl, ul = (min(c.get(direction, 0) for c in caps) for direction in ("DL", "UL"))

    n_cells = max(cell_count(scenario, radio), 1)
    return CapacityResult(
        max_users_dl=dl,
        max_users_ul=ul,
        combined=min(dl, ul),
        se_per_cell_dl=se_per_cell(dl, use_case, band, "DL", n_cells),
        se_per_cell_ul=se_per_cell(ul, use_case, band, "UL", n_cells),
        drops_evaluated=n_drops,
    )
