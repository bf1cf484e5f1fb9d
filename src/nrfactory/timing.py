"""NR numerology, slot timelines and worst-case air-interface latency.

The one-way user-plane latency is composed from the TR 37.910 delay
components: transmitter processing, frame alignment, on-air transmission
time and receiver processing.  One HARQ round trip adds the latency of the
forward leg plus the reverse (feedback/grant) leg, so

    t_up(n) = t1 + n * (t1 + t2)

with n the number of retransmissions.  Alignment delays are evaluated at
the packet arrival offset that is worst for the scheduler, at OFDM-symbol
granularity; queuing/contention is deliberately not modeled.

A TDD band is one slot timeline shared by both directions.  An FDD band is
passed as ``pattern=None`` and runs through the same occasion search, with
downlink occasions on an all-D timeline and uplink occasions on an all-U
timeline (``FDD_DL_PATTERN`` / ``FDD_UL_PATTERN``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Literal, Optional

import yaml

from .errors import DomainError, NegativeComponent, NoUsableSlot, ParseError, ValidationError

SYMBOLS_PER_SLOT = 14
VALID_SCS_KHZ = (15, 30, 60, 120)

Direction = Literal["DL", "UL"]


@dataclass(frozen=True)
class Numerology:
    """Subcarrier spacing and the slot/symbol durations it implies."""

    scs_khz: int

    def __post_init__(self):
        if self.scs_khz not in VALID_SCS_KHZ:
            raise DomainError(f"unsupported subcarrier spacing {self.scs_khz} kHz")

    @property
    def slot_duration_ms(self) -> float:
        return 15.0 / self.scs_khz

    @property
    def symbol_duration_ms(self) -> float:
        return self.slot_duration_ms / SYMBOLS_PER_SLOT

    @property
    def symbols_per_slot(self) -> int:
        return SYMBOLS_PER_SLOT


@dataclass(frozen=True)
class TddPattern:
    """Repeating sequence of downlink (D), uplink (U) and special (S) slots.

    ``special_split`` gives the (dl, guard, ul) symbol counts applied to
    every S slot; the three counts must sum to one slot.
    """

    slots: tuple[str, ...]
    special_split: tuple[int, int, int] = (10, 2, 2)

    def __post_init__(self):
        if not self.slots:
            raise DomainError("TDD pattern must contain at least one slot")
        bad = set(self.slots) - {"D", "U", "S"}
        if bad:
            raise DomainError(f"invalid slot symbols {sorted(bad)}; expected D/U/S")
        dl, guard, ul = self.special_split
        if min(dl, guard, ul) < 0 or dl + guard + ul != SYMBOLS_PER_SLOT:
            raise DomainError(
                f"special split {self.special_split} must be non-negative and sum to {SYMBOLS_PER_SLOT}"
            )

    @classmethod
    def from_string(cls, text: str, special_split: tuple[int, int, int] = (10, 2, 2)) -> "TddPattern":
        return cls(tuple(text.upper()), special_split)

    def __str__(self) -> str:
        return "".join(self.slots)

    @property
    def period_slots(self) -> int:
        return len(self.slots)

    @property
    def period_symbols(self) -> int:
        return len(self.slots) * SYMBOLS_PER_SLOT

    def period_ms(self, numerology: Numerology) -> float:
        return self.period_slots * numerology.slot_duration_ms

    def symbol_roles(self) -> str:
        """Per-symbol role over one period: 'D', 'U' or '-' (guard)."""
        dl, guard, ul = self.special_split
        parts = []
        for slot in self.slots:
            if slot == "D":
                parts.append("D" * SYMBOLS_PER_SLOT)
            elif slot == "U":
                parts.append("U" * SYMBOLS_PER_SLOT)
            else:
                parts.append("D" * dl + "-" * guard + "U" * ul)
        return "".join(parts)

    def symbols_in_direction(self, direction: Direction) -> int:
        return self.symbol_roles().count("D" if direction == "DL" else "U")


FDD_DL_PATTERN = TddPattern(("D",))
FDD_UL_PATTERN = TddPattern(("U",))


def _timeline(pattern: Optional[TddPattern], direction: Direction) -> TddPattern:
    """Slot timeline carrying ``direction``: the TDD pattern, or on an FDD
    band (``pattern`` None) the all-D or all-U carrier of that direction."""
    if pattern is not None:
        return pattern
    return FDD_DL_PATTERN if direction == "DL" else FDD_UL_PATTERN


def load_processing_table(path: Path) -> dict[tuple[str, str, int], float]:
    """Processing times in symbols by (channel, capability, SCS), from a YAML
    file of the shipped table's schema (data/processing_times.yaml)."""
    try:
        raw = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ParseError(f"{path}: no such file") from None
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: YAML parse error: {exc}") from exc
    try:
        return {
            (str(channel), str(cap), int(scs)): float(symbols)
            for channel, caps in raw.items()
            for cap, per_scs in caps.items()
            for scs, symbols in per_scs.items()
        }
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: bad processing-table structure: {exc}") from exc


def default_processing_table() -> dict[tuple[str, str, int], float]:
    """TR 37.910-style processing times in symbols, from the shipped data file.

    The file is read and validated once, at import; each call returns a copy.
    """
    return dict(_DEFAULT_PROCESSING_TABLE)


def _validate_processing_table(table: dict[tuple[str, str, int], float]) -> None:
    for (channel, cap, scs), symbols in table.items():
        if symbols < 0:
            raise DomainError(f"negative processing time for {(channel, cap, scs)}")
        if cap == "cap2":
            cap1 = table.get((channel, "cap1", scs))
            if cap1 is not None and symbols > cap1:
                raise DomainError(
                    f"cap2 processing exceeds cap1 for {(channel, scs)}: {symbols} > {cap1}"
                )


_DEFAULT_PROCESSING_TABLE = load_processing_table(
    resources.files("nrfactory.data").joinpath("processing_times.yaml")
)
_validate_processing_table(_DEFAULT_PROCESSING_TABLE)


@dataclass(frozen=True)
class SchedulingConfig:
    """Scheduler granularity, HARQ/SR occasion density and UE capability."""

    tti_symbols: int = 14
    pdcch_occasions_per_slot: int = 1
    harq_feedback_occasions_per_slot: int = 1
    ul_access: Literal["sr_based", "configured_grant"] = "sr_based"
    ue_capability: Literal["cap1", "cap2"] = "cap1"
    sr_opportunities_per_slot: int = 1
    processing_table: dict[tuple[str, str, int], float] = field(
        default_factory=default_processing_table
    )

    def __post_init__(self):
        if not 2 <= self.tti_symbols <= SYMBOLS_PER_SLOT:
            raise DomainError(f"tti_symbols {self.tti_symbols} outside 2..14")
        for name in ("pdcch_occasions_per_slot", "harq_feedback_occasions_per_slot", "sr_opportunities_per_slot"):
            if not 1 <= getattr(self, name) <= SYMBOLS_PER_SLOT:
                raise DomainError(f"{name} {getattr(self, name)} outside 1..{SYMBOLS_PER_SLOT}")
        if self.ul_access not in ("sr_based", "configured_grant"):
            raise DomainError(f"unknown ul_access {self.ul_access!r}")
        if self.ue_capability not in ("cap1", "cap2"):
            raise DomainError(f"unknown ue_capability {self.ue_capability!r}")
        _validate_processing_table(self.processing_table)

    def processing_symbols(self, channel: str, scs_khz: int) -> float:
        key = (channel, self.ue_capability, scs_khz)
        if key not in self.processing_table:
            raise DomainError(f"no processing-table entry for {key}")
        return self.processing_table[key]


@dataclass
class LatencyBudget:
    """TR 37.910 delay components in ms.

    Alignment fields left as None are computed from the pattern via the
    worst-case occasion search when the budget is consumed.
    """

    t_bs_tx: float
    t_bs_rx: float
    t_ue_tx: float
    t_ue_rx: float
    t_dl_duration: float
    t_ul_duration: float
    t_fa_dl: Optional[float] = None
    t_fa_ul: Optional[float] = None

    def __post_init__(self):
        for name in ("t_bs_tx", "t_bs_rx", "t_ue_tx", "t_ue_rx", "t_dl_duration", "t_ul_duration"):
            if getattr(self, name) < 0:
                raise NegativeComponent(f"{name} must be >= 0")
        for name in ("t_fa_dl", "t_fa_ul"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise NegativeComponent(f"{name} must be >= 0")


@dataclass(frozen=True)
class LatencyResult:
    """One-way latency decomposition for a given retransmission count."""

    t1_ms: float
    t2_ms: float
    n_retx: int

    @property
    def t_harq_ms(self) -> float:
        return self.t1_ms + self.t2_ms

    @property
    def t_up_ms(self) -> float:
        return self.t1_ms + self.n_retx * self.t_harq_ms


def _occasion_offsets(per_slot: int) -> list[int]:
    return [(j * SYMBOLS_PER_SLOT) // per_slot for j in range(per_slot)]


def transmission_starts(
    pattern: TddPattern,
    direction: Direction,
    occasions_per_slot: int,
    needed_symbols: int,
) -> list[int]:
    """Absolute symbol indices (one period) where a transmission may start.

    A start is usable when it sits on the occasion grid and the following
    ``needed_symbols`` symbols all carry the requested direction within the
    same slot.
    """
    roles = pattern.symbol_roles()
    want = "D" if direction == "DL" else "U"
    starts = []
    for slot_idx in range(pattern.period_slots):
        base = slot_idx * SYMBOLS_PER_SLOT
        for off in _occasion_offsets(occasions_per_slot):
            if off + needed_symbols > SYMBOLS_PER_SLOT:
                continue
            if all(roles[base + off + i] == want for i in range(needed_symbols)):
                starts.append(base + off)
    return starts


def sr_opportunity_starts(pattern: TddPattern, per_slot: int = 1) -> list[int]:
    """SR occasion symbol indices: spread over each slot's UL symbols."""
    roles = pattern.symbol_roles()
    starts = []
    for slot_idx in range(pattern.period_slots):
        base = slot_idx * SYMBOLS_PER_SLOT
        ul_syms = [base + i for i in range(SYMBOLS_PER_SLOT) if roles[base + i] == "U"]
        if not ul_syms:
            continue
        # more opportunities than UL symbols take every symbol once
        n = min(per_slot, len(ul_syms))
        for j in range(n):
            starts.append(ul_syms[(j * len(ul_syms)) // n])
    return sorted(set(starts))


def _max_wait_symbols(starts: list[int], period: int) -> int:
    """Worst wait (symbols) from an integer arrival offset to the next start.

    An arrival exactly on a start symbol catches that occasion (wait 0), so
    the maximum over offsets equals the largest cyclic gap minus one.
    """
    if not starts:
        raise NoUsableSlot("no usable transmission occasion in this direction")
    ordered = sorted(starts)
    worst = 0
    for i, s in enumerate(ordered):
        nxt = ordered[(i + 1) % len(ordered)]
        gap = (nxt - s) % period
        if gap == 0:
            gap = period
        worst = max(worst, gap - 1)
    return worst


def _next_start(starts: list[int], period: int, t: float) -> float:
    """Earliest occasion start (cyclically unwrapped) at or after time t."""
    base = math.floor(t / period)
    frac = t - base * period
    eps = 1e-9
    for s in starts:
        if s >= frac - eps:
            return base * period + s
    return (base + 1) * period + starts[0]


def _sr_chain_alignment_symbols(
    pattern: Optional[TddPattern], config: SchedulingConfig, scs_khz: int
) -> float:
    """Worst-case symbols from UL data arrival to PUSCH start, SR-based.

    Chain: wait for SR opportunity, 1-symbol SR, gNB decode + grant
    preparation, wait for PDCCH occasion, 1-symbol grant, UE grant decode +
    PUSCH preparation, wait for granted UL data occasion.  The UE-side
    preparation inside the chain is the budget's t_ue_tx, so callers must
    not add it again.
    """
    return _sr_chain_scan(
        pattern,
        config.sr_opportunities_per_slot,
        config.pdcch_occasions_per_slot,
        config.tti_symbols,
        config.processing_symbols("pusch", scs_khz),
    )


@functools.lru_cache(maxsize=256)
def _sr_chain_scan(
    pattern: Optional[TddPattern], sr_per_slot: int, pdcch_per_slot: int, tti_symbols: int, proc: float
) -> float:
    """``_sr_chain_alignment_symbols`` from the values it reads, cached.

    One latency evaluation asks for the same chain several times (per
    retransmission count and per bound check); ``SchedulingConfig`` holds
    a dict, so the cache is keyed on its scalar fields instead.
    """
    dl, ul = _timeline(pattern, "DL"), _timeline(pattern, "UL")
    sr_starts = sr_opportunity_starts(ul, sr_per_slot)
    pdcch_starts = transmission_starts(dl, "DL", pdcch_per_slot, 1)
    data_starts = transmission_starts(ul, "UL", pdcch_per_slot, tti_symbols)
    if not sr_starts or not pdcch_starts or not data_starts:
        raise NoUsableSlot("pattern cannot carry the SR-based uplink procedure")
    period = ul.period_symbols
    worst = 0.0
    for offset in range(period):
        t = _next_start(sr_starts, period, float(offset))
        t += 1.0 + proc
        t = _next_start(pdcch_starts, period, t)
        t += 1.0 + proc
        t = _next_start(data_starts, period, t)
        worst = max(worst, t - offset)
    return worst


def worst_case_alignment(
    pattern: Optional[TddPattern],
    numerology: Numerology,
    config: SchedulingConfig,
    direction: Direction,
) -> float:
    """Worst-case transmission alignment delay in ms.

    DL and configured-grant UL return the longest wait from any
    symbol-granularity arrival offset to the next usable data occasion.
    SR-based UL returns the full worst-case SR round trip up to the PUSCH
    start (SR wait, grant wait and the decode times in between).
    ``pattern`` None is an FDD band.
    """
    if direction == "UL" and config.ul_access == "sr_based":
        symbols = _sr_chain_alignment_symbols(pattern, config, numerology.scs_khz)
    else:
        timeline = _timeline(pattern, direction)
        starts = transmission_starts(timeline, direction, config.pdcch_occasions_per_slot, config.tti_symbols)
        symbols = float(_max_wait_symbols(starts, timeline.period_symbols))
    return symbols * numerology.symbol_duration_ms


def _control_alignment_ms(
    pattern: Optional[TddPattern],
    numerology: Numerology,
    config: SchedulingConfig,
    direction: Direction,
) -> float:
    """Worst-case wait in ms for a 1-symbol control occasion (grant/feedback)."""
    per_slot = (
        config.pdcch_occasions_per_slot
        if direction == "DL"
        else config.harq_feedback_occasions_per_slot
    )
    timeline = _timeline(pattern, direction)
    starts = transmission_starts(timeline, direction, per_slot, 1)
    return _max_wait_symbols(starts, timeline.period_symbols) * numerology.symbol_duration_ms


def default_budget(
    numerology: Numerology,
    config: SchedulingConfig,
    direction: Direction,
) -> LatencyBudget:
    """Budget with table processing times and TTI/control durations filled in.

    The data-carrying direction gets a full TTI on air; the reverse control
    leg (HARQ feedback for DL data, the grant for UL data) gets one symbol.
    Alignment components are left unset and computed when consumed.
    """
    scs = numerology.scs_khz
    sym = numerology.symbol_duration_ms
    proc_dl = config.processing_symbols("pdsch", scs) * sym
    proc_ul = config.processing_symbols("pusch", scs) * sym
    data_ms = config.tti_symbols * sym
    control_ms = 1 * sym
    return LatencyBudget(
        t_bs_tx=proc_dl,
        t_ue_rx=proc_dl,
        t_ue_tx=proc_ul,
        t_bs_rx=proc_ul,
        t_dl_duration=data_ms if direction == "DL" else control_ms,
        t_ul_duration=data_ms if direction == "UL" else control_ms,
    )


def one_way_latency(
    pattern: Optional[TddPattern],
    numerology: Numerology,
    config: SchedulingConfig,
    budget: Optional[LatencyBudget],
    direction: Direction,
    n_retx: int = 0,
) -> LatencyResult:
    """Worst-case one-way latency with ``n_retx`` HARQ retransmissions.

    DL: t1 = t_bs_tx + t_fa_dl + t_dl_duration + t_ue_rx and the feedback
    leg t2 = t_ue_tx + t_fa_ul + t_ul_duration + t_bs_rx; UL is mirrored.
    For SR-based UL the alignment already contains the UE grant-decode /
    PUSCH-preparation time, so t1 omits the separate t_ue_tx term.
    ``pattern`` None is an FDD band.
    """
    if n_retx < 0:
        raise DomainError("n_retx must be >= 0")
    if budget is None:
        budget = default_budget(numerology, config, direction)

    if direction == "DL":
        fa_data = budget.t_fa_dl
        fa_ctrl = budget.t_fa_ul
        if fa_data is None:
            fa_data = worst_case_alignment(pattern, numerology, config, "DL")
        if fa_ctrl is None:
            fa_ctrl = _control_alignment_ms(pattern, numerology, config, "UL")
        t1 = budget.t_bs_tx + fa_data + budget.t_dl_duration + budget.t_ue_rx
        t2 = budget.t_ue_tx + fa_ctrl + budget.t_ul_duration + budget.t_bs_rx
    else:
        fa_data = budget.t_fa_ul
        fa_ctrl = budget.t_fa_dl
        if fa_data is None:
            fa_data = worst_case_alignment(pattern, numerology, config, "UL")
        if fa_ctrl is None:
            fa_ctrl = _control_alignment_ms(pattern, numerology, config, "DL")
        if config.ul_access == "sr_based":
            t1 = fa_data + budget.t_ul_duration + budget.t_bs_rx
        else:
            t1 = budget.t_ue_tx + fa_data + budget.t_ul_duration + budget.t_bs_rx
        t2 = budget.t_bs_tx + fa_ctrl + budget.t_dl_duration + budget.t_ue_rx
    return LatencyResult(t1_ms=t1, t2_ms=t2, n_retx=n_retx)


@dataclass(frozen=True)
class AttemptFit:
    """How many HARQ rounds fit inside a latency bound."""

    n_retx: int
    initial_fits: bool

    @property
    def attempts(self) -> int:
        return self.n_retx + 1 if self.initial_fits else 0


def max_attempts_within_bound(
    pattern: Optional[TddPattern],
    numerology: Numerology,
    config: SchedulingConfig,
    budget: Optional[LatencyBudget],
    direction: Direction,
    bound_ms: float,
) -> AttemptFit:
    """Largest retransmission count whose worst-case latency fits the bound."""
    if bound_ms <= 0:
        raise DomainError("bound_ms must be > 0")
    first = one_way_latency(pattern, numerology, config, budget, direction, 0)
    eps = 1e-9 * max(1.0, bound_ms)
    if first.t1_ms > bound_ms + eps:
        return AttemptFit(n_retx=0, initial_fits=False)
    if first.t_harq_ms <= 0:
        raise DomainError("non-positive HARQ round-trip time")
    n = int(math.floor((bound_ms - first.t1_ms) / first.t_harq_ms + 1e-9))
    return AttemptFit(n_retx=max(n, 0), initial_fits=True)


def handover_interruption_budget(
    components: Iterable[tuple[str, float, float]],
) -> tuple[float, float]:
    """Component-wise (min, max) sum of a handover interruption budget."""
    lo = hi = 0.0
    for name, cmin, cmax in components:
        if cmin < 0 or cmax < 0:
            raise NegativeComponent(f"component {name!r} has a negative bound")
        if cmin > cmax:
            raise DomainError(f"component {name!r} has min > max")
        lo += cmin
        hi += cmax
    return lo, hi
