"""Antenna gains, uplink power control, snapshot SINR and link adaptation.

Deployment abstractions follow the three evaluated antenna options: an
omnidirectional gNB antenna, a distributed antenna system (DAS) whose heads
(the scenario's gNB positions) form one cell, and an advanced antenna
system (AAS) panel modeled as a flat array gain toward the served UE plus a
configurable suppression toward victims of interference.  ``build_links``
is where the option decides the cells: one per gNB site, or for DAS a
single cell whose coupling is the power sum over the heads, so it has no
intercell interference.  Interferer load enters as a scalar activity
fraction per cell (snapshot methodology; no traffic traces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, NoGnb
from .propagation import (
    FactoryScenario,
    link_distances,
    los_probability_array,
    pathloss_array,
    shadow_sigma_db,
)
from .timing import Numerology, TddPattern

THERMAL_NOISE_DBM_PER_HZ = -174.0

Direction = Literal["DL", "UL"]


@dataclass(frozen=True)
class OmniAntenna:
    gain_dbi: float = 2.0


@dataclass(frozen=True)
class DasAntenna:
    head_gain_dbi: float = 0.0


@dataclass(frozen=True)
class AasAntenna:
    rows: int = 4
    cols: int = 4
    polarizations: int = 2
    element_gain_dbi: float = 5.0
    suppression_db: float = 20.0

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols * self.polarizations


Antenna = Union[OmniAntenna, DasAntenna, AasAntenna]


@dataclass(frozen=True)
class UlPowerControl:
    snr_target_db: float = 10.0
    alpha: float = 0.8

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError("fractional power control alpha must be in [0, 1]")


@dataclass(frozen=True)
class RadioConfig:
    antenna: Antenna = OmniAntenna()
    gnb_tx_dbm: float = 30.0
    ue_tx_max_dbm: float = 23.0
    ue_gain_dbi: float = 0.0
    gnb_nf_db: float = 7.0
    ue_nf_db: float = 6.0
    ul_pc: UlPowerControl = UlPowerControl()


@dataclass(frozen=True)
class BandConfig:
    """Spectrum band: duplexing, carrier, bandwidth and TTI length."""

    duplex: Literal["FDD", "TDD"]
    carrier_ghz: float
    bandwidth_mhz: float
    scs_khz: int
    tdd_pattern: Optional[TddPattern] = None
    tti_symbols: int = 14

    def __post_init__(self):
        if self.duplex not in ("FDD", "TDD"):
            raise DomainError(f"unknown duplex {self.duplex!r}; expected FDD or TDD")
        if self.duplex == "FDD" and self.tdd_pattern is not None:
            raise DomainError("FDD bands carry no TDD pattern")
        if self.duplex == "TDD" and self.tdd_pattern is None:
            raise DomainError("TDD bands require a TDD pattern")
        if self.bandwidth_mhz <= 0:
            raise DomainError("bandwidth must be positive")

    @property
    def numerology(self) -> Numerology:
        return Numerology(self.scs_khz)


def thermal_noise_dbm(bandwidth_hz: float) -> float:
    if bandwidth_hz <= 0:
        raise DomainError("bandwidth must be positive")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz)


def ul_tx_power(pathloss_db: float, config: RadioConfig, allocated_bw_hz: float) -> float:
    """Open-loop fractional power control: min(P_max, P0 + alpha * PL) in dBm.

    P0 targets ``snr_target_db`` received SNR over the allocated bandwidth
    at full compensation; ``pathloss_db`` is the coupling loss the control
    loop compensates.
    """
    if pathloss_db <= 0:
        raise DomainError("pathloss must be positive")
    return min(config.ue_tx_max_dbm, _ul_p0_dbm(config, allocated_bw_hz) + config.ul_pc.alpha * pathloss_db)


def _ul_p0_dbm(config: RadioConfig, allocated_bw_hz: float) -> float:
    return config.ul_pc.snr_target_db + thermal_noise_dbm(allocated_bw_hz) + config.gnb_nf_db


def beamforming_gain(panel: AasAntenna, serving: bool) -> float:
    """Array gain in dBi toward the served UE, suppressed toward victims."""
    gain = panel.element_gain_dbi + 10.0 * math.log10(panel.n_elements)
    return gain if serving else gain - panel.suppression_db


def gnb_antenna_gain_db(antenna: Antenna, serving: bool) -> float:
    """gNB-side gain for a serving or interfering link, per antenna option."""
    if isinstance(antenna, OmniAntenna):
        return antenna.gain_dbi
    if isinstance(antenna, DasAntenna):
        return antenna.head_gain_dbi
    return beamforming_gain(antenna, serving)


def sinr_to_se(
    sinr_db: Union[float, np.ndarray],
    bler_target: float,
    max_se: float = 7.4,
    eta: float = 0.75,
    backoff_db_per_decade: float = 1.0,
) -> Union[float, np.ndarray]:
    """Attenuated-Shannon link adaptation with a BLER-target backoff.

    The backoff grows by ``backoff_db_per_decade`` for every decade of BLER
    stringency, standing in for the more robust MCS a stricter target
    forces.  ``sinr_db`` is a scalar or an array; the result has its shape.
    This is ``sinr_to_se_linear`` of the SINR in linear units.
    """
    return sinr_to_se_linear(_db_to_lin(sinr_db), bler_target, max_se, eta, backoff_db_per_decade)


def sinr_to_se_linear(
    sinr: Union[float, np.ndarray],
    bler_target: float,
    max_se: float = 7.4,
    eta: float = 0.75,
    backoff_db_per_decade: float = 1.0,
) -> Union[float, np.ndarray]:
    """``sinr_to_se`` of a SINR given as a linear power ratio.

    min(max_se, eta * log2(1 + sinr * 10^(-backoff / 10))).  numpy's
    ``log2`` and ``power`` may differ from the scalar ``math`` formula in
    the last bit or two.
    """
    if not 0.0 < bler_target < 1.0:
        raise DomainError("bler_target must be in (0, 1)")
    backoff_gain = 10.0 ** (backoff_db_per_decade * math.log10(bler_target) / 10.0)
    return np.minimum(max_se, eta * np.log2(1.0 + np.asarray(sinr, dtype=float) * backoff_gain))


def _pathloss_los(
    scenario: FactoryScenario,
    ue_positions: np.ndarray,
    rng_los: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(N, G) pathloss and LOS state of every UE-gNB link, in one broadcast over the gNBs.

    A link is LOS where a uniform draw from ``rng_los`` (filled user-major)
    is below its LOS probability, or without a generator where that
    probability is at least 0.5 (the median state).
    """
    if not scenario.gnb_positions:
        raise NoGnb("scenario defines no gNBs")
    gnbs = np.asarray(scenario.gnb_positions, dtype=float)
    d2d, d3d = link_distances(gnbs, ue_positions)
    p_los = los_probability_array(scenario, d2d, bs_height_m=gnbs[:, 2])
    los = p_los >= 0.5 if rng_los is None else rng_los.random(p_los.shape) < p_los
    del d2d, p_los  # free two (N, G) buffers before the pathloss temporaries
    np.maximum(d3d, 1.0, out=d3d)
    return pathloss_array(scenario.scenario_type, los, d3d, scenario.carrier_ghz), los


def _median_coupling_db(
    scenario: FactoryScenario, ue_positions: np.ndarray
) -> np.ndarray:
    """(N, G) pathloss with median shadowing (0 dB) and median LOS state."""
    return _pathloss_los(scenario, ue_positions)[0]


def sampled_coupling_db(
    scenario: FactoryScenario,
    ue_positions: np.ndarray,
    rng_los: np.random.Generator,
    rng_shadow: np.random.Generator,
) -> np.ndarray:
    """(N, G) pathloss + shadowing with per-link LOS/shadow draws.

    LOS and shadowing use separate generators filled user-major, so the
    first n users of a larger drop see identical links (nested drops).
    """
    coupling, los = _pathloss_los(scenario, ue_positions, rng_los)
    shadow = rng_shadow.standard_normal(coupling.shape)
    np.multiply(shadow, shadow_sigma_db(scenario.scenario_type, True), out=shadow, where=los)
    np.multiply(shadow, shadow_sigma_db(scenario.scenario_type, False), out=shadow, where=~los)
    coupling += shadow
    return coupling


@dataclass
class SnapshotLinks:
    """Large-scale coupling of N UEs to C cells plus cell attachment."""

    coupling_db: np.ndarray        # (N, C) pathloss incl. shadow, no antenna gains
    serving: np.ndarray            # (N,) serving cell index

    @property
    def n_cells(self) -> int:
        return self.coupling_db.shape[1]


def cell_count(scenario: FactoryScenario, radio: RadioConfig) -> int:
    """Cells of the deployment: one per gNB site, and one in all under DAS."""
    return 1 if isinstance(radio.antenna, DasAntenna) else len(scenario.gnb_positions)


def build_links(
    scenario: FactoryScenario,
    radio: RadioConfig,
    ue_positions: np.ndarray,
    rng_los: Optional[np.random.Generator] = None,
    rng_shadow: Optional[np.random.Generator] = None,
) -> SnapshotLinks:
    """Attach UEs to the strongest large-scale cell under the antenna model.

    Every gNB site is a cell, except under DAS: its heads form one cell,
    whose coupling is -10 log10(sum_h 10^(-c_h / 10)) over the heads'
    couplings c_h.  Without generators the median channel (0 dB shadow,
    majority LOS state) is used.
    """
    if (rng_los is None) != (rng_shadow is None):
        raise DomainError("pass both generators or neither")
    coupling = (
        _median_coupling_db(scenario, ue_positions)
        if rng_los is None
        else sampled_coupling_db(scenario, ue_positions, rng_los, rng_shadow)
    )
    if isinstance(radio.antenna, DasAntenna):
        coupling = -10.0 * np.log10(_db_to_lin(-coupling).sum(axis=1, keepdims=True))
    gain = gnb_antenna_gain_db(radio.antenna, serving=True)
    rx = radio.gnb_tx_dbm + gain + radio.ue_gain_dbi - coupling
    return SnapshotLinks(coupling_db=coupling, serving=np.argmax(rx, axis=1))


def _db_to_lin(x):
    return 10.0 ** (np.asarray(x, dtype=float) / 10.0)


def _noise_lin(band: BandConfig, nf_db: float) -> float:
    return float(_db_to_lin(thermal_noise_dbm(band.bandwidth_mhz * 1e6) + nf_db))


def _ul_tx_dbm(eff_serv: np.ndarray, radio: RadioConfig, band: BandConfig) -> np.ndarray:
    """``ul_tx_power`` toward each UE's serving cell, couplings floored at 1e-6 dB."""
    p0 = _ul_p0_dbm(radio, band.bandwidth_mhz * 1e6)
    return np.minimum(radio.ue_tx_max_dbm, p0 + radio.ul_pc.alpha * np.maximum(eff_serv, 1e-6))


@dataclass(frozen=True)
class LinkPowers:
    """Linear powers (mW) of one snapshot in one direction, before any activity.

    The first step of a SINR evaluation: it depends only on the links, the
    radio and the band, so a load fixed point computes it once per drop and
    applies each round's activity to it.  Every array is one row per UE,
    so the powers of a drop's first n UEs are its first n rows.
    """

    signal: np.ndarray      # (N,) wanted power at the UE (DL) or at its serving cell (UL)
    interf: np.ndarray      # (N, G) DL: cell g's power at UE n; UL: UE n's power at cell g
    noise: float
    own_cell: np.ndarray    # (N,) interf at each UE's serving cell, the term interference leaves out

    def head(self, n: int) -> "LinkPowers":
        """The powers of the first ``n`` UEs."""
        return LinkPowers(self.signal[:n], self.interf[:n], self.noise, self.own_cell[:n])


def link_powers(
    links: SnapshotLinks, radio: RadioConfig, band: BandConfig, direction: Direction
) -> LinkPowers:
    """The activity-independent step of ``dl_sinr_array`` / ``ul_sinr_array``."""
    coupling = links.coupling_db
    idx = np.arange(coupling.shape[0])
    gain_interf = gnb_antenna_gain_db(radio.antenna, False)
    if direction == "DL":
        serve_db = coupling[idx, links.serving]
        gain_serve = gnb_antenna_gain_db(radio.antenna, True)
        signal = _db_to_lin(radio.gnb_tx_dbm + gain_serve + radio.ue_gain_dbi - serve_db)
        interf = _db_to_lin(radio.gnb_tx_dbm + gain_interf + radio.ue_gain_dbi - coupling)
        return LinkPowers(signal, interf, _noise_lin(band, radio.ue_nf_db), interf[idx, links.serving])
    eff_serv = ul_effective_coupling_db(links, radio)
    p_tx = _ul_tx_dbm(eff_serv, radio, band)
    interf = _db_to_lin(p_tx[:, None] - (coupling - gain_interf - radio.ue_gain_dbi))
    signal = _db_to_lin(p_tx - eff_serv)
    return LinkPowers(signal, interf, _noise_lin(band, radio.gnb_nf_db), interf[idx, links.serving])


def _per_cell(activity: Union[float, np.ndarray], n_cells: int) -> np.ndarray:
    """``activity`` as one value per cell; an array of that shape is used as it is."""
    act = np.asarray(activity, dtype=float)
    return act if act.shape == (n_cells,) else np.broadcast_to(act, (n_cells,))


def dl_sinr_array(
    links: SnapshotLinks,
    radio: RadioConfig,
    band: BandConfig,
    activity: Union[float, np.ndarray],
    powers: Optional[LinkPowers] = None,
) -> np.ndarray:
    """Per-UE downlink SINR in dB given per-cell interferer activity.

    ``powers`` is ``link_powers(links, radio, band, "DL")``, computed here
    when not given.
    """
    return 10.0 * np.log10(dl_sinr_linear(links, radio, band, activity, powers))


def dl_sinr_linear(
    links: SnapshotLinks,
    radio: RadioConfig,
    band: BandConfig,
    activity: Union[float, np.ndarray],
    powers: Optional[LinkPowers] = None,
) -> np.ndarray:
    """``dl_sinr_array`` as a linear power ratio."""
    if powers is None:
        powers = link_powers(links, radio, band, "DL")
    act = _per_cell(activity, powers.interf.shape[1])
    interference = powers.interf @ act - powers.own_cell * act[links.serving]
    return powers.signal / (interference + powers.noise)


def ul_effective_coupling_db(links: SnapshotLinks, radio: RadioConfig) -> np.ndarray:
    """(N,) coupling loss UE -> serving cell including antenna gains."""
    coupling = links.coupling_db
    idx = np.arange(coupling.shape[0])
    gain = gnb_antenna_gain_db(radio.antenna, True)
    return coupling[idx, links.serving] - gain - radio.ue_gain_dbi


def ul_sinr_array(
    links: SnapshotLinks,
    radio: RadioConfig,
    band: BandConfig,
    activity: Union[float, np.ndarray],
    interferer_weights: Optional[np.ndarray] = None,
    powers: Optional[LinkPowers] = None,
) -> np.ndarray:
    """Per-UE uplink SINR in dB at the serving cell.

    Interference is the activity-weighted mean received power of the other
    cells' UEs; ``interferer_weights`` gives each UE's share of its own
    cell's resources (uniform by default).  ``powers`` is
    ``link_powers(links, radio, band, "UL")``, computed here when not given.
    """
    return 10.0 * np.log10(ul_sinr_linear(links, radio, band, activity, interferer_weights, powers))


def ul_sinr_linear(
    links: SnapshotLinks,
    radio: RadioConfig,
    band: BandConfig,
    activity: Union[float, np.ndarray],
    interferer_weights: Optional[np.ndarray] = None,
    powers: Optional[LinkPowers] = None,
) -> np.ndarray:
    """``ul_sinr_array`` as a linear power ratio."""
    if powers is None:
        powers = link_powers(links, radio, band, "UL")
    n_ue, n_cells = powers.interf.shape
    act = _per_cell(activity, n_cells)
    if interferer_weights is None:
        weights = np.ones(n_ue)
    else:
        weights = np.asarray(interferer_weights, dtype=float)
    # normalize weights within each cell so they sum to that cell's activity
    own_cell_w = np.bincount(links.serving, weights=weights, minlength=n_cells)[links.serving]
    scale = np.where(own_cell_w > 0, act[links.serving] / np.maximum(own_cell_w, 1e-300), 0.0)
    w = weights * scale

    total_at_cell = (powers.interf * w[:, None]).sum(axis=0)  # (C,)
    own_cell = np.bincount(links.serving, weights=powers.own_cell * w, minlength=n_cells)
    interference = (total_at_cell - own_cell)[links.serving]
    return powers.signal / (interference + powers.noise)


def sinr_at_points(
    points: np.ndarray,
    scenario: FactoryScenario,
    band: BandConfig,
    radio: RadioConfig,
    direction: Direction,
    activity: float = 1.0,
) -> np.ndarray:
    """(N,) SINR in dB at N points with median shadowing and LOS.

    Every cell is loaded at ``activity``.  Uplink interference comes from
    one representative UE at UE height under each gNB (the capacity engine
    replaces them with the actual dropped users); each point ignores the
    representatives attached to its own serving cell.  The points and the
    representatives share one ``build_links`` call, and each point's value
    is bit-identical to evaluating that point alone.
    """
    if not 0.0 <= activity <= 1.0:
        raise DomainError("interferer activity must be in [0, 1]")
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if direction == "DL":
        return dl_sinr_array(build_links(scenario, radio, points), radio, band, activity)
    if not scenario.gnb_positions:
        raise NoGnb("scenario defines no gNBs")
    reps = np.array(
        [(g[0], g[1], scenario.ue_height_m) for g in scenario.gnb_positions], dtype=float
    )
    n = len(points)
    links = build_links(scenario, radio, np.vstack([points, reps]))
    powers = link_powers(links, radio, band, "UL")
    rx = powers.interf
    cell, rep_cell = links.serving[:n], links.serving[n:]
    # weights as ul_sinr_array gives them: a cell's activity shared by its UEs
    rep_w = activity / np.bincount(rep_cell)[rep_cell]
    # ul_sinr_array's sum order: the point's own term, then the other cells'
    # representatives in order, then the own term taken off again
    own = powers.own_cell[:n] * activity
    total = own
    for r in range(len(reps)):
        total = total + np.where(rep_cell[r] != cell, rx[n + r, cell] * rep_w[r], 0.0)
    return 10.0 * np.log10(powers.signal[:n] / ((total - own) + powers.noise))


def dl_sinr(
    ue: Sequence[float],
    scenario: FactoryScenario,
    band: BandConfig,
    radio: RadioConfig,
    interferer_activity: float = 1.0,
) -> float:
    """Downlink SINR at one point, median shadowing and LOS."""
    return float(sinr_at_points([ue], scenario, band, radio, "DL", interferer_activity)[0])


def ul_sinr(
    ue: Sequence[float],
    scenario: FactoryScenario,
    band: BandConfig,
    radio: RadioConfig,
    interferer_activity: float = 1.0,
) -> float:
    """Uplink SINR at one point with one representative interferer per cell."""
    return float(sinr_at_points([ue], scenario, band, radio, "UL", interferer_activity)[0])


@dataclass(frozen=True)
class SinrMap:
    """SINR heatmap grid at UE height (dB), with the point each cell was evaluated at."""

    grid: np.ndarray          # (nx, ny)
    x_m: np.ndarray           # (nx,)
    y_m: np.ndarray           # (ny,)
    direction: Direction

    def csv_text(self) -> str:
        """The map as CSV: a header, then one ``x_m,y_m,sinr_db`` row per cell,
        x outermost.  Numbers are written as ``repr``, the SINR rounded to 6
        decimals, as ``csv.writer`` writes Python floats."""
        ys = [repr(y) for y in self.y_m.tolist()]
        rows = [
            f"{x},{y},{round(v, 6)!r}\n"
            for x, column in zip(map(repr, self.x_m.tolist()), self.grid.tolist())
            for y, v in zip(ys, column)
        ]
        return "x_m,y_m,sinr_db\n" + "".join(rows)


def sinr_grid(
    scenario: FactoryScenario,
    band: BandConfig,
    radio: RadioConfig,
    direction: Direction,
    resolution_m: float = 1.0,
    activity: float = 1.0,
) -> SinrMap:
    """SINR evaluated on a regular grid with median shadowing.

    Cell centres sit at (i + 0.5) * resolution, clamped to the hall where the
    resolution does not divide it.
    """
    if resolution_m <= 0:
        raise DomainError("resolution must be positive")
    nx = math.ceil(scenario.hall.length_m / resolution_m)
    ny = math.ceil(scenario.hall.width_m / resolution_m)
    xs = np.minimum((np.arange(nx) + 0.5) * resolution_m, scenario.hall.length_m)
    ys = np.minimum((np.arange(ny) + 0.5) * resolution_m, scenario.hall.width_m)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, scenario.ue_height_m)])
    grid = sinr_at_points(points, scenario, band, radio, direction, activity).reshape(nx, ny)
    return SinrMap(grid=grid, x_m=xs, y_m=ys, direction=direction)
