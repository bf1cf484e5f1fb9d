"""Factory geometry, indoor-factory large-scale channel and multipath rays.

Pathloss and LOS-probability coefficients follow TR 38.901 Table 7.4.1-1 /
Table 7.4.2-1 for the InF-SH and InF-DH sub-scenarios and are shipped as an
editable data file (see data/pathloss_inf.yaml).  Shadowing is log-normal,
independent per link, with the per-scenario sigma from the same table.

For the exclusion-zone channel a geometric image-method synthesizer
replaces full ray tracing: specular reflections against the six hall
surfaces up to third order, a flat per-bounce reflection coefficient and
free-space spreading per ray.  Each ray contributes

    A * exp(-j * w0 * tau),   |A| = lambda / (4 pi d) * prod(refl),

and the aggregate channel is the coherent sum over rays.  The image set
depends only on the transmitter and the hall (Allen & Berkley, JASA 1979),
so ``multipath_response`` builds each transmitter's images once and
measures them against every receive point in one broadcast, giving the
(T, P) channel matrix; each entry sums its rays in delay order, as
``synthesize_multipath(...).response()`` does for one pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from importlib import resources
from typing import Literal, Optional, Sequence, Union

import numpy as np
import yaml

from .errors import DegenerateGeometry, DomainError, OutOfRange

SPEED_OF_LIGHT = 299_792_458.0

ScenarioType = Literal["InF_DH", "InF_SH"]


def _load_pathloss_coefficients() -> dict:
    return yaml.safe_load(
        resources.files("nrfactory.data").joinpath("pathloss_inf.yaml").read_text()
    )


_PL_COEFFS = _load_pathloss_coefficients()


@dataclass(frozen=True)
class Hall:
    """Rectangular factory hall, origin at one floor corner."""

    length_m: float
    width_m: float
    height_m: float

    def __post_init__(self):
        if min(self.length_m, self.width_m, self.height_m) <= 0:
            raise DomainError("hall dimensions must be positive")

    def contains(self, point: Sequence[float]) -> bool:
        x, y, z = point
        return 0 <= x <= self.length_m and 0 <= y <= self.width_m and 0 <= z <= self.height_m


@dataclass(frozen=True)
class Clutter:
    density: float
    height_m: float
    size_m: float

    def __post_init__(self):
        if not 0.0 < self.density < 1.0:
            raise DomainError("clutter density must be in (0, 1)")
        if self.height_m <= 0 or self.size_m <= 0:
            raise DomainError("clutter height and size must be positive")


@dataclass(frozen=True)
class FactoryScenario:
    """Hall geometry, base-station layout and channel-model selection."""

    hall: Hall = Hall(120.0, 50.0, 10.0)
    gnb_positions: tuple[tuple[float, float, float], ...] = ()
    ue_height_m: float = 1.5
    clutter: Clutter = Clutter(0.60, 6.0, 2.0)
    scenario_type: ScenarioType = "InF_DH"
    carrier_ghz: float = 3.8

    def __post_init__(self):
        if self.scenario_type not in ("InF_DH", "InF_SH"):
            raise DomainError(f"unknown scenario type {self.scenario_type!r}")
        if not 0 < self.ue_height_m < self.hall.height_m:
            raise DomainError("UE height must lie inside the hall")
        for pos in self.gnb_positions:
            if not self.hall.contains(pos):
                raise DomainError(f"gNB position {pos} outside the hall volume")

    @property
    def n_gnbs(self) -> int:
        return len(self.gnb_positions)


def gnb_grid(
    rows: int, cols: int, height_m: float, hall: Hall
) -> tuple[tuple[float, float, float], ...]:
    """Uniform ceiling grid of rows x cols gNBs with half-spacing margins."""
    if rows < 1 or cols < 1:
        raise DomainError("grid must have at least one row and column")
    xs = [(c + 0.5) * hall.length_m / cols for c in range(cols)]
    ys = [(r + 0.5) * hall.width_m / rows for r in range(rows)]
    return tuple((x, y, height_m) for y in ys for x in xs)


def default_gnb_layout(n: int, hall: Hall, height_m: float = 8.0):
    """The 3- and 12-gNB factory layouts; other counts get a near-square grid."""
    if n == 12:
        return gnb_grid(2, 6, height_m, hall)
    if n == 3:
        return gnb_grid(1, 3, height_m, hall)
    if n == 1:
        return gnb_grid(1, 1, height_m, hall)
    cols = max(1, int(round(math.sqrt(n * hall.length_m / hall.width_m))))
    while n % cols:
        cols -= 1
    return gnb_grid(n // cols, cols, height_m, hall)


def los_decay_constant_m(scenario: FactoryScenario, bs_height_m: float) -> float:
    """Decay constant k of the exponential LOS-probability model.

    k scales the clutter-limited constant by the BS-above-clutter geometry:
    k = -size/ln(1-density) * (h_bs - h_ut)/(h_c - h_ut) for high-BS
    sub-scenarios; clutter below the UE makes the link always LOS (k=inf).
    """
    c = scenario.clutter
    h_ut = scenario.ue_height_m
    if c.height_m <= h_ut:
        return math.inf
    base = -c.size_m / math.log(1.0 - c.density)
    height_factor = max(bs_height_m - h_ut, 0.0) / (c.height_m - h_ut)
    if height_factor <= 0:
        return base
    return base * height_factor


def los_probability_array(
    scenario: FactoryScenario, d2d_m: np.ndarray, bs_height_m: Union[float, np.ndarray]
) -> np.ndarray:
    """LOS probability exp(-d2d/k) per link; ``bs_height_m`` is one height or one per column of ``d2d_m``.

    k is infinite where the clutter is at or below the UE, and exp(-0) = 1.
    """
    d2d = np.asarray(d2d_m, dtype=float)
    if np.any(d2d < 0):
        raise DomainError("d2d must be >= 0")
    heights = np.ravel(bs_height_m).tolist()
    k = np.reshape([los_decay_constant_m(scenario, h) for h in heights], np.shape(bs_height_m))
    return np.exp(-d2d / k)


def los_probability(scenario: FactoryScenario, d2d_m: float, bs_height_m: Optional[float] = None) -> float:
    """LOS probability exp(-d2d/k) for the indoor-factory model."""
    if bs_height_m is None:
        if not scenario.gnb_positions:
            raise DomainError("scenario has no gNBs and no bs_height_m was given")
        bs_height_m = scenario.gnb_positions[0][2]
    return float(los_probability_array(scenario, np.array([d2d_m]), bs_height_m)[0])


def pathloss_array(
    scenario_type: ScenarioType,
    los: np.ndarray,
    d3d_m: np.ndarray,
    carrier_ghz: float,
) -> np.ndarray:
    d3d = np.asarray(d3d_m, dtype=float)
    if np.any(d3d < 1.0):
        raise OutOfRange("d3d below the 1 m model floor")
    if not 0.5 <= carrier_ghz <= 100.0:
        raise OutOfRange(f"carrier {carrier_ghz} GHz outside 0.5..100 GHz")
    if scenario_type not in _PL_COEFFS["nlos"]:
        raise DomainError(f"no NLOS coefficients for {scenario_type!r}")
    los_c = _PL_COEFFS["los"]
    nl = _PL_COEFFS["nlos"][scenario_type]
    log_d = np.log10(d3d)
    log_f = math.log10(carrier_ghz)
    pl_los = los_c["a"] + los_c["b"] * log_d + los_c["c"] * log_f
    pl_nlos = nl["a"] + nl["b"] * log_d + nl["c"] * log_f
    del log_d  # the arrays are (N, G) in a capacity search: keep few alive
    np.maximum(pl_nlos, pl_los, out=pl_nlos)
    return np.where(np.asarray(los, dtype=bool), pl_los, pl_nlos)


def pathloss(
    scenario_type: ScenarioType, los: bool, d3d_m: float, carrier_ghz: float
) -> float:
    """Indoor-factory pathloss in dB; NLOS is floored by the LOS value."""
    return float(pathloss_array(scenario_type, np.array([los]), np.array([d3d_m]), carrier_ghz)[0])


def shadow_sigma_db(scenario_type: ScenarioType, los: bool) -> float:
    if los:
        return float(_PL_COEFFS["los"]["shadow_sigma_db"])
    return float(_PL_COEFFS["nlos"][scenario_type]["shadow_sigma_db"])


def drop_ues(
    scenario: FactoryScenario, n: int, seed: Union[int, Sequence[int], np.random.Generator]
) -> np.ndarray:
    """n uniform UE positions at UE height; deterministic for a fixed seed
    (an int or a sequence of ints, as ``np.random.default_rng`` takes).

    Draws are consumed user by user, so the first n positions of a larger
    drop with the same seed are identical (nested drops keep load sweeps
    monotone).  A Generator as ``seed`` is drawn from where it stands, so
    successive calls on one continue the same drop.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    rng = np.random.default_rng(seed)
    unit = rng.random((n, 2))
    pts = np.empty((n, 3))
    pts[:, 0] = unit[:, 0] * scenario.hall.length_m
    pts[:, 1] = unit[:, 1] * scenario.hall.width_m
    pts[:, 2] = scenario.ue_height_m
    return pts


def link_distances(
    gnb_positions: np.ndarray, ue_positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(N, G) 2D and 3D distances between UE and gNB position arrays."""
    gnbs = np.asarray(gnb_positions, dtype=float)
    ues = np.asarray(ue_positions, dtype=float)
    dx = ues[:, None, 0] - gnbs[None, :, 0]
    dy = ues[:, None, 1] - gnbs[None, :, 1]
    dz = ues[:, None, 2] - gnbs[None, :, 2]
    # in place: one (N, G) buffer each for d2d and d3d, and none besides
    d2d = np.multiply(dx, dx, out=dx)
    d2d += np.multiply(dy, dy, out=dy)
    d3d = np.multiply(dz, dz, out=dy)
    d3d += d2d
    return np.sqrt(d2d, out=d2d), np.sqrt(d3d, out=d3d)


@dataclass(frozen=True)
class MultipathChannel:
    """Specular ray set: per-ray amplitudes, propagation delays, carrier."""

    rays: tuple[tuple[complex, float], ...]
    omega0: float

    @property
    def q(self) -> int:
        return len(self.rays)

    def response(self) -> complex:
        """Coherent narrowband channel, the sum of A * exp(-j*w0*tau) terms."""
        return complex(
            sum(a * complex(math.cos(self.omega0 * t), -math.sin(self.omega0 * t)) for a, t in self.rays)
        )

    def gain(self) -> float:
        """|H|^2 of the coherent sum."""
        return abs(self.response()) ** 2

    def power_sum(self) -> float:
        """Non-coherent sum of per-ray powers."""
        return float(sum(abs(a) ** 2 for a, _ in self.rays))


def _image_lattice(max_reflections: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sign, shift, bounces) of every transmitter image with at most
    ``max_reflections`` bounces, in one fixed enumeration order.

    Per axis an image sits at sign * x + 2 * shift * L, with sign = (-1)^p
    and |shift - p| + |shift| bounces; the (Q, 3) sign and shift arrays and
    the (Q,) total bounce count depend only on ``max_reflections``.
    """
    if max_reflections < 0 or max_reflections > 3:
        raise DomainError("max_reflections must be within 0..3")
    r_range = range(-max_reflections, max_reflections + 1)
    p = np.repeat(np.array(list(itertools.product((0, 1), repeat=3))), len(r_range) ** 3, axis=0)
    r = np.tile(np.array(list(itertools.product(r_range, repeat=3))), (8, 1))
    bounces = (np.abs(r - p) + np.abs(r)).sum(axis=1)
    keep = bounces <= max_reflections
    return 1 - 2 * p[keep], r[keep], bounces[keep]


def synthesize_multipath(
    tx: Sequence[float],
    rx: Sequence[float],
    hall: Hall,
    max_reflections: int = 1,
    carrier_ghz: float = 30.0,
    wall_reflection_db: float = -3.0,
) -> MultipathChannel:
    """Image-method ray synthesis against the six hall surfaces.

    Images come from ``_image_lattice``; rays up to ``max_reflections``
    total bounces are kept, sorted by delay.  Each bounce multiplies the
    amplitude by the (negative-dB) reflection coefficient; metal-rich halls
    keep specular components dominant, so diffuse scattering is ignored.
    """
    signs, shifts, bounce_counts = _image_lattice(max_reflections)
    tx = tuple(float(v) for v in tx)
    rx = tuple(float(v) for v in rx)
    dims = (hall.length_m, hall.width_m, hall.height_m)
    lam = SPEED_OF_LIGHT / (carrier_ghz * 1e9)
    refl_amp = 10.0 ** (wall_reflection_db / 20.0)
    w0 = 2.0 * math.pi * carrier_ghz * 1e9

    rays = []
    for sign, shift, bounces in zip(signs.tolist(), shifts.tolist(), bounce_counts.tolist()):
        img = tuple(sign[i] * tx[i] + 2 * shift[i] * dims[i] for i in range(3))
        d = math.dist(img, rx)
        if d == 0.0:
            raise DegenerateGeometry("degenerate image at zero distance")
        tau = d / SPEED_OF_LIGHT
        mag = lam / (4.0 * math.pi * d) * refl_amp**bounces
        rays.append((complex(mag, 0.0), tau))
    rays.sort(key=lambda ray: ray[1])
    return MultipathChannel(rays=tuple(rays), omega0=w0)


def multipath_response(
    txs: np.ndarray,
    rxs: np.ndarray,
    hall: Hall,
    max_reflections: int = 1,
    carrier_ghz: float = 30.0,
    wall_reflection_db: float = -3.0,
) -> np.ndarray:
    """(T, P) coherent channels from (T, 3) transmitters to (P, 3) points.

    The array form of ``synthesize_multipath(...).response()``: each
    transmitter's images are built once and measured against every point
    in one broadcast.  Each entry's rays are summed in delay order, one ray
    at a time, so an entry depends only on its own (tx, rx) pair.
    """
    signs, shifts, bounces = _image_lattice(max_reflections)
    txs = np.asarray(txs, dtype=float)
    rxs = np.asarray(rxs, dtype=float)
    dims = np.array([hall.length_m, hall.width_m, hall.height_m])
    lam = SPEED_OF_LIGHT / (carrier_ghz * 1e9)
    refl_amp = 10.0 ** (wall_reflection_db / 20.0)
    w0 = 2.0 * math.pi * carrier_ghz * 1e9

    images = signs * txs[:, None, :] + 2 * shifts * dims  # (T, Q, 3)
    d = np.sqrt(np.sum((images[:, None, :, :] - rxs[None, :, None, :]) ** 2, axis=-1))  # (T, P, Q)
    if np.any(d == 0.0):
        raise DegenerateGeometry("degenerate image at zero distance")
    tau = d / SPEED_OF_LIGHT
    order = np.argsort(tau, axis=-1, kind="stable")
    d, tau = np.take_along_axis(d, order, axis=-1), np.take_along_axis(tau, order, axis=-1)
    mag = lam / (4.0 * math.pi * d) * (refl_amp**bounces)[order]
    real, imag = mag * np.cos(w0 * tau), mag * -np.sin(w0 * tau)
    out = np.zeros(d.shape[:2], dtype=complex)
    for q in range(d.shape[-1]):
        out.real += real[..., q]
        out.imag += imag[..., q]
    return out
