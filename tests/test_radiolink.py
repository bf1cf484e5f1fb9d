import math

import numpy as np
import pytest

from nrfactory.errors import DomainError, NoGnb
from nrfactory.propagation import FactoryScenario, Hall, default_gnb_layout, gnb_grid
from nrfactory.radiolink import (
    AasAntenna,
    BandConfig,
    DasAntenna,
    OmniAntenna,
    RadioConfig,
    SnapshotLinks,
    UlPowerControl,
    beamforming_gain,
    build_links,
    dl_sinr,
    dl_sinr_array,
    sinr_grid,
    sinr_to_se,
    thermal_noise_dbm,
    ul_sinr,
    ul_sinr_array,
    ul_tx_power,
)
from nrfactory.timing import TddPattern

HALL = Hall(120.0, 50.0, 10.0)


def scenario_with(positions, **kw) -> FactoryScenario:
    defaults = dict(hall=HALL, gnb_positions=tuple(positions), scenario_type="InF_DH", carrier_ghz=3.8)
    defaults.update(kw)
    return FactoryScenario(**defaults)


def tdd_band(**kw) -> BandConfig:
    defaults = dict(
        duplex="TDD", carrier_ghz=3.8, bandwidth_mhz=100.0, scs_khz=30,
        tdd_pattern=TddPattern.from_string("DDDSU"), tti_symbols=14,
    )
    defaults.update(kw)
    return BandConfig(**defaults)


def reference_point_sinr(point, scenario, band, radio, direction, activity) -> float:
    """One point alone, through the snapshot-link arrays of the capacity engine.

    UL adds one representative UE under each gNB and drops those attached
    to the point's own serving cell.
    """
    if direction == "DL":
        links = build_links(scenario, radio, np.asarray([point], dtype=float))
        return float(dl_sinr_array(links, radio, band, activity)[0])
    reps = [(g[0], g[1], scenario.ue_height_m) for g in scenario.gnb_positions]
    links = build_links(scenario, radio, np.asarray([point] + reps, dtype=float))
    keep = [0] + [1 + i for i in range(len(reps)) if links.serving[1 + i] != links.serving[0]]
    trimmed = SnapshotLinks(links.coupling_db[keep], links.serving[keep], links.is_das)
    return float(ul_sinr_array(trimmed, radio, band, activity)[0])


class TestUlTxPower:
    def test_full_compensation_hits_target(self):
        radio = RadioConfig(ul_pc=UlPowerControl(snr_target_db=10.0, alpha=1.0))
        bw = 20e6
        pl = 70.0  # small enough not to clamp
        p = ul_tx_power(pl, radio, bw)
        rx_snr = p - pl - (thermal_noise_dbm(bw) + radio.gnb_nf_db)
        assert rx_snr == pytest.approx(10.0, abs=1e-12)

    def test_fractional_slope(self):
        radio = RadioConfig(ul_pc=UlPowerControl(snr_target_db=10.0, alpha=0.8))
        bw = 20e6
        noise = thermal_noise_dbm(bw) + radio.gnb_nf_db
        snr_a = ul_tx_power(100.0, radio, bw) - 100.0 - noise
        snr_b = ul_tx_power(110.0, radio, bw) - 110.0 - noise
        assert snr_b - snr_a == pytest.approx(-2.0, abs=1e-12)

    def test_clamped_at_max(self):
        radio = RadioConfig()
        assert ul_tx_power(180.0, radio, 100e6) == 23.0

    def test_invalid_pathloss(self):
        with pytest.raises(DomainError):
            ul_tx_power(0.0, RadioConfig(), 20e6)


class TestBeamformingGain:
    def test_4x4x2_serving(self):
        panel = AasAntenna(rows=4, cols=4, polarizations=2, element_gain_dbi=5.0)
        assert beamforming_gain(panel, True) == pytest.approx(5 + 10 * math.log10(32), abs=1e-9)

    def test_single_element(self):
        panel = AasAntenna(rows=1, cols=1, polarizations=1, element_gain_dbi=5.0)
        assert beamforming_gain(panel, True) == pytest.approx(5.0, abs=1e-12)

    def test_interferer_suppression(self):
        panel = AasAntenna(suppression_db=20.0)
        assert beamforming_gain(panel, True) - beamforming_gain(panel, False) == pytest.approx(20.0)


class TestSinrToSe:
    def test_deep_fade_is_zero(self):
        assert sinr_to_se(-300.0, 1e-4) == pytest.approx(0.0, abs=1e-8)

    def test_unit_point(self):
        # at 0 dB with eta 1 and no backoff, log2(1+1) = 1
        assert sinr_to_se(0.0, 0.999999999, eta=1.0, backoff_db_per_decade=0.0) == pytest.approx(1.0, rel=1e-6)

    def test_stricter_bler_lowers_se(self):
        assert sinr_to_se(10.0, 1e-4) < sinr_to_se(10.0, 1e-2)

    def test_monotone_in_sinr(self):
        values = [sinr_to_se(s, 1e-3) for s in (-10.0, 0.0, 10.0, 20.0)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_cap(self):
        assert sinr_to_se(90.0, 1e-2, max_se=7.4) == 7.4

    def test_invalid_bler(self):
        with pytest.raises(DomainError):
            sinr_to_se(10.0, 0.0)


class TestDlSinr:
    def test_single_gnb_equals_snr(self):
        sc = scenario_with([(60.0, 25.0, 8.0)])
        band = tdd_band()
        radio = RadioConfig()
        for activity in (0.0, 0.5, 1.0):
            assert dl_sinr((50.0, 20.0, 1.5), sc, band, radio, activity) == pytest.approx(
                dl_sinr((50.0, 20.0, 1.5), sc, band, radio, 0.0)
            )

    def test_das_has_no_interference(self):
        sc = scenario_with(gnb_grid(2, 6, 8.0, HALL))
        band = tdd_band()
        radio = RadioConfig(antenna=DasAntenna(n_heads=12), gnb_nf_db=19.0)
        p = (30.0, 20.0, 1.5)
        assert dl_sinr(p, sc, band, radio, 1.0) == pytest.approx(dl_sinr(p, sc, band, radio, 0.0))

    def test_two_equidistant_cells_near_zero_db(self):
        sc = scenario_with([(50.0, 25.0, 8.0), (70.0, 25.0, 8.0)])
        band = tdd_band()
        radio = RadioConfig()
        got = dl_sinr((60.0, 25.0, 1.5), sc, band, radio, 1.0)
        # signal equals interference; noise pushes slightly below 0 dB
        assert got <= 0.0
        assert got == pytest.approx(0.0, abs=0.05)

    def test_interference_only_hurts(self):
        sc = scenario_with(gnb_grid(2, 6, 8.0, HALL))
        band = tdd_band()
        radio = RadioConfig()
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = (rng.uniform(0, 120), rng.uniform(0, 50), 1.5)
            snr = dl_sinr(p, sc, band, radio, 0.0)
            low = dl_sinr(p, sc, band, radio, 0.5)
            high = dl_sinr(p, sc, band, radio, 1.0)
            assert high <= low <= snr

    def test_zero_suppression_aas_matches_omni_of_equal_gain(self):
        sc = scenario_with(gnb_grid(1, 3, 8.0, HALL))
        band = tdd_band()
        panel = AasAntenna(rows=4, cols=4, polarizations=2, element_gain_dbi=5.0, suppression_db=0.0)
        total = 5.0 + 10 * math.log10(32)
        aas = RadioConfig(antenna=panel)
        omni = RadioConfig(antenna=OmniAntenna(gain_dbi=total))
        p = (40.0, 20.0, 1.5)
        assert dl_sinr(p, sc, band, aas, 1.0) == pytest.approx(dl_sinr(p, sc, band, omni, 1.0), abs=1e-12)

    def test_no_gnb(self):
        sc = scenario_with([])
        with pytest.raises(NoGnb):
            dl_sinr((10.0, 10.0, 1.5), sc, tdd_band(), RadioConfig(), 1.0)


class TestUlSinr:
    def test_das_single_cell_no_interference(self):
        sc = scenario_with(gnb_grid(2, 6, 8.0, HALL))
        band = tdd_band()
        radio = RadioConfig(antenna=DasAntenna(), gnb_nf_db=19.0)
        p = (30.0, 20.0, 1.5)
        assert ul_sinr(p, sc, band, radio, 1.0) == pytest.approx(ul_sinr(p, sc, band, radio, 0.0))

    def test_activity_monotone(self):
        sc = scenario_with(gnb_grid(2, 6, 8.0, HALL))
        band = tdd_band()
        radio = RadioConfig()
        p = (35.0, 20.0, 1.5)
        a = ul_sinr(p, sc, band, radio, 0.0)
        b = ul_sinr(p, sc, band, radio, 1.0)
        assert b <= a

    def test_aas_receive_suppression_helps(self):
        sc = scenario_with(gnb_grid(2, 6, 8.0, HALL))
        band = tdd_band()
        p = (35.0, 20.0, 1.5)
        weak = RadioConfig(antenna=AasAntenna(suppression_db=0.0))
        strong = RadioConfig(antenna=AasAntenna(suppression_db=20.0))
        assert ul_sinr(p, sc, band, strong, 1.0) >= ul_sinr(p, sc, band, weak, 1.0)


class TestSinrGrid:
    def test_dimensions(self):
        sc = scenario_with(gnb_grid(1, 3, 8.0, HALL))
        grid = sinr_grid(sc, tdd_band(), RadioConfig(), "DL", resolution_m=1.0)
        assert grid.grid.shape == (120, 50)

    def test_single_gnb_peak_at_site(self):
        sc = scenario_with([(60.0, 25.0, 8.0)])
        grid = sinr_grid(sc, tdd_band(), RadioConfig(), "DL", resolution_m=2.0)
        ix, iy = np.unravel_index(np.argmax(grid.grid), grid.grid.shape)
        x = (ix + 0.5) * 2.0
        y = (iy + 0.5) * 2.0
        assert math.hypot(x - 60.0, y - 25.0) <= 2 * 2.0

    def test_das_floor_at_least_omni_floor(self):
        sc12 = scenario_with(gnb_grid(2, 6, 8.0, HALL))
        sc3 = scenario_with(gnb_grid(1, 3, 8.0, HALL))
        band = tdd_band()
        das = sinr_grid(sc12, band, RadioConfig(antenna=DasAntenna(), gnb_nf_db=19.0), "DL", 5.0)
        omni = sinr_grid(sc3, band, RadioConfig(), "DL", 5.0)
        assert das.grid.min() >= omni.grid.min()

    @pytest.mark.parametrize("antenna", ["omni", "das", "aas"])
    @pytest.mark.parametrize("n_gnbs", [3, 12])
    @pytest.mark.parametrize("direction", ["DL", "UL"])
    @pytest.mark.parametrize("activity", [1.0, 0.5])
    def test_grid_equals_point_sinr(self, antenna, n_gnbs, direction, activity):
        radio = {
            "omni": RadioConfig(),
            "das": RadioConfig(antenna=DasAntenna(), gnb_nf_db=19.0),
            "aas": RadioConfig(antenna=AasAntenna()),
        }[antenna]
        sc = scenario_with(default_gnb_layout(n_gnbs, HALL))
        band = tdd_band()
        grid = sinr_grid(sc, band, radio, direction, resolution_m=10.0, activity=activity)
        point_sinr = dl_sinr if direction == "DL" else ul_sinr
        for x, y, value in grid.to_csv_rows():
            point = (x, y, sc.ue_height_m)
            assert value == point_sinr(point, sc, band, radio, activity), point
            assert value == reference_point_sinr(point, sc, band, radio, direction, activity), point

    def test_csv_rows(self):
        sc = scenario_with([(60.0, 25.0, 8.0)])
        grid = sinr_grid(sc, tdd_band(), RadioConfig(), "DL", resolution_m=10.0)
        rows = grid.to_csv_rows()
        assert len(rows) == 12 * 5
        assert rows[0][0] == 5.0 and rows[0][1] == 5.0
