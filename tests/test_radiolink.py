import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrfactory.errors import DomainError, NoGnb
from nrfactory.propagation import Clutter, FactoryScenario, Hall, default_gnb_layout, gnb_grid
from nrfactory.radiolink import (
    AasAntenna,
    BandConfig,
    DasAntenna,
    OmniAntenna,
    RadioConfig,
    SinrMap,
    SnapshotLinks,
    UlPowerControl,
    beamforming_gain,
    build_links,
    dl_sinr,
    dl_sinr_array,
    gnb_antenna_gain_db,
    link_powers,
    sampled_coupling_db,
    sinr_at_points,
    sinr_grid,
    sinr_to_se,
    sinr_to_se_linear,
    thermal_noise_dbm,
    ul_sinr,
    ul_sinr_array,
    ul_effective_coupling_db,
    ul_tx_power,
)
from nrfactory import radiolink
from nrfactory.timing import TddPattern
from oracles import (
    das_sinr_oracle,
    median_coupling_oracle,
    sampled_coupling_oracle,
    sinr_map_csv_oracle,
    sinr_to_se_db_oracle,
)

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
    trimmed = SnapshotLinks(links.coupling_db[keep], links.serving[keep])
    return float(ul_sinr_array(trimmed, radio, band, activity)[0])


def one_shot_dl_sinr(links, radio, band, activity):
    """Downlink SINR in dB computed in one pass, every power from the dB values."""
    noise = 10.0 ** ((thermal_noise_dbm(band.bandwidth_mhz * 1e6) + radio.ue_nf_db) / 10.0)
    coupling = links.coupling_db
    n_ue, n_gnb = coupling.shape
    act = np.broadcast_to(np.asarray(activity, dtype=float), (n_gnb,))
    serve_gain = gnb_antenna_gain_db(radio.antenna, True)
    interf_gain = gnb_antenna_gain_db(radio.antenna, False)
    rx_serve = 10.0 ** ((radio.gnb_tx_dbm + serve_gain + radio.ue_gain_dbi - coupling) / 10.0)
    rx_interf = 10.0 ** ((radio.gnb_tx_dbm + interf_gain + radio.ue_gain_dbi - coupling) / 10.0)
    idx = np.arange(n_ue)
    signal = rx_serve[idx, links.serving]
    interference = rx_interf @ act - rx_interf[idx, links.serving] * act[links.serving]
    return 10.0 * np.log10(signal / (interference + noise))


def one_shot_ul_sinr(links, radio, band, activity, weights=None):
    """Uplink SINR in dB computed in one pass, with per-UE scalar power control."""
    bw = band.bandwidth_mhz * 1e6
    noise = 10.0 ** ((thermal_noise_dbm(bw) + radio.gnb_nf_db) / 10.0)
    coupling = links.coupling_db
    n_ue, n_gnb = coupling.shape
    eff_serv = ul_effective_coupling_db(links, radio)
    p_tx = np.array([ul_tx_power(max(float(c), 1e-6), radio, bw) for c in eff_serv])
    signal = 10.0 ** ((p_tx - eff_serv) / 10.0)
    act = np.broadcast_to(np.asarray(activity, dtype=float), (n_gnb,))
    weights = np.ones(n_ue) if weights is None else np.asarray(weights, dtype=float)
    cell_w = np.zeros(n_gnb)
    np.add.at(cell_w, links.serving, weights)
    own_cell_w = cell_w[links.serving]
    scale = np.where(own_cell_w > 0, act[links.serving] / np.maximum(own_cell_w, 1e-300), 0.0)
    w = weights * scale
    gain_interf = gnb_antenna_gain_db(radio.antenna, False)
    rx_at_cells = 10.0 ** ((p_tx[:, None] - (coupling - gain_interf - radio.ue_gain_dbi)) / 10.0)
    weighted = rx_at_cells * w[:, None]
    own_cell = np.zeros(n_gnb)
    np.add.at(own_cell, links.serving, weighted[np.arange(n_ue), links.serving])
    interference = (weighted.sum(axis=0) - own_cell)[links.serving]
    return 10.0 * np.log10(signal / (interference + noise))


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

    @settings(derandomize=True, deadline=None)
    @given(
        st.lists(st.floats(-50.0, 250.0), min_size=1, max_size=40),
        st.floats(0.0, 1.0),
        st.floats(-20.0, 40.0),
        st.floats(-10.0, 33.0),
        st.sampled_from([5.0, 20.0, 100.0, 400.0]),
    )
    def test_array_power_equals_scalar(self, coupling, alpha, snr_target, p_max, bw_mhz):
        # includes couplings at or below 0 dB (floored at 1e-6) and P_max clipping
        radio = RadioConfig(ue_tx_max_dbm=p_max, ul_pc=UlPowerControl(snr_target_db=snr_target, alpha=alpha))
        band = tdd_band(bandwidth_mhz=bw_mhz)
        got = radiolink._ul_tx_dbm(np.array(coupling), radio, band)
        want = [ul_tx_power(max(c, 1e-6), radio, bw_mhz * 1e6) for c in coupling]
        assert got.tolist() == want


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

    @settings(derandomize=True, deadline=None)
    @given(
        st.lists(st.floats(-60.0, 90.0), min_size=1, max_size=60),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(0.1, 20.0),
    )
    def test_array_matches_scalar_formula(self, sinrs, bler, max_se):
        # numpy's log2/power may differ from math's by an ulp; rounding
        # 1 + 10**(x/10) to a double bounds both formulas' accuracy below SE 1
        got = sinr_to_se(np.array(sinrs), bler, max_se=max_se)
        backoff = -math.log10(bler)
        want = np.array([min(max_se, 0.75 * math.log2(1.0 + 10.0 ** ((s - backoff) / 10.0))) for s in sinrs])
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.maximum(want, 1.0)))
        assert np.all(got <= max_se)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.lists(st.floats(-20.0, 80.0), min_size=1, max_size=60),
        st.floats(1e-9, 1.0, exclude_max=True),
        st.floats(0.1, 20.0),
        st.floats(0.0, 1.0),
    )
    def test_linear_equals_db_form(self, sinrs, bler, max_se, backoff_db_per_decade):
        # from -20 dB up and with at most 9 dB backoff, rounding 1 + sinr keeps the SE's relative error below 1e-12
        sinr_db = np.array(sinrs)
        want = sinr_to_se_db_oracle(sinr_db, bler, max_se, backoff_db_per_decade=backoff_db_per_decade)
        for got in (
            sinr_to_se_linear(10.0 ** (sinr_db / 10.0), bler, max_se, backoff_db_per_decade=backoff_db_per_decade),
            sinr_to_se(sinr_db, bler, max_se, backoff_db_per_decade=backoff_db_per_decade),
        ):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


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
        radio = RadioConfig(antenna=DasAntenna(), gnb_nf_db=19.0)
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


class TestLinkPowers:
    @pytest.mark.parametrize("antenna", ["omni", "das", "aas"])
    @pytest.mark.parametrize("n_gnbs", [3, 12])
    def test_split_equals_one_shot(self, antenna, n_gnbs):
        radio = {
            "omni": RadioConfig(),
            "das": RadioConfig(antenna=DasAntenna(), gnb_nf_db=19.0),
            "aas": RadioConfig(antenna=AasAntenna()),
        }[antenna]
        sc = scenario_with(default_gnb_layout(n_gnbs, HALL))
        band = tdd_band()
        rng = np.random.default_rng(7)
        ues = np.column_stack([rng.uniform(0, 120, 300), rng.uniform(0, 50, 300), np.full(300, 1.5)])
        links = build_links(sc, radio, ues, np.random.default_rng(1), np.random.default_rng(2))
        dl_powers = link_powers(links, radio, band, "DL")
        ul_powers = link_powers(links, radio, band, "UL")
        skewed = rng.uniform(0.01, 5.0, 300)
        for activity in (1.0, 0.3, rng.uniform(0.0, 1.0, links.n_cells)):
            want_dl = one_shot_dl_sinr(links, radio, band, activity)
            assert dl_sinr_array(links, radio, band, activity).tolist() == want_dl.tolist()
            assert dl_sinr_array(links, radio, band, activity, powers=dl_powers).tolist() == want_dl.tolist()
            for weights in (None, skewed):
                want_ul = one_shot_ul_sinr(links, radio, band, activity, weights)
                got = ul_sinr_array(links, radio, band, activity, weights)
                assert got.tolist() == want_ul.tolist()
                got = ul_sinr_array(links, radio, band, activity, weights, powers=ul_powers)
                assert got.tolist() == want_ul.tolist()


def das_oracle_radio(radio: RadioConfig, band: BandConfig, direction: str) -> dict:
    """The plain numbers ``das_sinr_oracle`` reads, from literal noise and power-control formulas."""
    noise_dbm = -174.0 + 10.0 * math.log10(band.bandwidth_mhz * 1e6)
    return dict(
        gnb_tx=radio.gnb_tx_dbm,
        head_gain=radio.antenna.head_gain_dbi,
        ue_gain=radio.ue_gain_dbi,
        noise_dbm=noise_dbm + (radio.ue_nf_db if direction == "DL" else radio.gnb_nf_db),
        ue_tx_max=radio.ue_tx_max_dbm,
        p0_dbm=radio.ul_pc.snr_target_db + noise_dbm + radio.gnb_nf_db,
        alpha=radio.ul_pc.alpha,
    )


def assert_same_sinr(got_db, want_db):
    """SINRs equal to a relative 1e-12 as linear ratios (a relative bound in dB breaks near 0 dB)."""
    np.testing.assert_allclose(10.0 ** (np.asarray(got_db) / 10.0), 10.0 ** (np.asarray(want_db) / 10.0), rtol=1e-12)


class TestDasOracle:
    """DAS links are one merged cell; its SINRs still follow the per-head formula."""

    RADIO = RadioConfig(antenna=DasAntenna(head_gain_dbi=2.0), ue_gain_dbi=1.0, gnb_nf_db=19.0)

    @pytest.mark.parametrize("n_heads", [3, 12])
    def test_arrays_match_per_head_formula(self, n_heads):
        radio, band = self.RADIO, tdd_band()
        sc = scenario_with(default_gnb_layout(n_heads, HALL))
        rng = np.random.default_rng(11)
        ues = np.column_stack([rng.uniform(0, 120, 300), rng.uniform(0, 50, 300), np.full(300, 1.5)])
        links = build_links(sc, radio, ues, np.random.default_rng(1), np.random.default_rng(2))
        heads = sampled_coupling_db(sc, ues, np.random.default_rng(1), np.random.default_rng(2)).tolist()
        want_dl = das_sinr_oracle(heads, "DL", das_oracle_radio(radio, band, "DL"))
        want_ul = das_sinr_oracle(heads, "UL", das_oracle_radio(radio, band, "UL"))
        for activity in (1.0, 0.3, rng.uniform(0.0, 1.0, 1)):
            assert_same_sinr(dl_sinr_array(links, radio, band, activity), want_dl)
            for weights in (None, rng.uniform(0.01, 5.0, 300)):
                assert_same_sinr(ul_sinr_array(links, radio, band, activity, weights), want_ul)

    @pytest.mark.parametrize("n_heads", [3, 12])
    @pytest.mark.parametrize("direction", ["DL", "UL"])
    def test_points_match_per_head_formula(self, n_heads, direction):
        radio, band = self.RADIO, tdd_band()
        sc = scenario_with(default_gnb_layout(n_heads, HALL))
        rng = np.random.default_rng(12)
        points = np.column_stack([rng.uniform(0, 120, 200), rng.uniform(0, 50, 200), np.full(200, 1.5)])
        heads = radiolink._median_coupling_db(sc, points).tolist()
        want = das_sinr_oracle(heads, direction, das_oracle_radio(radio, band, direction))
        assert_same_sinr(sinr_at_points(points, sc, band, radio, direction, 0.8), want)


class TestCouplingBroadcast:
    """LOS and pathloss of all gNBs in one (N, G) broadcast equal the per-gNB column loop bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        heights=st.lists(st.sampled_from([0.5, 1.5, 2.0, 6.0, 8.0, 9.5]), min_size=1, max_size=12),
        clutter_height=st.sampled_from([1.0, 1.5, 3.0, 6.0]),
        scenario_type=st.sampled_from(["InF_DH", "InF_SH"]),
        n_ues=st.integers(0, 300),
        seed=st.integers(0, 2**16),
    )
    # clutter at or below the 1.5 m UE height: k = inf, so every link is LOS
    @example(heights=[8.0, 2.0, 9.5], clutter_height=1.0, scenario_type="InF_DH", n_ues=50, seed=1)
    # gNBs at or below the UE height next to higher ones: height_factor <= 0 takes k = base
    @example(heights=[0.5, 8.0, 1.5, 6.0], clutter_height=6.0, scenario_type="InF_SH", n_ues=50, seed=2)
    def test_equals_column_loop(self, heights, clutter_height, scenario_type, n_ues, seed):
        rng = np.random.default_rng(seed)
        gnbs = [(float(rng.uniform(0, 120)), float(rng.uniform(0, 50)), h) for h in heights]
        sc = scenario_with(gnbs, clutter=Clutter(0.6, clutter_height, 2.0), scenario_type=scenario_type)
        ues = np.column_stack([rng.uniform(0, 120, n_ues), rng.uniform(0, 50, n_ues), np.full(n_ues, 1.5)])
        pairs = [
            (radiolink._median_coupling_db(sc, ues), median_coupling_oracle(sc, ues)),
            (
                sampled_coupling_db(sc, ues, np.random.default_rng([seed, 1]), np.random.default_rng([seed, 2])),
                sampled_coupling_oracle(sc, ues, np.random.default_rng([seed, 1]), np.random.default_rng([seed, 2])),
            ),
        ]
        for got, want in pairs:
            assert got.shape == want.shape == (n_ues, len(heights))
            assert got.tobytes() == want.tobytes()


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
        for x, column in zip(grid.x_m.tolist(), grid.grid.tolist()):
            for y, value in zip(grid.y_m.tolist(), column):
                point = (x, y, sc.ue_height_m)
                assert value == point_sinr(point, sc, band, radio, activity), point
                assert value == reference_point_sinr(point, sc, band, radio, direction, activity), point

    def test_csv_rows(self):
        sc = scenario_with([(60.0, 25.0, 8.0)])
        grid = sinr_grid(sc, tdd_band(), RadioConfig(), "DL", resolution_m=10.0)
        rows = list(csv.reader(grid.csv_text().splitlines()))
        assert rows[0] == ["x_m", "y_m", "sinr_db"]
        assert len(rows) == 1 + 12 * 5
        assert rows[1][:2] == ["5.0", "5.0"] and rows[-1][:2] == ["115.0", "45.0"]

    def test_axes_clamped_to_the_hall(self):
        grid = sinr_grid(scenario_with([(60.0, 25.0, 8.0)]), tdd_band(), RadioConfig(), "DL", resolution_m=7.0)
        assert grid.x_m.tolist() == [3.5 + 7.0 * i for i in range(17)] + [120.0]
        assert grid.y_m.tolist() == [3.5 + 7.0 * i for i in range(7)] + [50.0]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        resolution=st.floats(1e-6, 1e6),
        grid=st.integers(1, 8).flatmap(
            lambda ny: st.lists(
                st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=ny, max_size=ny),
                min_size=1, max_size=8,
            )
        ),
    )
    @example(resolution=1.0, grid=[[-0.0, 5e-5, 1e-7, 1e12], [1e17, math.inf, -math.inf, math.nan]])
    @example(resolution=3e-5, grid=[[-5e-7], [4.9999995e-7], [1e16], [-1e16 + 2.0]])
    def test_csv_text_equals_csv_writer(self, resolution, grid):
        # repr switches to exponent notation below 1e-4 and from 1e16 up
        values = np.array(grid, dtype=float)
        nx, ny = values.shape
        sinr_map = SinrMap(
            grid=values,
            x_m=(np.arange(nx) + 0.5) * resolution,
            y_m=(np.arange(ny) + 0.5) * resolution,
            direction="DL",
        )
        assert sinr_map.csv_text() == sinr_map_csv_oracle(values, resolution)
