import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nrfactory.errors import DegenerateGeometry, DomainError, OutOfRange
from nrfactory.propagation import (
    Clutter,
    FactoryScenario,
    Hall,
    default_gnb_layout,
    drop_ues,
    gnb_grid,
    link_distances,
    los_probability,
    multipath_response,
    pathloss,
    shadow_sigma_db,
    synthesize_multipath,
)

from oracles import inf_los_probability_oracle, inf_pathloss_oracle, link_distances_hypot_oracle


def make_scenario(**kw) -> FactoryScenario:
    defaults = dict(
        hall=Hall(120.0, 50.0, 10.0),
        gnb_positions=gnb_grid(2, 6, 8.0, Hall(120.0, 50.0, 10.0)),
        scenario_type="InF_SH",
    )
    defaults.update(kw)
    return FactoryScenario(**defaults)


class TestLosProbability:
    def test_zero_distance(self):
        assert los_probability(make_scenario(), 0.0) == 1.0

    def test_matches_hand_evaluated_formula(self):
        sc = make_scenario()
        got = los_probability(sc, 20.0, bs_height_m=8.0)
        expected = inf_los_probability_oracle(20.0, 0.60, 2.0, 6.0, 8.0, 1.5)
        assert got == pytest.approx(expected, abs=1e-15)

    def test_monotone_decay(self):
        sc = make_scenario()
        assert los_probability(sc, 10.0) >= los_probability(sc, 30.0)

    def test_clutter_below_ue_always_los(self):
        sc = make_scenario(clutter=Clutter(0.5, 1.0, 2.0))
        assert los_probability(sc, 100.0) == 1.0


class TestPathloss:
    def test_los_intercept(self):
        # logs vanish at 1 m / 1 GHz
        assert pathloss("InF_SH", True, 1.0, 1.0) == pytest.approx(31.84, abs=1e-12)

    def test_matches_hand_evaluation(self):
        got = pathloss("InF_SH", True, 20.0, 3.8)
        assert got == pytest.approx(inf_pathloss_oracle("InF_SH", True, 20.0, 3.8), abs=1e-12)
        got = pathloss("InF_DH", False, 35.0, 26.0)
        assert got == pytest.approx(inf_pathloss_oracle("InF_DH", False, 35.0, 26.0), abs=1e-12)

    def test_nlos_floor(self):
        for d in (1.0, 5.0, 50.0, 130.0):
            for fc in (2.1, 3.8, 26.0):
                for st in ("InF_SH", "InF_DH"):
                    assert pathloss(st, False, d, fc) >= pathloss(st, True, d, fc)

    def test_monotone_in_distance_and_frequency(self):
        pl = [pathloss("InF_DH", True, d, 3.8) for d in (1.0, 2.0, 10.0, 60.0)]
        assert all(a < b for a, b in zip(pl, pl[1:]))
        pl = [pathloss("InF_DH", True, 20.0, f) for f in (0.7, 2.1, 3.8, 26.0)]
        assert all(a < b for a, b in zip(pl, pl[1:]))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            pathloss("InF_SH", True, 0.5, 3.8)
        with pytest.raises(OutOfRange):
            pathloss("InF_SH", True, 10.0, 120.0)


class TestShadowing:
    def test_sigma_positive(self):
        for st in ("InF_SH", "InF_DH"):
            for los in (True, False):
                assert shadow_sigma_db(st, los) > 0

    def test_draws_zero_mean_with_configured_sigma(self):
        rng = np.random.default_rng(3)
        sigma = shadow_sigma_db("InF_DH", False)
        draws = rng.normal(0.0, sigma, size=200_000)
        assert abs(draws.mean()) < 4 * sigma / math.sqrt(len(draws))
        assert draws.std() == pytest.approx(sigma, rel=0.02)


class TestDropUes:
    def test_empty(self):
        assert drop_ues(make_scenario(), 0, seed=1).shape == (0, 3)

    def test_determinism(self):
        sc = make_scenario()
        a = drop_ues(sc, 100, seed=42)
        b = drop_ues(sc, 100, seed=42)
        assert np.array_equal(a, b)

    def test_nested_prefix(self):
        sc = make_scenario()
        small = drop_ues(sc, 50, seed=7)
        big = drop_ues(sc, 80, seed=7)
        assert np.array_equal(small, big[:50])

    def test_uniform_mean(self):
        sc = make_scenario()
        pts = drop_ues(sc, 10_000, seed=5)
        # mean of U(0, L) is L/2 with sd L/sqrt(12)/sqrt(n)
        for axis, extent in ((0, 120.0), (1, 50.0)):
            se = extent / math.sqrt(12) / math.sqrt(len(pts))
            assert abs(pts[:, axis].mean() - extent / 2) < 3 * se
        assert np.all(pts[:, 2] == sc.ue_height_m)

    def test_inside_hall(self):
        sc = make_scenario()
        pts = drop_ues(sc, 1000, seed=9)
        assert np.all(pts[:, 0] >= 0) and np.all(pts[:, 0] <= 120)
        assert np.all(pts[:, 1] >= 0) and np.all(pts[:, 1] <= 50)


class TestLayouts:
    def test_grid_counts(self):
        hall = Hall(120.0, 50.0, 10.0)
        assert len(gnb_grid(2, 6, 8.0, hall)) == 12
        assert len(default_gnb_layout(3, hall)) == 3
        assert len(default_gnb_layout(12, hall)) == 12

    def test_positions_inside_hall(self):
        hall = Hall(120.0, 50.0, 10.0)
        for pos in gnb_grid(2, 6, 8.0, hall):
            assert hall.contains(pos)

    def test_invalid_position_rejected(self):
        with pytest.raises(DomainError):
            make_scenario(gnb_positions=((200.0, 10.0, 8.0),))


class TestMultipath:
    hall = Hall(30.0, 15.0, 5.0)

    def test_los_only_friis_magnitude(self):
        tx, rx = (5.0, 5.0, 4.0), (20.0, 10.0, 1.5)
        ch = synthesize_multipath(tx, rx, self.hall, max_reflections=0, carrier_ghz=30.0)
        assert ch.q == 1
        d = math.dist(tx, rx)
        lam = 299_792_458.0 / 30e9
        assert abs(ch.rays[0][0]) == pytest.approx(lam / (4 * math.pi * d), rel=1e-12)
        assert ch.rays[0][1] == pytest.approx(d / 299_792_458.0, rel=1e-12)

    def test_first_order_ray_count(self):
        ch = synthesize_multipath((3.0, 4.0, 2.0), (10.0, 8.0, 1.5), self.hall, max_reflections=1)
        assert ch.q == 7

    def test_inverse_square_gain(self):
        base = (1.0, 7.5, 2.0)
        ch1 = synthesize_multipath(base, (11.0, 7.5, 2.0), self.hall, 0, carrier_ghz=30.0)
        ch2 = synthesize_multipath(base, (21.0, 7.5, 2.0), self.hall, 0, carrier_ghz=30.0)
        ratio_db = 10 * math.log10(ch1.gain() / ch2.gain())
        assert ratio_db == pytest.approx(20 * math.log10(2), abs=1e-9)

    def test_reciprocity(self):
        tx, rx = (4.0, 3.0, 4.0), (22.0, 11.0, 1.5)
        a = synthesize_multipath(tx, rx, self.hall, max_reflections=2)
        b = synthesize_multipath(rx, tx, self.hall, max_reflections=2)
        assert a.q == b.q
        for (amp_a, tau_a), (amp_b, tau_b) in zip(a.rays, b.rays):
            assert tau_a == pytest.approx(tau_b, rel=1e-12)
            assert abs(amp_a) == pytest.approx(abs(amp_b), rel=1e-12)

    def test_triangle_bound(self):
        ch = synthesize_multipath((3.0, 4.0, 2.0), (10.0, 8.0, 1.5), self.hall, 2)
        assert ch.gain() <= ch.power_sum() * ch.q * (1 + 1e-12)

    def test_reflection_loss_applied(self):
        tx, rx = (3.0, 4.0, 2.0), (10.0, 8.0, 1.5)
        strong = synthesize_multipath(tx, rx, self.hall, 1, wall_reflection_db=0.0)
        weak = synthesize_multipath(tx, rx, self.hall, 1, wall_reflection_db=-10.0)
        # LOS rays identical, reflected rays attenuated
        assert abs(strong.rays[0][0]) == pytest.approx(abs(weak.rays[0][0]), rel=1e-12)
        assert sum(abs(a) for a, _ in weak.rays) < sum(abs(a) for a, _ in strong.rays)

    def test_degenerate_geometry(self):
        with pytest.raises(DegenerateGeometry):
            synthesize_multipath((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), self.hall)

    def test_max_reflections_bound(self):
        with pytest.raises(DomainError):
            synthesize_multipath((1.0, 1.0, 1.0), (2.0, 2.0, 2.0), self.hall, max_reflections=4)


@st.composite
def halls_and_points(draw):
    """A hall with 1-3 transmitters and 1-6 receive points inside it."""
    dims = [draw(st.floats(2.0, 50.0)) for _ in range(3)]
    point = st.tuples(*(st.floats(0.0, 1.0).map(lambda u, d=d: u * d) for d in dims))
    return Hall(*dims), draw(st.lists(point, min_size=1, max_size=3)), draw(st.lists(point, min_size=1, max_size=6))


class TestMultipathResponse:
    """The (T, P) array form against the per-pair ray synthesizer."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(geometry=halls_and_points(), max_reflections=st.integers(0, 3))
    def test_matches_per_pair_rays(self, geometry, max_reflections):
        hall, txs, rxs = geometry
        assume(not set(txs) & set(rxs))
        response = multipath_response(txs, rxs, hall, max_reflections)
        assert response.shape == (len(txs), len(rxs))
        for i, tx in enumerate(txs):
            for j, rx in enumerate(rxs):
                ch = synthesize_multipath(tx, rx, hall, max_reflections)
                assert abs(response[i, j] - ch.response()) <= 1e-10 * sum(abs(a) for a, _ in ch.rays)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(geometry=halls_and_points(), keep=st.integers(1, 5), max_reflections=st.integers(0, 3))
    def test_appended_points_keep_existing_columns(self, geometry, keep, max_reflections):
        # each entry depends only on its own pair, so a table15 test point's
        # channel does not move with the user count
        hall, txs, rxs = geometry
        assume(keep < len(rxs) and not set(txs) & set(rxs))
        grown = multipath_response(txs, rxs, hall, max_reflections)
        assert np.array_equal(grown[:, :keep], multipath_response(txs, rxs[:keep], hall, max_reflections))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(geometry=halls_and_points(), max_reflections=st.integers(0, 3), bad=st.sampled_from([-1, 4, 7]))
    def test_errors_raised(self, geometry, max_reflections, bad):
        hall, txs, rxs = geometry
        with pytest.raises(DegenerateGeometry):
            multipath_response(txs, rxs + [txs[-1]], hall, max_reflections)
        with pytest.raises(DomainError):
            multipath_response(txs, rxs, hall, bad)


class TestLinkDistances:
    """The in-place distances against their ``hypot`` form."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n_gnbs=st.integers(1, 12),
        n_ues=st.integers(0, 200),
        scale=st.sampled_from([1e-3, 1.0, 120.0, 1e6]),
        seed=st.integers(0, 2**16),
    )
    def test_distances_within_ulps_of_hypot(self, n_gnbs, n_ues, scale, seed):
        rng = np.random.default_rng(seed)
        gnbs = rng.uniform(0.0, scale, (n_gnbs, 3))
        ues = rng.uniform(0.0, scale, (n_ues, 3))
        ues[: n_ues // 4, :2] = gnbs[0, :2]  # under a gNB: d2d is 0
        ues[: n_ues // 8, 2] = gnbs[0, 2]  # at a gNB: d3d is 0 too
        for got, want in zip(link_distances(gnbs, ues), link_distances_hypot_oracle(gnbs, ues)):
            assert got.shape == want.shape == (n_ues, n_gnbs)
            np.testing.assert_array_max_ulp(got, want, maxulp=4)
