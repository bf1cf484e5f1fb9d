import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nrfactory import capacity
from nrfactory.capacity import (
    CapacityResult,
    ResourceModel,
    direction_fraction,
    evaluate_load,
    expected_transmissions,
    link_attempts,
    max_served_users,
    rbs_per_slot,
    required_user_resources,
    resources_per_second,
    se_per_cell,
    RB_SYMBOL_HZ_S,
)
from nrfactory.errors import DomainError, SolverFailure
from nrfactory.propagation import FactoryScenario, Hall, drop_ues, gnb_grid
from nrfactory.radiolink import (
    AasAntenna, BandConfig, DasAntenna, LinkPowers, OmniAntenna, RadioConfig, build_links, link_powers,
)
from nrfactory.timing import SchedulingConfig, TddPattern
from nrfactory.usecases import UseCaseSpec, find_use_case

from oracles import load_oracle, search_oracle

HALL = Hall(120.0, 50.0, 10.0)

# Independent copy of the 3GPP transmission-bandwidth table rows the bands use
RB_ORACLE = {(30, 20): 51, (30, 100): 273, (120, 400): 264, (15, 20): 106, (60, 100): 135}


def band(pattern="DDDSU", duplex="TDD", bw=100.0, scs=30, tti=14, fc=3.8):
    return BandConfig(
        duplex=duplex,
        carrier_ghz=fc,
        bandwidth_mhz=bw,
        scs_khz=scs,
        tdd_pattern=TddPattern.from_string(pattern) if duplex == "TDD" else None,
        tti_symbols=tti,
    )


def scenario(n=12, st="InF_DH", fc=3.8):
    return FactoryScenario(
        hall=HALL,
        gnb_positions=gnb_grid(2, 6, 8.0, HALL) if n == 12 else gnb_grid(1, 3, 8.0, HALL),
        scenario_type=st,
        carrier_ghz=fc,
    )


class TestResourceAccounting:
    def test_rb_table_against_standard(self):
        for (scs, bw), expected in RB_ORACLE.items():
            b = band(duplex="FDD", bw=bw, scs=scs) if scs != 120 else band(bw=bw, scs=scs)
            assert rbs_per_slot(b) == expected

    def test_missing_entry(self):
        with pytest.raises(DomainError):
            rbs_per_slot(band(bw=33.0))

    def test_rb_symbol_product_is_scs_independent(self):
        # 12 subcarriers x scs Hz x (slot/14) s == 90/7 Hz*s for every scs
        assert RB_SYMBOL_HZ_S == pytest.approx(90.0 / 7.0, rel=1e-12)

    def test_fdd_direction_fraction(self):
        assert direction_fraction(None, "DL") == 1.0
        assert direction_fraction(None, "UL") == 1.0

    def test_dudu_fraction(self):
        p = TddPattern.from_string("DUDU")
        assert direction_fraction(p, "DL") == 0.5
        assert direction_fraction(p, "UL") == 0.5

    def test_all_d_fraction(self):
        p = TddPattern.from_string("DDDD")
        assert direction_fraction(p, "DL") == 1.0
        assert direction_fraction(p, "UL") == 0.0

    def test_dddsu_fractions_sum_below_one(self):
        p = TddPattern.from_string("DDDSU")
        dl = direction_fraction(p, "DL")
        ul = direction_fraction(p, "UL")
        assert dl == pytest.approx(52 / 70)
        assert ul == pytest.approx(16 / 70)
        assert dl + ul < 1.0  # guard symbols

    def test_resources_per_second(self):
        b = band("DUDU")
        model = ResourceModel.from_band(b)
        got = resources_per_second(b, b.tdd_pattern, "DL", model)
        # 2000 slots/s * 14 symbols * 0.5 DL share * 273 RB * 0.9
        assert got == pytest.approx(2000 * 14 * 0.5 * 273 * 0.9)


class TestRequiredResources:
    def test_direct_division(self):
        uc = UseCaseSpec(
            name="t", message_size_bytes=1000, cycle_time_ms=10.0,
            latency_bound_ms=10.0, network_reliability=0.9999,
            survival_time_cycles=0, csa_nines=(4, 4),
        )
        # pick a SINR where link adaptation yields se, then invert by hand
        from nrfactory.radiolink import sinr_to_se
        from nrfactory.usecases import per_attempt_bler_target

        attempts = 1
        se = sinr_to_se(20.0, per_attempt_bler_target(0.9999, attempts))
        got = required_user_resources(uc, 20.0, attempts)
        eps = per_attempt_bler_target(0.9999, attempts)
        expected = 8000.0 / se * (1.0) * 100.0 / RB_SYMBOL_HZ_S
        assert got == pytest.approx(expected, rel=1e-9)

    def test_halving_cycle_doubles_demand(self):
        kw = dict(
            message_size_bytes=500, latency_bound_ms=10.0,
            network_reliability=0.999, survival_time_cycles=0, csa_nines=(3, 3),
        )
        fast = UseCaseSpec(name="f", cycle_time_ms=5.0, **kw)
        slow = UseCaseSpec(name="s", cycle_time_ms=10.0, **kw)
        assert required_user_resources(fast, 15.0, 1) == pytest.approx(
            2 * required_user_resources(slow, 15.0, 1)
        )

    def test_expected_transmissions(self):
        assert expected_transmissions(0.01, 2) == pytest.approx(1.01)
        assert expected_transmissions(0.1, 1) == 1.0
        assert expected_transmissions(0.5, 3) == pytest.approx(1.75)

    def test_retry_overhead_ratio(self):
        uc = UseCaseSpec(
            name="t", message_size_bytes=500, cycle_time_ms=10.0,
            latency_bound_ms=10.0, network_reliability=0.99,
            survival_time_cycles=0, csa_nines=(2, 2),
        )
        from nrfactory.radiolink import sinr_to_se
        from nrfactory.usecases import per_attempt_bler_target

        one = required_user_resources(uc, 18.0, 1)
        two = required_user_resources(uc, 18.0, 2)
        eps2 = per_attempt_bler_target(0.99, 2)
        se1 = sinr_to_se(18.0, per_attempt_bler_target(0.99, 1))
        se2 = sinr_to_se(18.0, eps2)
        assert two / one == pytest.approx((1 + eps2) * se1 / se2, rel=1e-9)

    def test_attempt_validation(self):
        uc = find_use_case("UC1")
        with pytest.raises(DomainError):
            required_user_resources(uc, 10.0, 0)


def oracle_radio(radio: RadioConfig, direction: str) -> dict:
    """The radio's numbers as ``load_oracle`` takes them, on a 100 MHz carrier."""
    ant = radio.antenna
    if isinstance(ant, AasAntenna):
        serve = ant.element_gain_dbi + 10.0 * math.log10(ant.rows * ant.cols * ant.polarizations)
        interf = serve - ant.suppression_db
    else:
        serve = interf = ant.gain_dbi
    thermal = -174.0 + 10.0 * math.log10(100e6)
    return {
        "gnb_tx": radio.gnb_tx_dbm, "ue_tx_max": radio.ue_tx_max_dbm, "ue_gain": radio.ue_gain_dbi,
        "gain_serve": serve, "gain_interf": interf,
        "noise_dbm": thermal + (radio.ue_nf_db if direction == "DL" else radio.gnb_nf_db),
        "p0_dbm": radio.ul_pc.snr_target_db + thermal + radio.gnb_nf_db, "alpha": radio.ul_pc.alpha,
    }


class TestLoadCertificate:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n_cells=st.sampled_from([2, 3]),
        n_ues=st.integers(1, 10),
        seed=st.integers(0, 2**16),
        aas=st.booleans(),
        direction=st.sampled_from(["DL", "UL"]),
        attempts=st.integers(1, 3),
        load=st.floats(0.2, 1.2),
    )
    def test_decision_matches_oracle(self, n_cells, n_ues, seed, aas, direction, attempts, load):
        sc = FactoryScenario(
            hall=HALL, gnb_positions=gnb_grid(1, n_cells, 8.0, HALL), scenario_type="InF_DH", carrier_ghz=3.8
        )
        radio = RadioConfig(antenna=AasAntenna() if aas else OmniAntenna())
        rng_los, rng_shadow = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 2])
        links = build_links(sc, radio, drop_ues(sc, n_ues, [seed, 0]), rng_los, rng_shadow)
        uc = find_use_case("UC1")
        bler = (1.0 - uc.network_reliability) ** (1.0 / attempts)
        args = (links.coupling_db.tolist(), direction, oracle_radio(radio, direction), bler, attempts,
                uc.message_size_bytes, uc.cycle_time_ms)
        # a supply this large holds the fixed point at zero interferer load; scale
        # the supply so the busiest cell is at ``load`` there
        supply = load_oracle(*args, supply=1e30)[1] * 1e30 / load
        expected = load_oracle(*args, supply=supply)
        assume(expected is not None and abs(expected[1] - 1.0) > 1e-6)
        b = band("DUDU")
        got = capacity._drop_feasible(links, b, radio, uc, direction, attempts, supply)
        assert got == expected[0]

    @pytest.mark.parametrize(
        "direction, n_users, seed, search",
        [
            pytest.param("DL", 121, 1, False, id="DL-121-1"),
            pytest.param("DL", 121, 2, False, id="DL-121-2"),
            pytest.param("UL", 14, 3, False, id="UL-14-3"),
            pytest.param("DL", None, 1, True, id="search-DL-1"),
            pytest.param("DL", None, 4, True, id="search-DL-4"),
            pytest.param("UL", None, 3, True, id="search-UL-3"),
        ],
    )
    def test_iterates_are_monotone(self, monkeypatch, direction, n_users, seed, search):
        """Upper iterates never rise and lower iterates never fall, also warm-started within a search."""
        states, sequences = [], []
        real_feasible = capacity._drop_feasible
        real_dl, real_ul = capacity.dl_sinr_linear, capacity.ul_sinr_linear

        def feasible(*args, **kwargs):
            states.clear()
            result = real_feasible(*args, **kwargs)
            sequences.append((states[0::2], states[1::2], kwargs.get("warm")))
            return result

        def dl(links, radio, b, activity, powers=None):
            states.append(np.array(activity))
            return real_dl(links, radio, b, activity, powers=powers)

        def ul(links, radio, b, activity, interferer_weights=None, powers=None):
            states.append(np.array(interferer_weights))
            return real_ul(links, radio, b, activity, interferer_weights=interferer_weights, powers=powers)

        monkeypatch.setattr(capacity, "_drop_feasible", feasible)
        monkeypatch.setattr(capacity, "dl_sinr_linear", dl)
        monkeypatch.setattr(capacity, "ul_sinr_linear", ul)
        radio = RadioConfig(gnb_nf_db=5.0, ue_nf_db=9.0)
        sc, b, uc = scenario(3), band("DUDU"), find_use_case("UC1")
        if search:
            max_served_users(sc, b, radio, uc, n_drops=3, seed=seed)
            sequences = [(upper, lower) for upper, lower, warm in sequences if (warm is not None) == (direction == "DL")]
            if direction == "DL":  # warm starts began some decisions away from full and zero load
                assert any(np.any(upper[0] < 1.0) for upper, _ in sequences)
                assert any(np.any(lower[0] > 0.0) for _, lower in sequences if lower)
        else:
            evaluate_load(sc, b, radio, uc, n_users, n_drops=3, seed=seed, directions=(direction,))
            sequences = [(upper, lower) for upper, lower, _ in sequences]
        assert max(len(upper) for upper, _ in sequences) >= 3
        for upper, lower in sequences:
            for a, b in zip(upper, upper[1:]):
                assert np.all(b <= a + 1e-12)
            for a, b in zip(lower, lower[1:]):
                assert np.all(b >= a - 1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        antenna=st.sampled_from([OmniAntenna(), AasAntenna(), DasAntenna()]),
        pattern=st.sampled_from(["DUDU", "DDDSU"]),
        use_case=st.sampled_from(["UC1", "UC7"]),
        seed=st.integers(0, 2**16),
        offsets=st.lists(st.integers(-30, 30), min_size=1, max_size=12),
    )
    def test_warm_start_decides_as_cold(self, antenna, pattern, use_case, seed, offsets):
        """Over any sequence of user counts on one drop, a warm-started DL decision equals a cold one.

        The counts lie around the drop's capacity, where a start on the wrong
        side of the fixed point would flip a decision.
        """
        sc, b, uc = scenario(3), band(pattern), find_use_case(use_case)
        radio = RadioConfig(antenna=antenna, gnb_nf_db=5.0, ue_nf_db=9.0)
        attempts = link_attempts(b, capacity.default_scheduling(b), "DL", uc.latency_bound_ms).attempts
        supply = resources_per_second(b, b.tdd_pattern, "DL", ResourceModel.from_band(b))
        drop, warm = capacity._Drop(sc, radio, seed, 0), capacity._WarmStart()

        def cold(n):
            return capacity._drop_feasible(drop.links(n), b, radio, uc, "DL", attempts, supply, drop.powers(n, b, "DL"))

        cap = search_oracle(cold)
        for n in (max(cap + offset, 0) for offset in offsets):
            links, powers = drop.links(n), drop.powers(n, b, "DL")
            assert capacity._drop_feasible(links, b, radio, uc, "DL", attempts, supply, powers, warm=warm) == cold(n)

    def test_undecided_drop_is_a_solver_failure(self, monkeypatch):
        args = (scenario(3), band("DUDU"), RadioConfig(gnb_nf_db=5.0, ue_nf_db=9.0), find_use_case("UC1"), 111)
        kwargs = dict(n_drops=3, seed=1, directions=("DL",))
        assert evaluate_load(*args, **kwargs).feasible
        monkeypatch.setattr(capacity, "_CERTIFICATE_ROUNDS", 1)
        with pytest.raises(SolverFailure):
            evaluate_load(*args, **kwargs)


class TestLinkAttempts:
    def test_dddsu_midband_ul_single_attempt_at_5ms(self):
        # the 4:1 pattern leaves room for exactly one UL transmission in 5 ms
        b = band("DDDSU")
        sched = SchedulingConfig(tti_symbols=14, ul_access="configured_grant")
        fit = link_attempts(b, sched, "UL", 5.0)
        assert fit.initial_fits
        assert fit.attempts == 1

    def test_high_band_allows_more_attempts(self):
        mid = band("DUDU", scs=30, bw=100.0)
        high = band("DUDU", scs=120, bw=400.0, fc=26.0)
        sched_mid = SchedulingConfig(tti_symbols=14)
        fit_mid = link_attempts(mid, sched_mid, "UL", 5.0)
        fit_high = link_attempts(high, sched_mid, "UL", 5.0)
        assert fit_high.attempts > fit_mid.attempts

    def test_fdd_attempts(self):
        b = band(duplex="FDD", bw=20.0)
        sched = SchedulingConfig(tti_symbols=14)
        assert link_attempts(b, sched, "DL", 5.0).attempts >= 2
        assert link_attempts(b, sched, "UL", 5.0).initial_fits


class TestEvaluateLoad:
    def test_zero_users_feasible(self):
        res = evaluate_load(scenario(), band(), RadioConfig(), find_use_case("UC1"), 0, n_drops=2, seed=1)
        assert res.feasible

    def test_single_user_100mhz_feasible(self):
        res = evaluate_load(scenario(), band("DUDU"), RadioConfig(), find_use_case("UC1"), 1, n_drops=3, seed=1)
        assert res.feasible

    def test_feasibility_monotone_in_users(self):
        sc = scenario(3)
        b = band("DUDU")
        radio = RadioConfig()
        uc = find_use_case("UC1")
        flags = [
            evaluate_load(sc, b, radio, uc, n, n_drops=3, seed=1).feasible
            for n in (0, 1, 4, 16, 64, 256, 1024, 4096)
        ]
        # once infeasible, stays infeasible
        seen_false = False
        for f in flags:
            if seen_false:
                assert not f
            seen_false = seen_false or not f
        assert flags[0]
        assert not flags[-1]

    def test_impossible_latency_bound(self):
        uc = UseCaseSpec(
            name="too-fast", message_size_bytes=100, cycle_time_ms=1.0,
            latency_bound_ms=0.05, network_reliability=0.999,
            survival_time_cycles=0, csa_nines=(3, 3),
        )
        res = evaluate_load(scenario(), band(), RadioConfig(), uc, 5, n_drops=2, seed=1)
        assert not res.feasible

    def test_deterministic_across_workers(self):
        sc = scenario(3)
        b = band("DUDU")
        uc = find_use_case("UC1")
        a = evaluate_load(sc, b, RadioConfig(), uc, 50, n_drops=4, seed=9, workers=1)
        c = evaluate_load(sc, b, RadioConfig(), uc, 50, n_drops=4, seed=9, workers=2)
        assert a == c

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_infeasible_drop_decides(self, monkeypatch, workers):
        """Drop 0 is infeasible, so the SolverFailure of drop 1 never surfaces."""
        sc, b, radio, uc = scenario(3), band("DUDU"), RadioConfig(), find_use_case("UC1")
        first = capacity._Drop(sc, radio, 1, 0).links(5)

        def feasible(links, *args):
            if np.array_equal(links.coupling_db, first.coupling_db):
                return False
            raise SolverFailure("a later drop")

        monkeypatch.setattr(capacity, "_drop_feasible", feasible)
        res = evaluate_load(sc, b, radio, uc, 5, n_drops=3, seed=1, directions=("DL",), workers=workers)
        assert res.feasible is False


class TestCapacityResult:
    def test_combined_is_min(self):
        with pytest.raises(DomainError):
            CapacityResult(10, 5, 10, 1.0, 1.0, 20)

    def test_se_identity_das_anchor(self):
        # 175 users x 0.4 Mb/s over 20 MHz and one cell
        uc = find_use_case("UC7")
        b = band(duplex="FDD", bw=20.0, scs=30, fc=2.1)
        assert se_per_cell(175, uc, b, "DL", 1) == pytest.approx(3.50, abs=0.01)

    def test_se_identity_omni12_anchor(self):
        uc = find_use_case("UC7")
        b = band(duplex="FDD", bw=20.0, scs=30, fc=2.1)
        assert se_per_cell(725, uc, b, "DL", 12) == pytest.approx(1.21, abs=0.01)


class TestMaxServedUsers:
    def test_small_search_consistent(self):
        sc = scenario(3)
        b = band("DUDU")
        uc = find_use_case("UC1")
        result = max_served_users(sc, b, RadioConfig(), uc, n_drops=2, seed=3)
        assert result.combined == min(result.max_users_dl, result.max_users_ul)
        assert result.combined >= 1
        # the found capacity is feasible, one more is not (per direction)
        for direction, n in (("DL", result.max_users_dl), ("UL", result.max_users_ul)):
            assert evaluate_load(sc, b, RadioConfig(), uc, n, 2, 3, directions=(direction,)).feasible
            assert not evaluate_load(sc, b, RadioConfig(), uc, n + 1, 2, 3, directions=(direction,)).feasible

    def test_one_pool_per_search(self, monkeypatch):
        built = []
        real = capacity.ProcessPoolExecutor

        def spy(*args, **kwargs):
            built.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(capacity, "ProcessPoolExecutor", spy)
        sc = scenario(3)
        b = band("DUDU")
        uc = find_use_case("UC1")
        serial = max_served_users(sc, b, RadioConfig(), uc, n_drops=2, seed=3)
        assert built == []
        assert max_served_users(sc, b, RadioConfig(), uc, n_drops=2, seed=3, workers=2) == serial
        assert built == [{"max_workers": 2}]
        # a probe made on its own still opens its own pool
        evaluate_load(sc, b, RadioConfig(), uc, 4, n_drops=2, seed=3, workers=2)
        assert len(built) == 2

    @pytest.mark.parametrize("seed", [5, 8])
    def test_lazy_pool_matches_serial(self, seed):
        sc = scenario(3)
        b = band("DUDU")
        uc = find_use_case("UC1")
        serial = max_served_users(sc, b, RadioConfig(), uc, n_drops=3, seed=seed)
        assert max_served_users(sc, b, RadioConfig(), uc, n_drops=3, seed=seed, workers=2) == serial

    @pytest.mark.parametrize("pattern, dl, ul", [("DUDU", 111, 12), ("DDDSU", 167, 3)])
    def test_criterion_6_omni_capacities(self, pattern, dl, ul):
        # criterion 6 checks only orderings; a last-bit change in link
        # adaptation that flips one probe shows here
        radio = RadioConfig(gnb_nf_db=5.0, ue_nf_db=9.0)
        result = max_served_users(scenario(3), band(pattern), radio, find_use_case("UC1"), n_drops=20, seed=1)
        assert (result.max_users_dl, result.max_users_ul) == (dl, ul)

    def test_se_accounting_identity(self):
        sc = scenario(3)
        b = band("DUDU")
        uc = find_use_case("UC1")
        result = max_served_users(sc, b, RadioConfig(), uc, n_drops=2, seed=3)
        assert result.se_per_cell_dl == pytest.approx(
            se_per_cell(result.max_users_dl, uc, b, "DL", 3)
        )
        assert result.se_per_cell_ul == pytest.approx(
            se_per_cell(result.max_users_ul, uc, b, "UL", 3)
        )


class TestBandOrderings:
    def test_high_band_combined_at_least_mid_band(self):
        # 400 MHz at 26 GHz vs 100 MHz at 3.8 GHz, same deployment shape
        uc = find_use_case("UC1")
        aas = AasAntenna()
        sc_mid = scenario(3, fc=3.8)
        sc_high = scenario(3, fc=26.0)
        mid = band("DUDU", scs=30, bw=100.0, fc=3.8)
        high = band("DUDU", scs=120, bw=400.0, fc=26.0)
        r_mid = RadioConfig(antenna=aas, gnb_nf_db=5.0, ue_nf_db=9.0)
        r_high = RadioConfig(antenna=aas, gnb_nf_db=7.0, ue_nf_db=10.0, ue_gain_dbi=9.0)
        got_mid = max_served_users(sc_mid, mid, r_mid, uc, n_drops=4, seed=1)
        got_high = max_served_users(sc_high, high, r_high, uc, n_drops=4, seed=1)
        assert got_high.combined >= got_mid.combined


class TestDeploymentPaths:
    def test_das_single_cell(self):
        sc = scenario(12)
        b = band("DUDU")
        radio = RadioConfig(antenna=DasAntenna(), gnb_nf_db=19.0, ue_nf_db=9.0)
        result = max_served_users(sc, b, radio, find_use_case("UC7"), n_drops=2, seed=1)
        assert result.combined >= 1
        # single logical cell: SE accounting divides by one cell
        assert result.se_per_cell_dl == pytest.approx(
            se_per_cell(result.max_users_dl, find_use_case("UC7"), b, "DL", 1)
        )

    def test_fdd_band_capacity(self):
        sc = scenario(3, fc=2.1)
        b = band(duplex="FDD", bw=20.0, scs=30, fc=2.1)
        radio = RadioConfig(gnb_nf_db=7.0, ue_nf_db=6.0)
        result = max_served_users(sc, b, radio, find_use_case("UC7"), n_drops=2, seed=1)
        assert result.combined >= 1
        assert result.combined == min(result.max_users_dl, result.max_users_ul)


class TestPerDropSearch:
    @pytest.mark.parametrize(
        "antenna, n_cells", [(OmniAntenna(), 3), (AasAntenna(), 3), (DasAntenna(), 1)], ids=["omni", "aas", "das"]
    )
    def test_slices_are_exact(self, antenna, n_cells):
        """A drop built at a larger count gives, sliced, the links built at n."""
        sc, radio, seed, index = scenario(3), RadioConfig(antenna=antenna), 7, 2
        drop = capacity._Drop(sc, radio, seed, index)
        built = drop.links(150)
        for n in (0, 1, 3, 7, 8, 9, 17, 100):
            got = drop.links(n)
            want = build_links(
                sc, radio, drop_ues(sc, n, [seed, index, 0]),
                np.random.default_rng([seed, index, 1]), np.random.default_rng([seed, index, 2]),
            )
            assert got.coupling_db.shape == want.coupling_db.shape == (n, n_cells)
            assert (got.coupling_db == want.coupling_db).all()
            assert (got.serving == want.serving).all()
        assert drop.links(150) is built

    @pytest.mark.parametrize("direction", ["DL", "UL"])
    @pytest.mark.parametrize("antenna", [OmniAntenna(), AasAntenna(), DasAntenna()], ids=["omni", "aas", "das"])
    def test_sliced_powers_are_exact(self, antenna, direction):
        """A drop's powers computed at 150 users give, sliced, ``link_powers`` of its links at n."""
        sc, b, radio = scenario(3), band("DUDU"), RadioConfig(antenna=antenna)
        drop = capacity._Drop(sc, radio, 7, 2)
        built = drop.links(150)
        # 7 first, so that 150 grows the held powers without a rebuild
        for n in (7, 150, 0, 1, 7, 100):
            got, want = drop.powers(n, b, direction), link_powers(drop.links(n), radio, b, direction)
            for field in dataclasses.fields(LinkPowers):
                assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name
        held = drop.powers(150, b, direction)
        for n in (1, 7, 100):
            assert np.shares_memory(drop.powers(n, b, direction).interf, held.interf)
        assert drop.powers(150, b, direction) is held
        assert drop.links(150) is built

    def test_each_drop_built_once_for_both_directions(self, monkeypatch):
        """Each drop's rows are drawn once: every draw continues its drop's position stream where the last stopped."""
        draws = []
        real = capacity.drop_ues

        def spy(sc, n, rng):
            draws.append((rng.bit_generator.state, n))
            return real(sc, n, rng)

        monkeypatch.setattr(capacity, "drop_ues", spy)
        radio = RadioConfig(antenna=AasAntenna(), gnb_nf_db=5.0, ue_nf_db=9.0)
        result = max_served_users(scenario(3), band("DUDU"), radio, find_use_case("UC1"), n_drops=5, seed=1)
        assert result.max_users_dl > result.max_users_ul > 0
        # the stream state each drop's next draw must start from, and the rows drawn so far
        next_state = {str(np.random.default_rng([1, d, 0]).bit_generator.state): d for d in range(5)}
        drawn = dict.fromkeys(range(5), 0)
        for state, n in draws:
            drop = next_state.pop(str(state))  # a KeyError is a row drawn twice or skipped
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            rng.random((n, 2))
            next_state[str(rng.bit_generator.state)] = drop
            drawn[drop] += n
        assert min(drawn.values()) >= result.max_users_dl

    @pytest.mark.parametrize("antenna", [OmniAntenna(), AasAntenna(), DasAntenna()], ids=["omni", "aas", "das"])
    @pytest.mark.parametrize(
        "counts", [[1 << k for k in range(13)], [3, 2, 5, 6, 13, 100, 101, 250, 999, 1000, 1001, 2500]],
        ids=["doubling", "irregular"],
    )
    def test_grown_drop_equals_fresh_build(self, antenna, counts):
        """A drop grown row block by row block holds, at every size, the links of one fresh build."""
        sc, radio, seed, index = scenario(12), RadioConfig(antenna=antenna), 7, 2

        def fresh(n):
            return build_links(
                sc, radio, drop_ues(sc, n, [seed, index, 0]),
                np.random.default_rng([seed, index, 1]), np.random.default_rng([seed, index, 2]),
            )

        drop = capacity._Drop(sc, radio, seed, index)
        for n in counts:
            got, held = drop.links(n), drop._links
            for links, size in ((got, n), (held, len(held.serving))):
                want = fresh(size)
                assert links.coupling_db.tobytes() == want.coupling_db.tobytes()
                assert links.serving.tobytes() == want.serving.tobytes()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        antenna=st.sampled_from([OmniAntenna(), AasAntenna(), DasAntenna()]),
        n_drops=st.integers(1, 5),
        use_case=st.sampled_from(["UC1", "UC7"]),
        pattern=st.sampled_from(["DUDU", "DDDSU"]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_whole_search(self, antenna, n_drops, use_case, pattern, seed):
        """The per-drop running minimum equals probing all drops at once."""
        sc, b, uc = scenario(3), band(pattern), find_use_case(use_case)
        radio = RadioConfig(antenna=antenna, gnb_nf_db=5.0, ue_nf_db=9.0)
        result = max_served_users(sc, b, radio, uc, n_drops=n_drops, seed=seed)
        for direction, got in (("DL", result.max_users_dl), ("UL", result.max_users_ul)):
            want = search_oracle(
                lambda n: evaluate_load(sc, b, radio, uc, n, n_drops, seed, directions=(direction,)).feasible
            )
            assert got == want, direction

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_independent_of_workers(self, seed):
        sc, b, uc = scenario(3), band("DUDU"), find_use_case("UC7")
        radio = RadioConfig(gnb_nf_db=5.0, ue_nf_db=9.0)
        serial = max_served_users(sc, b, radio, uc, n_drops=5, seed=seed)
        assert max_served_users(sc, b, radio, uc, n_drops=5, seed=seed, workers=2) == serial
