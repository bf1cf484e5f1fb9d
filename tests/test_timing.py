import itertools
import random

import pytest

from nrfactory import timing
from nrfactory.errors import DomainError, NegativeComponent, NoUsableSlot
from nrfactory.timing import (
    LatencyBudget,
    Numerology,
    SchedulingConfig,
    TddPattern,
    default_budget,
    default_processing_table,
    handover_interruption_budget,
    max_attempts_within_bound,
    one_way_latency,
    sr_opportunity_starts,
    worst_case_alignment,
)

from oracles import alignment_oracle_symbols

MS = 1.0


def make_config(**kw) -> SchedulingConfig:
    return SchedulingConfig(**kw)


def symmetric_table(value=10.0):
    table = {}
    for channel in ("pdsch", "pusch"):
        for cap in ("cap1", "cap2"):
            for scs in (15, 30, 60, 120):
                table[(channel, cap, scs)] = value
    return table


@pytest.mark.parametrize(
    "name", ["pdcch_occasions_per_slot", "harq_feedback_occasions_per_slot", "sr_opportunities_per_slot"]
)
@pytest.mark.parametrize("count", [0, 15])
def test_occasion_count_outside_a_slot_is_rejected(name, count):
    # a slot has 14 symbols; more occasions than symbols would add none
    with pytest.raises(DomainError):
        make_config(**{name: count})
    make_config(**{name: 14})


class TestNumerology:
    @pytest.mark.parametrize("scs,expected", [(15, 1.0), (30, 0.5), (60, 0.25), (120, 0.125)])
    def test_slot_duration(self, scs, expected):
        assert Numerology(scs).slot_duration_ms == expected

    def test_symbol_duration(self):
        n = Numerology(30)
        assert n.symbol_duration_ms == n.slot_duration_ms / 14
        assert n.symbols_per_slot == 14

    def test_invalid_scs(self):
        with pytest.raises(DomainError):
            Numerology(45)


class TestTddPattern:
    def test_period(self):
        p = TddPattern.from_string("DDDSU")
        assert p.period_slots == 5
        assert p.period_symbols == 70
        assert p.period_ms(Numerology(30)) == 2.5

    def test_symbol_roles_special_split(self):
        p = TddPattern.from_string("S", special_split=(10, 2, 2))
        roles = p.symbol_roles()
        assert roles == "D" * 10 + "-" * 2 + "U" * 2

    def test_empty_pattern_rejected(self):
        with pytest.raises(DomainError):
            TddPattern(())

    def test_bad_split_rejected(self):
        with pytest.raises(DomainError):
            TddPattern.from_string("S", special_split=(10, 2, 3))

    def test_bad_symbol_rejected(self):
        with pytest.raises(DomainError):
            TddPattern.from_string("DDXU")


    def test_more_sr_opportunities_never_give_fewer_starts(self):
        # DDDSU's S slot has two UL symbols, 54 and 55; the U slot has fourteen
        pattern = TddPattern.from_string("DDDSU")
        counts = []
        for per_slot in (1, 2, 4, 5, 7, 13, 14):
            starts = sr_opportunity_starts(pattern, per_slot)
            counts.append(len(starts))
            if per_slot >= 2:
                assert {54, 55} <= set(starts), per_slot
        assert counts == sorted(counts)


class TestProcessingTable:
    def test_cap2_never_slower_than_cap1(self):
        table = default_processing_table()
        for (channel, cap, scs), symbols in table.items():
            if cap == "cap2":
                assert symbols <= table[(channel, "cap1", scs)]

    def test_cap2_violation_rejected(self):
        table = symmetric_table()
        table[("pdsch", "cap2", 30)] = 99.0
        with pytest.raises(DomainError):
            SchedulingConfig(processing_table=table)


class TestWorstCaseAlignment:
    def test_all_dl_full_slot_below_one_slot(self):
        n = Numerology(30)
        cfg = make_config()
        align = worst_case_alignment(TddPattern.from_string("D"), n, cfg, "DL")
        assert align < n.slot_duration_ms

    def test_dddsu_dl_matches_offset_enumeration(self):
        n = Numerology(30)
        cfg = make_config()
        got = worst_case_alignment(TddPattern.from_string("DDDSU"), n, cfg, "DL")
        expected = alignment_oracle_symbols(
            "DDDSU", (10, 2, 2), "DL", 14, 1, "sr_based", 12.0
        ) * n.symbol_duration_ms
        assert got == expected

    def test_configured_grant_strictly_faster_than_sr(self):
        n = Numerology(30)
        sr = make_config(ul_access="sr_based")
        cg = make_config(ul_access="configured_grant")
        p = TddPattern.from_string("DDDSU")
        assert worst_case_alignment(p, n, cg, "UL") < worst_case_alignment(p, n, sr, "UL")

    def test_no_usable_slot(self):
        n = Numerology(30)
        cfg = make_config()
        with pytest.raises(NoUsableSlot):
            worst_case_alignment(TddPattern.from_string("DDDD"), n, cfg, "UL")

    def test_full_slot_tti_does_not_fit_special_slot(self):
        # an S slot offers 10 DL symbols; a 14-symbol TTI cannot use them
        n = Numerology(30)
        cfg = make_config()
        with pytest.raises(NoUsableSlot):
            worst_case_alignment(TddPattern.from_string("S"), n, cfg, "DL")

    def test_alignment_below_two_periods_dl_and_cg(self):
        n = Numerology(30)
        rng = random.Random(7)
        for _ in range(40):
            length = rng.randint(1, 6)
            slots = "".join(rng.choice("DUS") for _ in range(length))
            tti = rng.choice([2, 7, 14])
            cfg = make_config(
                tti_symbols=tti,
                pdcch_occasions_per_slot=rng.choice([1, 2, 7]),
                ul_access="configured_grant",
            )
            pattern = TddPattern.from_string(slots)
            for direction in ("DL", "UL"):
                try:
                    align = worst_case_alignment(pattern, n, cfg, direction)
                except NoUsableSlot:
                    continue
                assert align < 2 * pattern.period_ms(n)


class TestAlignmentOracle:
    """Randomized equivalence against the symbol-stepping oracle."""

    def test_random_cases_exact(self):
        rng = random.Random(12345)
        checked = 0
        while checked < 120:
            length = rng.randint(1, 6)
            slots = "".join(rng.choice("DDUUS") for _ in range(length))
            scs = rng.choice([15, 30, 60, 120])
            tti = rng.choice([2, 4, 7, 14])
            pdcch = rng.choice([1, 2, 7])
            ul_access = rng.choice(["sr_based", "configured_grant"])
            cap = rng.choice(["cap1", "cap2"])
            direction = rng.choice(["DL", "UL"])
            cfg = make_config(
                tti_symbols=tti,
                pdcch_occasions_per_slot=pdcch,
                ul_access=ul_access,
                ue_capability=cap,
            )
            n = Numerology(scs)
            pattern = TddPattern.from_string(slots)
            proc = cfg.processing_symbols("pusch", scs)
            try:
                got = worst_case_alignment(pattern, n, cfg, direction)
            except NoUsableSlot:
                with pytest.raises(LookupError):
                    alignment_oracle_symbols(
                        slots, (10, 2, 2), direction, tti, pdcch, ul_access, proc
                    )
                continue
            expected = alignment_oracle_symbols(
                slots, (10, 2, 2), direction, tti, pdcch, ul_access, proc
            ) * n.symbol_duration_ms
            assert got == expected, (slots, scs, tti, pdcch, ul_access, direction)
            checked += 1


    def test_cached_sr_chain_equals_uncached_scan(self):
        """The SR chain, looked up twice in the cache, equals a fresh scan of the same values."""
        timing._sr_chain_scan.cache_clear()
        cases = itertools.product(
            ("DDDSU", "DUDU", "DDDDUDDDUU", "DSUUD", "DDDD", None), (15, 30, 60, 120), (2, 4, 7, 14), (1, 2, 7), (1, 3),
        )
        for slots, scs, tti, pdcch, sr in cases:
            pattern = None if slots is None else TddPattern.from_string(slots)
            cfg = make_config(
                tti_symbols=tti, pdcch_occasions_per_slot=pdcch, sr_opportunities_per_slot=sr, ul_access="sr_based"
            )
            proc = cfg.processing_symbols("pusch", scs)
            try:
                want = timing._sr_chain_scan.__wrapped__(pattern, sr, pdcch, tti, proc)
            except NoUsableSlot:
                for _ in range(2):
                    with pytest.raises(NoUsableSlot):
                        timing._sr_chain_alignment_symbols(pattern, cfg, scs)
                continue
            for _ in range(2):
                assert timing._sr_chain_alignment_symbols(pattern, cfg, scs) == want, (slots, scs, tti, pdcch, sr)
        assert timing._sr_chain_scan.cache_info().hits > 0


class TestOneWayLatency:
    def test_zero_retx_is_t1(self):
        n = Numerology(30)
        cfg = make_config()
        r = one_way_latency(TddPattern.from_string("DDDSU"), n, cfg, None, "DL", 0)
        assert r.t_up_ms == r.t1_ms

    def test_dudu_symmetric_processing_dl_equals_ul(self):
        n = Numerology(30)
        cfg = make_config(ul_access="configured_grant", processing_table=symmetric_table())
        p = TddPattern.from_string("DUDU")
        for n_retx in range(6):
            dl = one_way_latency(p, n, cfg, None, "DL", n_retx)
            ul = one_way_latency(p, n, cfg, None, "UL", n_retx)
            assert dl.t_up_ms == ul.t_up_ms

    def test_potential_midband_sub_millisecond(self):
        n = Numerology(30)
        potential = make_config(
            tti_symbols=2,
            pdcch_occasions_per_slot=7,
            harq_feedback_occasions_per_slot=7,
            ul_access="configured_grant",
            ue_capability="cap2",
        )
        r = one_way_latency(TddPattern.from_string("DUDU"), n, potential, None, "DL", 0)
        assert r.t_up_ms < 1.0 * MS

    def test_affine_in_retx(self):
        n = Numerology(120)
        cfg = make_config()
        p = TddPattern.from_string("DDDSU")
        base = one_way_latency(p, n, cfg, None, "DL", 0)
        for k in range(1, 6):
            r = one_way_latency(p, n, cfg, None, "DL", k)
            assert r.t_up_ms == base.t1_ms + k * base.t_harq_ms

    def test_t_up_at_least_on_air_duration(self):
        n = Numerology(30)
        cfg = make_config(tti_symbols=7, pdcch_occasions_per_slot=2)
        p = TddPattern.from_string("DUDU")
        budget = default_budget(n, cfg, "DL")
        r = one_way_latency(p, n, cfg, budget, "DL", 0)
        assert r.t_up_ms >= budget.t_dl_duration

    def test_doubling_scs_never_increases_latency(self):
        cfg = make_config()
        p = TddPattern.from_string("DDDSU")
        for lo, hi in ((15, 30), (30, 60), (60, 120)):
            a = one_way_latency(p, Numerology(lo), cfg, None, "DL", 2)
            b = one_way_latency(p, Numerology(hi), cfg, None, "DL", 2)
            assert b.t_up_ms <= a.t_up_ms
            assert b.t1_ms <= a.t1_ms
            assert b.t2_ms <= a.t2_ms

    def test_explicit_budget_respected(self):
        n = Numerology(30)
        cfg = make_config()
        budget = LatencyBudget(
            t_bs_tx=0.1, t_bs_rx=0.1, t_ue_tx=0.1, t_ue_rx=0.1,
            t_dl_duration=0.5, t_ul_duration=0.05, t_fa_dl=0.2, t_fa_ul=0.3,
        )
        r = one_way_latency(TddPattern.from_string("DDDSU"), n, cfg, budget, "DL", 0)
        assert r.t1_ms == pytest.approx(0.1 + 0.2 + 0.5 + 0.1)
        assert r.t2_ms == pytest.approx(0.1 + 0.3 + 0.05 + 0.1)

    def test_negative_budget_rejected(self):
        with pytest.raises(NegativeComponent):
            LatencyBudget(
                t_bs_tx=-0.1, t_bs_rx=0.1, t_ue_tx=0.1, t_ue_rx=0.1,
                t_dl_duration=0.5, t_ul_duration=0.5,
            )


class TestFddLatency:
    """FDD is ``pattern=None``: paired all-D / all-U timelines."""

    def test_fdd_alignment_below_one_slot(self):
        n = Numerology(30)
        cfg = make_config(ul_access="configured_grant")
        assert worst_case_alignment(None, n, cfg, "DL") < n.slot_duration_ms
        assert worst_case_alignment(None, n, cfg, "UL") < n.slot_duration_ms

    def test_fdd_sr_chain_runs(self):
        n = Numerology(30)
        cfg = make_config(ul_access="sr_based")
        r = one_way_latency(None, n, cfg, None, "UL", 0)
        assert r.t_up_ms > 0

    def test_fdd_matches_oracle_exactly(self):
        cases = itertools.product(
            (15, 30, 60, 120), (2, 4, 7, 14), (1, 2, 3, 4, 7, 14),
            ("sr_based", "configured_grant"), ("cap1", "cap2"),
        )
        checked = 0
        for scs, tti, pdcch, ul_access, cap in cases:
            cfg = make_config(
                tti_symbols=tti, pdcch_occasions_per_slot=pdcch,
                ul_access=ul_access, ue_capability=cap,
            )
            n = Numerology(scs)
            proc = cfg.processing_symbols("pusch", scs)
            for direction in ("DL", "UL"):
                expected = alignment_oracle_symbols(
                    None, None, direction, tti, pdcch, ul_access, proc
                ) * n.symbol_duration_ms
                got = worst_case_alignment(None, n, cfg, direction)
                assert got == expected, (scs, tti, pdcch, ul_access, cap, direction)
            checked += 1
        assert checked == 384


class TestMaxAttempts:
    def test_bound_below_t1(self):
        n = Numerology(30)
        cfg = make_config()
        p = TddPattern.from_string("DDDSU")
        t1 = one_way_latency(p, n, cfg, None, "DL", 0).t1_ms
        fit = max_attempts_within_bound(p, n, cfg, None, "DL", t1 * 0.5)
        assert not fit.initial_fits
        assert fit.n_retx == 0
        assert fit.attempts == 0

    def test_boundary_inclusive(self):
        n = Numerology(30)
        cfg = make_config()
        p = TddPattern.from_string("DDDSU")
        r = one_way_latency(p, n, cfg, None, "DL", 0)
        bound = r.t1_ms + 2 * r.t_harq_ms
        fit = max_attempts_within_bound(p, n, cfg, None, "DL", bound)
        assert fit.initial_fits
        assert fit.n_retx == 2
        assert fit.attempts == 3

    def test_higher_scs_fits_more_attempts(self):
        cfg = make_config()
        p = TddPattern.from_string("DUDU")
        fit60 = max_attempts_within_bound(p, Numerology(60), cfg, None, "UL", 5.0)
        fit120 = max_attempts_within_bound(p, Numerology(120), cfg, None, "UL", 5.0)
        assert fit120.n_retx >= fit60.n_retx

    def test_invalid_bound(self):
        n = Numerology(30)
        cfg = make_config()
        with pytest.raises(DomainError):
            max_attempts_within_bound(TddPattern.from_string("D"), n, cfg, None, "DL", 0.0)


class TestHandoverBudget:
    def test_standard_component_list(self):
        components = [
            ("HO command processing", 16, 16),
            ("retune and synchronize", 20, 20),
            ("RACH wait", 0, 10),
            ("RA procedure", 6, 6),
        ]
        assert handover_interruption_budget(components) == (42, 52)

    def test_empty(self):
        assert handover_interruption_budget([]) == (0, 0)

    def test_single(self):
        assert handover_interruption_budget([("x", 3, 7)]) == (3, 7)

    def test_negative_rejected(self):
        with pytest.raises(NegativeComponent):
            handover_interruption_budget([("x", -1, 4)])

    def test_min_above_max_rejected(self):
        with pytest.raises(DomainError):
            handover_interruption_budget([("x", 5, 4)])


class TestConfiguredGrantInvariant:
    def test_cg_t1_never_above_sr_t1(self):
        rng = random.Random(99)
        checked = 0
        while checked < 40:
            length = rng.randint(1, 5)
            slots = "".join(rng.choice("DDUUS") for _ in range(length))
            tti = rng.choice([2, 7, 14])
            cfg_kw = dict(
                tti_symbols=tti,
                pdcch_occasions_per_slot=rng.choice([1, 2, 7]),
                ue_capability=rng.choice(["cap1", "cap2"]),
            )
            n = Numerology(rng.choice([30, 120]))
            p = TddPattern.from_string(slots)
            try:
                sr = one_way_latency(p, n, make_config(ul_access="sr_based", **cfg_kw), None, "UL", 0)
                cg = one_way_latency(p, n, make_config(ul_access="configured_grant", **cfg_kw), None, "UL", 0)
            except NoUsableSlot:
                continue
            assert cg.t1_ms <= sr.t1_ms
            checked += 1
