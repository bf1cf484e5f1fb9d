import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as scipy_linprog

from nrfactory import exclusion
from nrfactory.cli import main
from nrfactory.errors import DomainError, SolverFailure
from nrfactory.exclusion import (
    CellFreeScenario,
    PowerAllocation,
    all_exclusion_powers,
    all_user_se,
    feasibility_lp,
    gamma_norm_from_dbm,
    solve_maxmin,
    table15_scenario,
    uniform_full_power,
)

from oracles import maxmin_lp_oracle


def tiny_scenario(rng: np.random.Generator, gamma_scale: float = 0.5) -> CellFreeScenario:
    """Well-conditioned M=2, K=2, L=1 instance for grid-oracle comparison."""
    mag_h = rng.uniform(0.1, 0.5, size=(2, 2))
    mag_g = rng.uniform(0.1, 0.5, size=(2, 1))
    phase_h = rng.uniform(0, 2 * math.pi, size=(2, 2))
    phase_g = rng.uniform(0, 2 * math.pi, size=(2, 1))
    h = np.sqrt(mag_h) * np.exp(1j * phase_h)
    g = np.sqrt(mag_g) * np.exp(1j * phase_g)
    p_t = 1.0
    noise = rng.uniform(1.0, 2.0)
    # ceiling at a fraction of the uniform-allocation exposure so it can bind
    gamma = gamma_scale * float(mag_g.sum() / 2)
    return CellFreeScenario(h=h, g=g, p_t_mw=p_t, noise_mw=noise, gamma_norm=gamma)


def grid_search_min_se(scenario: CellFreeScenario, use_exclusion: bool, step: float = 0.01) -> float:
    """Dense rho-grid oracle: best min-SE over the discretized feasible set."""
    hp = np.abs(scenario.h) ** 2
    gp = np.abs(scenario.g) ** 2
    c = scenario.noise_over_pt
    n = int(round(1.0 / step))
    pairs = [(i * step, j * step) for i in range(n + 1) for j in range(n + 1 - i)]
    p1 = np.array([p[0] for p in pairs])
    p2 = np.array([p[1] for p in pairs])

    s1_ap0 = p1 * hp[0, 0]
    s2_ap0 = p2 * hp[0, 1]
    e_ap0 = (p1 + p2) * gp[0, 0]
    s1_ap1 = p1 * hp[1, 0]
    s2_ap1 = p2 * hp[1, 1]
    e_ap1 = (p1 + p2) * gp[1, 0]

    best = -1.0
    for i in range(len(pairs)):
        s1 = s1_ap0[i] + s1_ap1
        s2 = s2_ap0[i] + s2_ap1
        worst_sinr = np.minimum(s1 / (s2 + c), s2 / (s1 + c))
        if use_exclusion:
            worst_sinr = np.where(e_ap0[i] + e_ap1 <= scenario.gamma_norm, worst_sinr, -1.0)
        best = max(best, float(worst_sinr.max()))
    return math.log2(1.0 + best) if best >= 0 else 0.0


class TestUserSe:
    def test_unit_everything(self):
        sc = CellFreeScenario(
            h=np.array([[1.0 + 0j]]), g=np.array([[1.0 + 0j]]),
            p_t_mw=1.0, noise_mw=1.0, gamma_norm=1.0,
        )
        alloc = PowerAllocation(rho=np.array([[1.0]]))
        assert all_user_se(sc, alloc)[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_allocation(self):
        rng = np.random.default_rng(0)
        sc = tiny_scenario(rng)
        alloc = PowerAllocation(rho=np.zeros((2, 2)))
        assert all_user_se(sc, alloc)[0] == 0.0
        assert all_user_se(sc, alloc)[1] == 0.0

    def test_symmetric_channels_symmetric_se(self):
        h = np.array([[0.5 + 0j, 0.5 + 0j], [0.3 + 0j, 0.3 + 0j]])
        sc = CellFreeScenario(h=h, g=np.ones((2, 1), dtype=complex), p_t_mw=1.0, noise_mw=1.0, gamma_norm=1.0)
        alloc = PowerAllocation(rho=np.full((2, 2), 0.5))
        assert all_user_se(sc, alloc)[0] == pytest.approx(all_user_se(sc, alloc)[1], abs=1e-14)

    def test_phase_invariance(self):
        rng = np.random.default_rng(5)
        sc = tiny_scenario(rng)
        rotated = CellFreeScenario(
            h=sc.h * np.exp(1j * rng.uniform(0, 6.28, size=sc.h.shape)),
            g=sc.g, p_t_mw=sc.p_t_mw, noise_mw=sc.noise_mw, gamma_norm=sc.gamma_norm,
        )
        alloc = uniform_full_power(sc)
        for k in range(2):
            assert all_user_se(sc, alloc)[k] == pytest.approx(all_user_se(rotated, alloc)[k], rel=1e-12)


class TestExclusionPower:
    def test_zero_rho(self):
        rng = np.random.default_rng(1)
        sc = tiny_scenario(rng)
        assert all_exclusion_powers(sc, PowerAllocation(rho=np.zeros((2, 2))))[0] == 0.0

    def test_single_term(self):
        sc = CellFreeScenario(
            h=np.array([[1.0 + 0j]]),
            g=np.array([[complex(math.sqrt(0.5), 0.0)]]),
            p_t_mw=1.0, noise_mw=1.0, gamma_norm=1.0,
        )
        assert all_exclusion_powers(sc, PowerAllocation(rho=np.array([[1.0]])))[0] == pytest.approx(0.5)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        sc = tiny_scenario(rng)
        rho = rng.uniform(0, 0.5, size=(2, 2))
        full = all_exclusion_powers(sc, PowerAllocation(rho=rho))[0]
        half = all_exclusion_powers(sc, PowerAllocation(rho=0.5 * rho))[0]
        assert half == pytest.approx(0.5 * full, rel=1e-12)


class TestFeasibilityLp:
    def test_zero_target_feasible(self):
        rng = np.random.default_rng(3)
        sc = tiny_scenario(rng)
        assert feasibility_lp(sc, 0.0, use_exclusion=True) is not None

    def test_above_single_user_bound_infeasible(self):
        h = np.array([[1.0 + 0j]])
        sc = CellFreeScenario(h=h, g=np.ones((1, 1), dtype=complex), p_t_mw=1.0, noise_mw=0.5, gamma_norm=10.0)
        bound = 1.0 / sc.noise_over_pt
        assert feasibility_lp(sc, bound * 1.01, use_exclusion=False) is None
        assert feasibility_lp(sc, bound * 0.99, use_exclusion=False) is not None

    def test_negative_target_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DomainError):
            feasibility_lp(tiny_scenario(rng), -1.0, use_exclusion=False)

    def test_witness_meets_target(self):
        rng = np.random.default_rng(6)
        sc = tiny_scenario(rng)
        target = 0.05
        witness = feasibility_lp(sc, target, use_exclusion=True)
        assert witness is not None
        se_floor = math.log2(1.0 + target)
        assert all_user_se(sc, witness).min() >= se_floor - 1e-6


class TestSolveMaxMin:
    def test_single_user_hits_bound(self):
        h = np.array([[0.6 + 0j], [0.8 + 0j]])
        sc = CellFreeScenario(h=h, g=np.ones((2, 1), dtype=complex), p_t_mw=1.0, noise_mw=1.0, gamma_norm=100.0)
        result = solve_maxmin(sc, use_exclusion=False, tol_bits=1e-5)
        bound = math.log2(1.0 + (0.6**2 + 0.8**2) / 1.0)
        assert result.min_se == pytest.approx(bound, abs=1e-3)

    def test_inactive_ceiling_matches_unconstrained(self):
        rng = np.random.default_rng(7)
        sc = tiny_scenario(rng)
        relaxed = CellFreeScenario(h=sc.h, g=sc.g, p_t_mw=sc.p_t_mw, noise_mw=sc.noise_mw, gamma_norm=1e9)
        a = solve_maxmin(sc, use_exclusion=False, tol_bits=1e-5)
        b = solve_maxmin(relaxed, use_exclusion=True, tol_bits=1e-5)
        assert a.min_se == pytest.approx(b.min_se, abs=2e-5)

    def test_tight_ceiling_costs_se_and_is_respected(self):
        rng = np.random.default_rng(8)
        sc = tiny_scenario(rng, gamma_scale=0.05)
        free = solve_maxmin(sc, use_exclusion=False, tol_bits=1e-5)
        constrained = solve_maxmin(sc, use_exclusion=True, tol_bits=1e-5)
        assert constrained.min_se <= free.min_se + 1e-9
        assert np.all(constrained.per_point_power <= sc.gamma_norm * (1 + 1e-9))

    def test_grid_oracle_agreement(self):
        rng = np.random.default_rng(2024)
        for trial in range(8):
            sc = tiny_scenario(rng, gamma_scale=0.4 if trial % 2 else 2.0)
            use_excl = trial % 2 == 1
            got = solve_maxmin(sc, use_exclusion=use_excl, tol_bits=1e-4).min_se
            expected = grid_search_min_se(sc, use_exclusion=use_excl)
            assert got == pytest.approx(expected, abs=0.02), trial

    def test_equalization_at_optimum(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            sc = tiny_scenario(rng)
            tol = 1e-4
            result = solve_maxmin(sc, use_exclusion=False, tol_bits=tol)
            assert float(result.per_user_se.max() - result.min_se) <= 10 * tol

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(12)
        sc = tiny_scenario(rng)
        gammas = np.logspace(math.log10(sc.gamma_norm * 4), math.log10(sc.gamma_norm * 1e-4), 8)
        prev = math.inf
        for g in gammas:
            sg = CellFreeScenario(h=sc.h, g=sc.g, p_t_mw=sc.p_t_mw, noise_mw=sc.noise_mw, gamma_norm=float(g))
            res = solve_maxmin(sg, use_exclusion=True, tol_bits=1e-5)
            assert res.min_se <= prev + 2e-5
            prev = res.min_se

    def test_constraint_residuals(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            sc = tiny_scenario(rng, gamma_scale=0.2)
            res = solve_maxmin(sc, use_exclusion=True, tol_bits=1e-4)
            rho = res.allocation.rho
            assert np.all(rho >= 0)
            assert np.all(rho.sum(axis=1) <= 1.0 + 1e-9)
            assert np.all(res.per_point_power <= sc.gamma_norm * (1 + 1e-9))

    def test_invalid_tol(self):
        rng = np.random.default_rng(15)
        with pytest.raises(DomainError):
            solve_maxmin(tiny_scenario(rng), use_exclusion=False, tol_bits=0.0)


@pytest.fixture(scope="module")
def table15_solves():
    """Table15, seed 1: max-min with no ceiling, at -120 dBm and at -90 dBm."""
    sc = table15_scenario(seed=1)
    at_90 = CellFreeScenario(
        h=sc.h, g=sc.g, p_t_mw=sc.p_t_mw, noise_mw=sc.noise_mw,
        gamma_norm=gamma_norm_from_dbm(-90.0, sc.p_t_mw),
    )
    return {
        "free": (sc, solve_maxmin(sc, use_exclusion=False)),
        "-120dBm": (sc, solve_maxmin(sc, use_exclusion=True)),
        "-90dBm": (at_90, solve_maxmin(at_90, use_exclusion=True)),
    }


class TestTable15MaxMin:
    def test_no_ceiling_reaches_the_interference_limit(self, table15_solves):
        _, result = table15_solves["free"]
        assert result.min_se == pytest.approx(math.log2(1.0 + 1.0 / 111), abs=1e-6)

    def test_tight_ceiling_keeps_a_positive_rate(self, table15_solves):
        _, result = table15_solves["-120dBm"]
        assert result.min_se > 0

    def test_ceilings_cost_rate_in_order(self, table15_solves):
        free, at_90, at_120 = (table15_solves[c][1].min_se for c in ("free", "-90dBm", "-120dBm"))
        assert free > at_90 > at_120

    @pytest.mark.parametrize("case", ["free", "-120dBm", "-90dBm"])
    def test_users_equalized_and_constraints_met(self, table15_solves, case):
        sc, result = table15_solves[case]
        assert float(result.per_user_se.max() - result.per_user_se.min()) <= 1e-12
        rho = result.allocation.rho
        assert np.all(rho >= 0)
        assert np.all(rho.sum(axis=1) <= 1.0 + 1e-9)
        if case != "free":
            assert np.all(result.per_point_power <= sc.gamma_norm * (1 + 1e-9))


@st.composite
def spread_cell_free(draw) -> CellFreeScenario:
    """Up to 12 APs and 8 users, so that each user's 4 strongest APs leave columns out.

    Channel powers, noise and ceiling each span three decades, from
    interference-limited to noise-limited solves.  The unscaled one-LP
    oracle loses a common power s below about 1e-9 of n/P_T (see
    ``test_single_link_under_a_tight_ceiling``), so the draws stay above it.
    """
    m, k, l = draw(st.integers(1, 12)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def channels(n: int) -> np.ndarray:
        return 10.0 ** rng.uniform(-1.5, 0.0, (m, n)) * np.exp(2j * np.pi * rng.uniform(size=(m, n)))

    g = channels(l)
    exposure = float(np.max(np.sum(np.abs(g) ** 2, axis=0)))
    return CellFreeScenario(
        h=channels(k), g=g, p_t_mw=1.0, noise_mw=10.0 ** rng.uniform(-3.0, 0.0),
        gamma_norm=exposure * 10.0 ** rng.uniform(-3.0, 0.5),
    )


class TestColumnGeneration:
    """The restricted-LP loop reaches the one-LP optimum of ``oracles.maxmin_lp_oracle``."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(scenario=spread_cell_free(), use_exclusion=st.booleans())
    def test_matches_the_one_lp_oracle(self, scenario, use_exclusion):
        got = solve_maxmin(scenario, use_exclusion=use_exclusion).min_se
        assert got == pytest.approx(maxmin_lp_oracle(scenario, use_exclusion), rel=1e-9)

    def test_single_link_under_a_tight_ceiling(self):
        # one AP, one user: rho = gamma / |g|^2 and SE = log2(1 + |h|^2 rho / (n/P_T));
        # s is about 6e-10 here, which one unscaled LP returns as 0
        h, g = np.array([[0.002 + 0.0j]]), np.array([[0.6 + 0.0j]])
        sc = CellFreeScenario(h=h, g=g, p_t_mw=1.0, noise_mw=0.04, gamma_norm=3e-6)
        expected = math.log2(1.0 + 0.002**2 * (3e-6 / 0.6**2) / 0.04)
        assert solve_maxmin(sc, use_exclusion=True).min_se == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_table15_matches_the_one_lp_oracle(self, seed):
        # at -120 dBm the common power s is about 2e-5 of the LP's units
        # before scaling; seeds 4 and 12 stopped early when s was left unscaled
        sc = table15_scenario(seed=seed)
        for gamma_dbm in (None, -120.0, -90.0):
            use_exclusion = gamma_dbm is not None
            if use_exclusion:
                sc = dataclasses.replace(sc, gamma_norm=gamma_norm_from_dbm(gamma_dbm, sc.p_t_mw))
            got = solve_maxmin(sc, use_exclusion=use_exclusion).min_se
            assert got == pytest.approx(maxmin_lp_oracle(sc, use_exclusion), rel=1e-9), gamma_dbm


class TestCertifiedGap:
    @pytest.fixture
    def halved_primal(self, monkeypatch):
        """A solver whose primal x is half the optimum, so the dual bound exposes it."""
        real = exclusion.linprog

        def halved(*args, **kwargs):
            result = real(*args, **kwargs)
            result.x = result.x / 2.0
            return result

        monkeypatch.setattr(exclusion, "linprog", halved)

    def test_exact_solve_has_no_gap(self):
        sc = tiny_scenario(np.random.default_rng(16))
        witness = feasibility_lp(sc, 0.0, use_exclusion=True)
        assert witness.se_bound - all_user_se(sc, witness).min() <= 1e-9

    def test_halved_witness_raises(self, halved_primal):
        sc = tiny_scenario(np.random.default_rng(16))
        with pytest.raises(SolverFailure):
            solve_maxmin(sc, use_exclusion=False)

    def test_halved_witness_exits_two(self, halved_primal, tmp_path, capsys):
        # -100 dBm keeps the ceiling solve noise-limited, where half the power is
        # about half the SE; interference-limited solves barely notice the halving
        code = main([
            "exclusion", "--table15", "--seed", "2", "--k-points", "8", "--gamma-dbm", "-100",
            "--tol-bits", "1e-3", "-o", str(tmp_path / "excl.json"),
        ])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_halved_witness_exits_two_under_a_tight_ceiling(self, halved_primal, tmp_path, capsys):
        # at -120 dBm the whole min SE, 2.4e-4 bits, is below tol_bits, so
        # only the gap relative to the dual bound exposes the halving
        code = main([
            "exclusion", "--table15", "--seed", "2", "--k-points", "8", "--gamma-dbm", "-120",
            "--tol-bits", "1e-3", "-o", str(tmp_path / "excl.json"),
        ])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err


class TestLinprogSeam:
    """``exclusion.linprog`` defers scipy's import and changes nothing else."""

    @pytest.mark.parametrize(
        "scenario",
        [
            lambda: tiny_scenario(np.random.default_rng(16)),
            lambda: table15_scenario(seed=1, k_points=8),
        ],
        ids=["tiny", "table15-k8"],
    )
    def test_results_are_scipys_bit_for_bit(self, monkeypatch, scenario):
        calls = []
        seam = exclusion.linprog

        def record(*args, **kwargs):
            result = seam(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result

        monkeypatch.setattr(exclusion, "linprog", record)
        sc = scenario()
        for use_exclusion in (False, True):
            solved = len(calls)
            solve_maxmin(sc, use_exclusion=use_exclusion)
            assert len(calls) > solved
        for args, kwargs, result in calls:
            direct = scipy_linprog(*args, **kwargs)
            assert np.array_equal(result.x, direct.x)
            assert np.array_equal(result.ineqlin.marginals, direct.ineqlin.marginals)

    def test_parameters_are_a_prefix_of_scipys(self):
        ours = list(inspect.signature(exclusion.linprog).parameters)
        assert "A_ub" in ours
        assert ours == list(inspect.signature(scipy_linprog).parameters)[: len(ours)]


class TestTable15Scenario:
    def test_counts_and_geometry(self):
        sc = table15_scenario(seed=1)
        assert sc.m_aps == 72
        assert sc.k_users == 112
        assert sc.l_points == 8
        assert sc.p_t_mw == 200.0
        assert sc.gamma_norm == pytest.approx(gamma_norm_from_dbm(-120.0, 200.0))

    def test_deterministic_for_seed(self):
        a = table15_scenario(seed=3)
        b = table15_scenario(seed=3)
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.g, b.g)

    def test_seed_changes_users_not_aps(self):
        a = table15_scenario(seed=1)
        b = table15_scenario(seed=2)
        assert not np.array_equal(a.h, b.h)
        assert np.array_equal(a.g, b.g)  # test points are fixed geometry


class TestScenarioValidation:
    def test_zero_channel_rejected(self):
        h = np.zeros((2, 1), dtype=complex)
        with pytest.raises(DomainError):
            CellFreeScenario(h=h, g=np.ones((2, 1), dtype=complex), p_t_mw=1.0, noise_mw=1.0, gamma_norm=1.0)

    def test_no_users_rejected(self):
        with pytest.raises(DomainError):
            CellFreeScenario(h=np.ones((2, 0), dtype=complex), g=np.ones((2, 1), dtype=complex),
                             p_t_mw=1.0, noise_mw=1.0, gamma_norm=1.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(DomainError):
            CellFreeScenario(h=np.ones((2, 1), dtype=complex), g=np.ones((2, 1), dtype=complex),
                             p_t_mw=1.0, noise_mw=1.0, gamma_norm=gamma)

    def test_negative_rho_rejected(self):
        with pytest.raises(DomainError):
            PowerAllocation(rho=np.array([[-0.1, 0.2]]))

    def test_budget_violation_rejected(self):
        with pytest.raises(DomainError):
            PowerAllocation(rho=np.array([[0.7, 0.7]]))
