"""Metamorphic relations of the capacity and exclusion engines: how an output must move when an input moves.

The engines have no closed-form oracle at scale, so these relations pin
their behaviour instead.  Each test's docstring gives the model reason the
relation holds.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrfactory.capacity import ResourceModel, evaluate_load, max_served_users
from nrfactory.exclusion import CellFreeScenario, solve_maxmin
from nrfactory.propagation import FactoryScenario, Hall, gnb_grid
from nrfactory.radiolink import AasAntenna, BandConfig, DasAntenna, RadioConfig, sinr_grid
from nrfactory.timing import TddPattern
from nrfactory.usecases import find_use_case

HALL = Hall(120.0, 50.0, 10.0)
SCENARIO = FactoryScenario(
    hall=HALL, gnb_positions=gnb_grid(1, 3, 8.0, HALL), scenario_type="InF_DH", carrier_ghz=3.8
)
OMNI = RadioConfig(gnb_nf_db=5.0, ue_nf_db=9.0)
UC1 = find_use_case("UC1")


def band(pattern: str) -> BandConfig:
    return BandConfig(
        duplex="TDD", carrier_ghz=3.8, bandwidth_mhz=100.0, scs_khz=30,
        tdd_pattern=TddPattern.from_string(pattern), tti_symbols=14,
    )


@settings(max_examples=20, deadline=None, derandomize=True)
@given(pattern=st.sampled_from(["DUDU", "DDDSU"]), seed=st.integers(1, 10_000), n_drops=st.integers(1, 3))
def test_feasibility_monotone_in_users_around_capacity(pattern, seed, n_drops):
    """Feasible at n implies feasible at n - 1.

    Drops are nested: the first n - 1 users of an n-user drop are the same
    users on the same links.  Removing one takes its demand off its cell and
    its interference off the others, so every utilization can only fall.
    Checked with a step of 1 on both sides of each found capacity.
    """
    b = band(pattern)
    result = max_served_users(SCENARIO, b, OMNI, UC1, n_drops=n_drops, seed=seed)
    for direction, cap in (("DL", result.max_users_dl), ("UL", result.max_users_ul)):
        for n in range(max(cap - 3, 0), cap + 4):
            load = evaluate_load(SCENARIO, b, OMNI, UC1, n, n_drops, seed, directions=(direction,))
            assert load.feasible == (n <= cap), (direction, n, cap)


def test_aas3_dl_window_is_feasible():
    """Every n in a window below the aas3-DUDU DL capacity at seed 1 (806 users) is feasible.

    The nesting argument above, at 20 drops and a few hundred users per cell,
    where a search that probes only a few n would miss a violation.
    """
    radio = RadioConfig(antenna=AasAntenna(), gnb_nf_db=5.0, ue_nf_db=9.0)
    for n in range(760, 800, 2):
        assert evaluate_load(SCENARIO, band("DUDU"), radio, UC1, n, 20, 1, directions=("DL",)).feasible, n


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    overheads=st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3]), min_size=2, max_size=2, unique=True),
    seed=st.integers(1, 10_000),
)
def test_less_control_overhead_never_lowers_capacity(overheads, seed):
    """Capacity does not fall when the control overhead falls.

    Same demand, more supply: every cell's utilization at every interferer
    state scales by (1 - old overhead) / (1 - new overhead) <= 1, so the
    load map's fixed point can only fall.
    """
    b = band("DUDU")
    low, high = (
        max_served_users(SCENARIO, b, OMNI, UC1, n_drops=2, seed=seed,
                         model=ResourceModel.from_band(b, control_overhead=x))
        for x in sorted(overheads)
    )
    assert low.max_users_dl >= high.max_users_dl
    assert low.max_users_ul >= high.max_users_ul


@pytest.mark.parametrize(
    "radio",
    [
        OMNI,
        RadioConfig(antenna=AasAntenna(), gnb_nf_db=5.0, ue_nf_db=9.0),
        RadioConfig(antenna=DasAntenna(), gnb_nf_db=19.0),
    ],
    ids=["omni", "aas", "das"],
)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(order=st.permutations(range(12)))
def test_sinr_map_invariant_to_gnb_order(radio, order):
    """Median-channel SINR does not change when the gNB positions are permuted.

    The median channel of a link depends on the gNB's position, not its
    index; each point is served by its strongest cell wherever that cell
    sits in the list, and interference sums over the other cells, whose
    order moves only the last bits.  No 5 m grid point is equidistant from
    two of the 12 gNBs, so no tie can hand a point to a different cell.
    """
    scenario = dataclasses.replace(SCENARIO, gnb_positions=gnb_grid(2, 6, 8.0, HALL))
    permuted = dataclasses.replace(scenario, gnb_positions=tuple(scenario.gnb_positions[i] for i in order))
    b = band("DDDSU")
    for direction in ("DL", "UL"):
        want = sinr_grid(scenario, b, radio, direction, resolution_m=5.0, activity=0.7).grid
        got = sinr_grid(permuted, b, radio, direction, resolution_m=5.0, activity=0.7).grid
        # as linear ratios: a relative bound in dB breaks near 0 dB
        np.testing.assert_allclose(10.0 ** (got / 10.0), 10.0 ** (want / 10.0), rtol=1e-12, err_msg=direction)


# HiGHS solves to feasibility tolerances of 1e-7; these tiny LPs agree to
# about 1e-14 of their min SE, and a relative 1e-9 sits between the two
LP_RTOL = 1e-9


@st.composite
def cell_free(draw, extra_points: int = 0) -> CellFreeScenario:
    """A 2-4 AP, 2-4 user, 1-3 test point instance; ``extra_points`` more test points are appended."""
    m, k, l = draw(st.integers(2, 4)), draw(st.integers(2, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def channels(n: int) -> np.ndarray:
        return np.sqrt(rng.uniform(0.01, 1.0, (m, n))) * np.exp(2j * np.pi * rng.uniform(size=(m, n)))

    h, g = channels(k), channels(l + extra_points)
    # from a ceiling that binds hard to one that binds barely or not at all
    gamma = rng.uniform(0.05, 1.0) * float(np.max(np.sum(np.abs(g[:, :l]) ** 2, axis=0)))
    return CellFreeScenario(h=h, g=g, p_t_mw=1.0, noise_mw=rng.uniform(0.1, 2.0), gamma_norm=gamma)


def min_se(scenario: CellFreeScenario, h=None, g=None) -> float:
    sc = dataclasses.replace(scenario, h=scenario.h if h is None else h, g=scenario.g if g is None else g)
    return solve_maxmin(sc, use_exclusion=True).min_se


@settings(max_examples=25, deadline=None, derandomize=True)
@given(scenario=cell_free(), data=st.data())
def test_exclusion_invariant_to_ap_order(scenario, data):
    """Permuting the APs leaves the max-min SE unchanged.

    An AP enters the program only through its row of channels: its budget
    row, its user channels and its test-point channels move together, so a
    permuted AP order relabels the LP's variables and rows, and its optimum
    stays.
    """
    order = data.draw(st.permutations(range(scenario.m_aps)))
    got = min_se(scenario, h=scenario.h[order], g=scenario.g[order])
    assert got == pytest.approx(min_se(scenario), rel=LP_RTOL)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(scenario=cell_free(), data=st.data())
def test_exclusion_invariant_to_user_order(scenario, data):
    """Permuting the users leaves the max-min SE unchanged.

    Every user has one equality row and the same common target s, and the
    minimum over users does not see their order; a permutation relabels
    the rho columns and the user rows.
    """
    order = data.draw(st.permutations(range(scenario.k_users)))
    got = min_se(scenario, h=scenario.h[:, order])
    assert got == pytest.approx(min_se(scenario), rel=LP_RTOL)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(scenario=cell_free(), data=st.data())
def test_exclusion_invariant_to_test_point_order(scenario, data):
    """Permuting the test points leaves the max-min SE unchanged.

    Each test point adds one ceiling row with the same bound gamma; a set
    of rows has no order, so the feasible set and its optimum stay.
    """
    order = data.draw(st.permutations(range(scenario.l_points)))
    got = min_se(scenario, g=scenario.g[:, order])
    assert got == pytest.approx(min_se(scenario), rel=LP_RTOL)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(scenario=cell_free(extra_points=1))
def test_adding_a_test_point_never_raises_exclusion_min_se(scenario):
    """A further test point can only lower the max-min SE.

    It adds one ceiling row and removes none, so the feasible set of
    power allocations can only shrink, and the maximum of the worst user's
    SE over it cannot rise.
    """
    fewer = min_se(scenario, g=scenario.g[:, :-1])
    assert min_se(scenario) <= fewer * (1.0 + LP_RTOL)
