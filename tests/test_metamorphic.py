"""Metamorphic relations of the capacity engine: how its output must move when an input moves.

The engine has no closed-form oracle at scale, so these relations pin its
behaviour instead.  Each test's docstring gives the model reason the
relation holds.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrfactory.capacity import ResourceModel, evaluate_load, max_served_users
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
