import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from nrfactory.config import (
    PRESET_NAMES,
    load_preset,
    load_scenario,
    preset_checksum,
    save_scenario,
    scenario_to_dict,
)
from nrfactory.errors import ParseError, UnknownKey, ValidationError
from nrfactory.radiolink import AasAntenna, OmniAntenna
from nrfactory.usecases import builtin_use_cases

FULL_FILE = """
scenario:
  hall_length_m: 120
  hall_width_m: 50
  hall_height_m: 10
  ue_height_m: 1.5
  clutter_density: 0.6
  clutter_height_m: 6
  clutter_size_m: 2
  scenario_type: InF_DH
  n_gnbs: 12
  gnb_height_m: 8
  seed: 1
band:
  preset: tdd3800
  tdd_pattern: DUDU
radio:
  antenna: aas
  aas_suppression_db: 18
scheduling:
  ul_access: configured_grant
  pdcch_occasions_per_slot: 2
usecase:
  name: UC1
coexistence:
  indoor_pattern: DDDDUDDDUU
  outdoor_pattern: DDDDU
  ue_separation_m: 1.0
exclusion:
  preset: table15
  seed: 3
  gamma_dbm: -110
"""


class TestPresets:
    def test_tdd3800_values(self):
        cfg = load_scenario({"band": {"preset": "tdd3800"}})
        assert cfg.band.bandwidth_mhz == 100
        assert cfg.band.scs_khz == 30
        assert cfg.band.carrier_ghz == 3.8
        assert cfg.radio.gnb_tx_dbm == 30
        assert cfg.radio.ul_pc.alpha == 0.8
        assert cfg.radio.ul_pc.snr_target_db == 10

    def test_fdd2100_values(self):
        cfg = load_scenario({"band": {"preset": "fdd2100"}})
        assert cfg.band.duplex == "FDD"
        assert cfg.band.tdd_pattern is None
        assert cfg.band.bandwidth_mhz == 20
        assert cfg.radio.ue_gain_dbi == 0

    def test_tdd26000_values(self):
        cfg = load_scenario({"band": {"preset": "tdd26000"}})
        assert cfg.band.scs_khz == 120
        assert cfg.band.bandwidth_mhz == 400
        assert cfg.radio.ue_gain_dbi == 9

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            load_preset("tdd9999")

    def test_checksum_stable(self):
        assert preset_checksum() == preset_checksum()
        assert len(preset_checksum()) == 16


class TestLoadScenario:
    def test_full_file(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(FULL_FILE)
        cfg = load_scenario(path)
        assert str(cfg.band.tdd_pattern) == "DUDU"
        assert isinstance(cfg.radio.antenna, AasAntenna)
        assert cfg.radio.antenna.suppression_db == 18
        assert cfg.scheduling.ul_access == "configured_grant"
        assert cfg.use_case.name.startswith("UC1")
        assert cfg.coexistence.ue_separation_m == 1.0
        assert cfg.exclusion.gamma_dbm == -110
        assert len(cfg.scenario.gnb_positions) == 12
        # carrier propagates from band to scenario
        assert cfg.scenario.carrier_ghz == 3.8

    def test_empty_gives_defaults(self):
        cfg = load_scenario({})
        assert cfg.band.duplex == "TDD"
        assert isinstance(cfg.radio.antenna, OmniAntenna)
        assert cfg.use_case is None

    def test_unknown_section(self):
        with pytest.raises(UnknownKey):
            load_scenario({"bandx": {}})

    def test_unknown_key_in_section(self):
        with pytest.raises(UnknownKey):
            load_scenario({"radio": {"antenna": "omni", "txpower": 30}})

    def test_das_heads_rejected(self, tmp_path):
        # a DAS's heads are the scenario's gNB positions; no key counts them
        path = tmp_path / "das.yaml"
        path.write_text("radio:\n  antenna: das\n  das_heads: 12\n")
        with pytest.raises(UnknownKey):
            load_scenario(path)

    def test_empty_usecase_name(self):
        with pytest.raises(ValidationError):
            load_scenario({"usecase": {"name": ""}})

    def test_inline_usecase(self):
        cfg = load_scenario(
            {
                "usecase": {
                    "name": "custom",
                    "message_size_bytes": 200,
                    "cycle_time_ms": 2.0,
                    "latency_bound_ms": 4.0,
                    "network_reliability": 0.999,
                }
            }
        )
        assert cfg.use_case.message_size_bytes == 200
        assert cfg.use_case.implied_bitrate_mbps == pytest.approx(0.8)

    def test_inline_usecase_missing_field(self):
        with pytest.raises(ValidationError):
            load_scenario({"usecase": {"name": "custom", "message_size_bytes": 200}})

    def test_bad_value_reports_key(self):
        with pytest.raises(ValidationError) as err:
            load_scenario({"band": {"carrier_ghz": "not-a-number"}})
        assert "carrier_ghz" in str(err.value)

    def test_parse_error_position(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("band:\n  scs_khz: 30\n bad indent: x\n")
        with pytest.raises(ParseError) as err:
            load_scenario(path)
        assert "line" in str(err.value)

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_scenario("/nonexistent/path.yaml")

    def test_fdd_with_pattern_rejected(self):
        with pytest.raises(ValidationError):
            load_scenario({"band": {"duplex": "FDD", "tdd_pattern": "DUDU"}})


class TestRoundTrip:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(FULL_FILE)
        cfg = load_scenario(path)
        out = tmp_path / "serialized.yaml"
        save_scenario(cfg, out)
        cfg2 = load_scenario(out)
        assert cfg2 == cfg
        # and serialization is a fixed point
        assert scenario_to_dict(cfg2) == scenario_to_dict(cfg)

    def test_round_trip_defaults(self, tmp_path):
        cfg = load_scenario({})
        out = tmp_path / "defaults.yaml"
        save_scenario(cfg, out)
        assert load_scenario(out) == cfg

    def test_round_trip_with_explicit_positions(self, tmp_path):
        cfg = load_scenario(
            {"scenario": {"gnb_positions_m": [[10, 10, 8], [50, 25, 8]]}}
        )
        out = tmp_path / "pos.yaml"
        save_scenario(cfg, out)
        cfg2 = load_scenario(out)
        assert cfg2.scenario.gnb_positions == cfg.scenario.gnb_positions


@st.composite
def scenario_sources(draw) -> dict:
    """A preset, its TDD pattern, an antenna, and optional scheduling and use case."""
    preset = draw(st.sampled_from(PRESET_NAMES))
    band = {"preset": preset}
    if load_preset(preset)["band"]["duplex"] == "TDD":
        band["tdd_pattern"] = draw(st.text(alphabet="DSU", min_size=1, max_size=10))
    source = {"band": band, "radio": {"antenna": draw(st.sampled_from(["omni", "das", "aas"]))}}
    scheduling = draw(st.none() | st.fixed_dictionaries({}, optional={
        "pdcch_occasions_per_slot": st.integers(1, 14),
        "harq_feedback_occasions_per_slot": st.integers(1, 14),
        "ul_access": st.sampled_from(["sr_based", "configured_grant"]),
        "ue_capability": st.sampled_from(["cap1", "cap2"]),
        "sr_opportunities_per_slot": st.integers(1, 14),
    }))
    if scheduling is not None:
        source["scheduling"] = scheduling
    use_case = draw(st.none() | st.sampled_from([c.name for c in builtin_use_cases()]))
    if use_case is not None:
        source["usecase"] = {"name": use_case}
    return source


@settings(derandomize=True, deadline=None)
@given(scenario_sources())
def test_round_trip_property(source):
    cfg = load_scenario(source)
    assert load_scenario(scenario_to_dict(cfg)) == cfg


class TestProcessingTimesFile:
    def test_custom_table_loaded_and_round_trips(self, tmp_path):
        table_file = tmp_path / "proc.yaml"
        table_file.write_text(
            "pdsch:\n  cap1: {15: 7, 30: 9, 60: 15, 120: 18}\n"
            "  cap2: {15: 3, 30: 4, 60: 8, 120: 18}\n"
            "pusch:\n  cap1: {15: 9, 30: 11, 60: 20, 120: 30}\n"
            "  cap2: {15: 4, 30: 5, 60: 10, 120: 30}\n"
        )
        cfg = load_scenario({"scheduling": {"processing_times_file": str(table_file)}})
        assert cfg.scheduling.processing_symbols("pdsch", 30) == 9
        out = tmp_path / "roundtrip.yaml"
        save_scenario(cfg, out)
        assert load_scenario(out) == cfg

    def test_cap2_slower_than_cap1_rejected(self, tmp_path):
        table_file = tmp_path / "bad.yaml"
        table_file.write_text(
            "pdsch:\n  cap1: {30: 9}\n  cap2: {30: 99}\n"
            "pusch:\n  cap1: {30: 11}\n  cap2: {30: 5}\n"
        )
        with pytest.raises(ValidationError):
            load_scenario({"scheduling": {"processing_times_file": str(table_file)}})
