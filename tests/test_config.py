import re
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from nrfactory.cli import main
from nrfactory.config import (
    PRESET_NAMES,
    TABLES,
    load_preset,
    load_scenario,
    preset_checksum,
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
exclusion:
  gamma_dbm: -110
"""


def save(cfg, path):
    path.write_text(yaml.safe_dump(scenario_to_dict(cfg), sort_keys=True))


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

    def test_changing_a_loaded_preset_changes_no_later_load(self):
        before = load_scenario({"band": {"preset": "tdd3800"}})
        preset = load_preset("tdd3800")
        preset["band"]["carrier_ghz"] = 28.0
        preset["radio"].clear()
        assert load_preset("tdd3800") != preset
        assert load_scenario({"band": {"preset": "tdd3800"}}) == before

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


INLINE_USECASE = {
    "name": "custom", "message_size_bytes": 200, "cycle_time_ms": 2.0,
    "latency_bound_ms": 4.0, "network_reliability": 0.999,
}
# Files the loader rejects: a removed key, keys that override each other, or a
# malformed value.  Each row: (source, error, a word the message must name).
REJECTED = {
    **{
        f"coexistence.{key}": ({"coexistence": {key: value}}, UnknownKey, "coexistence")
        for key, value in [
            ("indoor_pattern", "DDDDUDDDUU"), ("outdoor_pattern", "DDDDU"),
            ("indoor_special_split", [10, 2, 2]), ("outdoor_special_split", [10, 2, 2]),
            ("ue_separation_m", 1.0), ("wall_loss_db", 8.0), ("slot_offset_slots", 0),
        ]
    },
    "exclusion.seed": ({"exclusion": {"seed": 9}}, UnknownKey, "seed"),
    "exclusion.preset": ({"exclusion": {"preset": "table15"}}, UnknownKey, "preset"),
    "scenario.seed": ({"scenario": {"seed": 7}}, UnknownKey, "seed"),
    "scenario.carrier_ghz": ({"band": {"preset": "tdd3800"}, "scenario": {"carrier_ghz": 28.0}}, UnknownKey,
                             "carrier_ghz"),
    **{
        f"usecase.{key}": ({"usecase": {**INLINE_USECASE, key: value}}, UnknownKey, key)
        for key, value in [("csa_nines_min", 4.0), ("csa_nines_max", 4.0), ("survival_time_cycles", 0)]
    },
    "das+omni_gain_dbi": ({"radio": {"antenna": "das", "omni_gain_dbi": 99}}, ValidationError, "omni_gain_dbi"),
    "omni+aas_rows": ({"radio": {"antenna": "omni", "aas_rows": 64}}, ValidationError, "aas_rows"),
    "aas+das_head_gain_dbi": ({"radio": {"antenna": "aas", "das_head_gain_dbi": 50}}, ValidationError,
                              "das_head_gain_dbi"),
    "default-omni+das_head_gain_dbi": ({"radio": {"das_head_gain_dbi": 5}}, ValidationError, "das_head_gain_dbi"),
    "preset+own-omni_gain_dbi": ({"band": {"preset": "tdd3800"}, "radio": {"antenna": "aas", "omni_gain_dbi": 2}},
                                 ValidationError, "omni_gain_dbi"),
    "positions+n_gnbs": ({"scenario": {"gnb_positions_m": [[10, 10, 8]], "n_gnbs": 3}}, ValidationError, "n_gnbs"),
    "grid+n_gnbs": ({"scenario": {"gnb_grid": {"rows": 1, "cols": 3}, "n_gnbs": 3}}, ValidationError, "n_gnbs"),
    "positions+grid": ({"scenario": {"gnb_positions_m": [[10, 10, 8]], "gnb_grid": {"rows": 1, "cols": 3}}},
                       ValidationError, "gnb_grid"),
    "positions+gnb_height_m": ({"scenario": {"gnb_positions_m": [[10, 10, 8]], "gnb_height_m": 6}},
                               ValidationError, "gnb_height_m"),
    "grid-height+gnb_height_m": ({"scenario": {"gnb_grid": {"rows": 1, "cols": 3, "height_m": 7}, "gnb_height_m": 6}},
                                 ValidationError, "gnb_height_m"),
    "fdd+special_split": ({"band": {"duplex": "FDD", "special_split": [10, 2, 2]}}, ValidationError, "special_split"),
    "duplex-5": ({"band": {"duplex": 5}}, ValidationError, "duplex"),
    "grid-without-cols": ({"scenario": {"gnb_grid": {"rows": 2}}}, ValidationError, "gnb_grid"),
    "grid-rows-x": ({"scenario": {"gnb_grid": {"rows": "x", "cols": 2}}}, ValidationError, "gnb_grid"),
}


class TestRejected:
    @pytest.mark.parametrize("source, error, word", REJECTED.values(), ids=REJECTED.keys())
    def test_load_raises(self, source, error, word):
        with pytest.raises(error) as err:
            load_scenario(source)
        assert word in str(err.value)

    @pytest.mark.parametrize("source, error, word", REJECTED.values(), ids=REJECTED.keys())
    def test_capacity_exits_one(self, source, error, word, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(source))
        assert main(["capacity", "--config", str(path), "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert word in err and "Traceback" not in err

    @pytest.mark.parametrize("grid", [{"rows": 2}, {"rows": "x", "cols": 2}])
    def test_malformed_grid_exits_one_on_sinr_map(self, grid, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump({"scenario": {"gnb_grid": grid}}))
        assert main(["sinr-map", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "gnb_grid" in err and "Traceback" not in err

    def test_unknown_duplex_exits_one_on_latency(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text("band:\n  duplex: 5\n")
        assert main(["latency", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "duplex" in err and "Traceback" not in err

    @pytest.mark.parametrize("antenna", ["das", "aas"])
    def test_preset_omni_gain_dropped_for_other_antennas(self, antenna):
        cfg = load_scenario({"band": {"preset": "tdd3800"}, "radio": {"antenna": antenna}})
        assert cfg.radio.antenna == load_scenario({"radio": {"antenna": antenna}}).radio.antenna

    def test_grid_without_height_takes_gnb_height(self):
        cfg = load_scenario({"scenario": {"gnb_grid": {"rows": 1, "cols": 3}, "gnb_height_m": 6}})
        assert [p[2] for p in cfg.scenario.gnb_positions] == [6.0] * 3


# An integer key with a fractional value is rejected, not truncated.
FRACTIONAL = {
    "aas_rows": {"radio": {"antenna": "aas", "aas_rows": 2.7}},
    "n_gnbs": {"scenario": {"n_gnbs": 3.9}},
    "scs_khz": {"band": {"scs_khz": 30.5}},
    "max_reflections": {"exclusion": {"max_reflections": 1.5}},
    "k_points": {"exclusion": {"k_points": 8.5}},
    "gnb_grid": {"scenario": {"gnb_grid": {"rows": 1.5, "cols": 3}}},
    "special_split": {"band": {"special_split": [10, 2.5, 2]}},
}


class TestIntegerKeys:
    @pytest.mark.parametrize("key, source", FRACTIONAL.items(), ids=FRACTIONAL.keys())
    def test_fraction_rejected(self, key, source, tmp_path, capsys):
        with pytest.raises(ValidationError, match=key):
            load_scenario(source)
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(source))
        assert main(["capacity", "--config", str(path), "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    def test_integral_values_load(self):
        cfg = load_scenario({
            "radio": {"antenna": "aas", "aas_rows": 2.0},
            "scenario": {"gnb_grid": {"rows": 1.0, "cols": "3"}},
            "band": {"scs_khz": 30.0, "special_split": [10.0, 2, 2]},
            "exclusion": {"max_reflections": 2.0, "k_points": "8"},
        })
        assert cfg.radio.antenna.rows == 2 and type(cfg.radio.antenna.rows) is int
        assert len(cfg.scenario.gnb_positions) == 3
        assert cfg.band.scs_khz == 30 and cfg.band.tdd_pattern.special_split == (10, 2, 2)
        assert (cfg.exclusion.max_reflections, cfg.exclusion.k_points) == (2, 8)


def test_readme_example_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```yaml\n(.*?)```", readme.split("## Scenario files", 1)[1], re.S).group(1)
    cfg = load_scenario(yaml.safe_load(block))
    assert isinstance(cfg.radio.antenna, AasAntenna)
    assert str(cfg.band.tdd_pattern) == "DUDU"


class TestRoundTrip:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(FULL_FILE)
        cfg = load_scenario(path)
        out = tmp_path / "serialized.yaml"
        save(cfg, out)
        cfg2 = load_scenario(out)
        assert cfg2 == cfg
        # and serialization is a fixed point
        assert scenario_to_dict(cfg2) == scenario_to_dict(cfg)

    def test_round_trip_defaults(self, tmp_path):
        cfg = load_scenario({})
        out = tmp_path / "defaults.yaml"
        save(cfg, out)
        assert load_scenario(out) == cfg

    def test_round_trip_with_explicit_positions(self, tmp_path):
        cfg = load_scenario(
            {"scenario": {"gnb_positions_m": [[10, 10, 8], [50, 25, 8]]}}
        )
        out = tmp_path / "pos.yaml"
        save(cfg, out)
        cfg2 = load_scenario(out)
        assert cfg2.scenario.gnb_positions == cfg.scenario.gnb_positions


def floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False)


# A valid value for every key of the tables; scenario_sources decides which
# keys one file can set together.
VALUES = {
    "hall_length_m": floats(20, 200),
    "hall_width_m": floats(20, 100),
    "hall_height_m": floats(9, 20),
    "ue_height_m": floats(0.5, 3),
    "clutter_density": floats(0.05, 0.95),
    "clutter_height_m": floats(0.5, 12),
    "clutter_size_m": floats(0.5, 5),
    "scenario_type": st.sampled_from(["InF_DH", "InF_SH"]),
    "gnb_positions_m": st.lists(st.tuples(floats(0, 20), floats(0, 20), floats(1, 8.5)).map(list), max_size=4),
    "gnb_grid": st.fixed_dictionaries(
        {"rows": st.integers(1, 3), "cols": st.integers(1, 4)}, optional={"height_m": floats(1, 8.5)}
    ),
    "n_gnbs": st.integers(1, 12),
    "gnb_height_m": floats(1, 8.5),
    "preset": st.sampled_from(PRESET_NAMES),
    "duplex": st.sampled_from(["FDD", "TDD"]),
    "carrier_ghz": floats(0.5, 100),
    "bandwidth_mhz": floats(1, 400),
    "scs_khz": st.sampled_from([15, 30, 60, 120]),
    "tdd_pattern": st.text(alphabet="DSU", min_size=1, max_size=10),
    "special_split": st.sampled_from([[10, 2, 2], [6, 4, 4], [0, 2, 12], [12, 2, 0]]),
    "tti_symbols": st.integers(2, 14),
    "antenna": st.sampled_from(["omni", "das", "aas"]),
    "omni_gain_dbi": floats(-5, 10),
    "das_head_gain_dbi": floats(-5, 10),
    "aas_rows": st.integers(1, 8),
    "aas_cols": st.integers(1, 8),
    "aas_polarizations": st.integers(1, 2),
    "aas_element_gain_dbi": floats(0, 10),
    "aas_suppression_db": floats(0, 40),
    "gnb_tx_dbm": floats(-10, 50),
    "ue_tx_max_dbm": floats(-10, 30),
    "ue_gain_dbi": floats(0, 15),
    "gnb_nf_db": floats(0, 20),
    "ue_nf_db": floats(0, 20),
    "ul_snr_target_db": floats(-10, 30),
    "ul_alpha": floats(0, 1),
    "pdcch_occasions_per_slot": st.integers(1, 14),
    "harq_feedback_occasions_per_slot": st.integers(1, 14),
    "ul_access": st.sampled_from(["sr_based", "configured_grant"]),
    "ue_capability": st.sampled_from(["cap1", "cap2"]),
    "sr_opportunities_per_slot": st.integers(1, 14),
    "processing_times_file": st.just(str(resources.files("nrfactory.data").joinpath("processing_times.yaml"))),
    "name": st.text(min_size=1, max_size=12),
    "message_size_bytes": st.integers(1, 5000),
    "cycle_time_ms": floats(0.1, 100),
    "latency_bound_ms": floats(0.1, 100),
    "network_reliability": floats(0.5, 0.99999),
    "bitrate_mbps": floats(0.01, 100),
    "gamma_dbm": floats(-150, -50),
    "tol_bits": floats(1e-6, 1),
    "max_reflections": st.integers(0, 3),
    "k_points": st.integers(1, 200),
}
PRESET_DUPLEX = {name: load_preset(name)["band"]["duplex"] for name in PRESET_NAMES}
ANTENNA_KEYS = {
    kind: [key for key in TABLES["radio"] if key.startswith(prefix)]
    for kind, prefix in (("omni", "omni_"), ("das", "das_"), ("aas", "aas_"))
}


@st.composite
def scenario_sources(draw) -> dict:
    """A scenario file that may set any key of the tables, each to a valid value."""

    def some(keys) -> dict:
        return draw(st.fixed_dictionaries({}, optional={key: VALUES[key] for key in keys}))

    band = some(["preset", "duplex", "carrier_ghz", "bandwidth_mhz", "scs_khz", "tti_symbols"])
    if "preset" in band and "duplex" in band:  # a preset's own duplex, restated
        band["duplex"] = PRESET_DUPLEX[band["preset"]]
    if band.get("duplex", PRESET_DUPLEX.get(band.get("preset"), "TDD")) == "TDD":
        band.update(some(["tdd_pattern", "special_split"]))

    radio = some([key for key in TABLES["radio"] if not any(key in keys for keys in ANTENNA_KEYS.values())])
    radio.update(some(ANTENNA_KEYS[radio.get("antenna", "omni")]))  # every preset is omni

    scenario = some(["hall_length_m", "hall_width_m", "hall_height_m", "ue_height_m",
                     "clutter_density", "clutter_height_m", "clutter_size_m", "scenario_type"])
    layout = draw(st.sampled_from([None, "gnb_positions_m", "gnb_grid", "n_gnbs"]))
    if layout is not None:
        scenario[layout] = draw(VALUES[layout])
    if layout != "gnb_positions_m" and "height_m" not in scenario.get("gnb_grid", {}):
        scenario.update(some(["gnb_height_m"]))

    source = {"band": band, "radio": radio, "scenario": scenario}
    for section in ("scheduling", "exclusion"):
        if draw(st.booleans()):
            source[section] = some(TABLES[section])
    use_case = draw(st.sampled_from([None, "catalogue", "inline"]))
    if use_case == "catalogue":
        source["usecase"] = {"name": draw(st.sampled_from([c.name for c in builtin_use_cases()]))}
    elif use_case == "inline":
        required = ["name", "message_size_bytes", "cycle_time_ms", "latency_bound_ms", "network_reliability"]
        source["usecase"] = {**{key: draw(VALUES[key]) for key in required}, **some(["bitrate_mbps"])}
    return source


def test_round_trip_values_cover_every_key():
    assert set(VALUES) == {key for table in TABLES.values() for key in table}


@settings(derandomize=True, deadline=None)
@given(scenario_sources())
def test_round_trip_property(source):
    cfg = load_scenario(source)
    assert load_scenario(scenario_to_dict(cfg)) == cfg
    assert load_scenario(yaml.safe_load(yaml.safe_dump(scenario_to_dict(cfg)))) == cfg


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
        save(cfg, out)
        assert load_scenario(out) == cfg

    def test_cap2_slower_than_cap1_rejected(self, tmp_path):
        table_file = tmp_path / "bad.yaml"
        table_file.write_text(
            "pdsch:\n  cap1: {30: 9}\n  cap2: {30: 99}\n"
            "pusch:\n  cap1: {30: 11}\n  cap2: {30: 5}\n"
        )
        with pytest.raises(ValidationError):
            load_scenario({"scheduling": {"processing_times_file": str(table_file)}})


# One row per scenario-file key: a valid non-default value, the command whose
# -o output it must change, and the rest of the file it needs.
COMMANDS = {
    "latency": ["latency"],
    "sinr-map": ["sinr-map", "--resolution", "10"],
    "sinr-map-UL": ["sinr-map", "--resolution", "10", "--direction", "UL"],
    "capacity": ["capacity", "--seed", "1", "--drops", "1"],
    "exclusion": ["exclusion", "--seed", "1"],
}
AAS = {"radio": {"antenna": "aas"}}
INLINE = {"usecase": {
    "name": "custom", "message_size_bytes": 500, "cycle_time_ms": 5.0,
    "latency_bound_ms": 5.0, "network_reliability": 0.9999,
}, "scenario": {"n_gnbs": 3}}
SMALL_EXCLUSION = {"exclusion": {"k_points": 4, "max_reflections": 0}}
PROCESSING_TIMES = "pdsch: {cap1: {30: 5}}\npusch: {cap1: {30: 6}}\n"
EFFECTS = [
    ("hall_length_m", 60.0, "sinr-map", {}),
    ("hall_width_m", 30.0, "sinr-map", {}),
    ("ue_height_m", 3.0, "sinr-map", {}),
    ("clutter_density", 0.2, "sinr-map", {}),
    ("clutter_height_m", 3.0, "sinr-map", {}),
    ("clutter_size_m", 8.0, "sinr-map", {}),
    ("scenario_type", "InF_SH", "sinr-map", {}),
    ("gnb_positions_m", [[10, 10, 8], [60, 25, 8]], "sinr-map", {}),
    ("gnb_grid", {"rows": 1, "cols": 3}, "sinr-map", {}),
    ("n_gnbs", 3, "sinr-map", {}),
    ("gnb_height_m", 5.0, "sinr-map", {}),
    ("preset", "fdd2100", "latency", {}),
    ("duplex", "FDD", "latency", {}),
    ("carrier_ghz", 28.0, "sinr-map", {}),
    ("bandwidth_mhz", 20.0, "sinr-map", {}),
    ("scs_khz", 60, "latency", {}),
    ("tdd_pattern", "DUDU", "latency", {}),
    ("special_split", [0, 2, 12], "latency", {}),
    ("tti_symbols", 7, "latency", {}),
    ("antenna", "aas", "sinr-map", {}),
    ("omni_gain_dbi", 10.0, "sinr-map", {}),
    ("das_head_gain_dbi", 10.0, "sinr-map", {"radio": {"antenna": "das"}}),
    ("aas_rows", 8, "sinr-map", AAS),
    ("aas_cols", 8, "sinr-map", AAS),
    ("aas_polarizations", 1, "sinr-map", AAS),
    ("aas_element_gain_dbi", 8.0, "sinr-map", AAS),
    ("aas_suppression_db", 5.0, "sinr-map", AAS),
    ("gnb_tx_dbm", 10.0, "sinr-map", {}),
    ("ue_tx_max_dbm", -30.0, "sinr-map-UL", {}),
    ("ue_gain_dbi", 10.0, "sinr-map", {}),
    # UL power control offsets the gNB noise figure until the UE power caps
    ("gnb_nf_db", 10.0, "sinr-map-UL", {"radio": {"ue_tx_max_dbm": -30.0}}),
    ("ue_nf_db", 20.0, "sinr-map", {}),
    ("ul_snr_target_db", 20.0, "sinr-map-UL", {}),
    ("ul_alpha", 0.5, "sinr-map-UL", {}),
    ("pdcch_occasions_per_slot", 2, "latency", {}),
    ("harq_feedback_occasions_per_slot", 2, "latency", {}),
    ("ul_access", "configured_grant", "latency", {}),
    ("ue_capability", "cap2", "latency", {}),
    ("sr_opportunities_per_slot", 2, "latency", {}),
    ("processing_times_file", "proc.yaml", "latency", {}),
    ("name", "UC7", "capacity", {"scenario": {"n_gnbs": 3}}),
    ("message_size_bytes", 2000, "capacity", INLINE),
    ("cycle_time_ms", 2.0, "capacity", INLINE),
    ("latency_bound_ms", 2.0, "capacity", INLINE),
    ("network_reliability", 0.99, "capacity", INLINE),
    ("bitrate_mbps", 5.0, "capacity", INLINE),
    ("gamma_dbm", -100.0, "exclusion", SMALL_EXCLUSION),
    ("max_reflections", 1, "exclusion", SMALL_EXCLUSION),
    ("k_points", 3, "exclusion", SMALL_EXCLUSION),
]
# Keys that only bound other values, each with a value that breaks its bound.
BOUNDS = [
    ("hall_height_m", 5.0, "sinr-map", {}),  # the default gNBs hang at 8 m
    ("tol_bits", 0.0, "exclusion", SMALL_EXCLUSION),  # the LP's certified gap
]


def section_of(key: str) -> str:
    return next(section for section, table in TABLES.items() if key in table)


def with_key(source: dict, key: str, value) -> dict:
    section = section_of(key)
    return {**source, section: {**source.get(section, {}), key: value}}


def test_tables_list_51_keys_each_with_a_row():
    keys = [key for table in TABLES.values() for key in table]
    assert len(keys) == 51
    assert sorted(keys) == sorted(row[0] for row in EFFECTS + BOUNDS)


def run_with(command: str, source: dict) -> int:
    """Exit code of ``command`` on ``source`` written as scenario.yaml, output to ./out."""
    Path("scenario.yaml").write_text(yaml.safe_dump(source))
    return main([*COMMANDS[command], "--config", "scenario.yaml", "-o", "out"])


@pytest.mark.parametrize("key, value, command, context", EFFECTS, ids=[row[0] for row in EFFECTS])
def test_every_key_changes_the_output(key, value, command, context, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("proc.yaml").write_text(PROCESSING_TIMES)
    outputs = []
    for source in (context, with_key(context, key, value)):
        assert run_with(command, source) == 0
        outputs.append(Path("out").read_text())
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("key, value, command, context", BOUNDS, ids=[row[0] for row in BOUNDS])
def test_bounding_keys_reject_a_value_out_of_bound(key, value, command, context, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_with(command, context) == 0
    assert run_with(command, with_key(context, key, value)) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
