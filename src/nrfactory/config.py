"""Scenario file loading, validation, presets and serialization.

A scenario file is YAML with the sections ``scenario``, ``band``,
``radio``, ``scheduling``, ``usecase``, ``coexistence`` and ``exclusion``;
every key mirrors a typed field of the owning module, units embedded in
the key name.  Unknown keys are rejected.  A ``preset`` key in the band
section pulls band+radio defaults from one of the shipped data files
(fdd2100, tdd3800, tdd26000); explicit keys override the preset.  Loading
is idempotent: serializing a loaded scenario and loading it again yields
identical typed values.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Optional, Union

import yaml

from .errors import ParseError, UnknownKey, ValidationError
from .propagation import Clutter, FactoryScenario, Hall, default_gnb_layout, gnb_grid
from .radiolink import (
    AasAntenna,
    Antenna,
    BandConfig,
    DasAntenna,
    OmniAntenna,
    RadioConfig,
    UlPowerControl,
)
from .timing import SchedulingConfig, TddPattern
from .usecases import UseCaseSpec, builtin_use_cases, find_use_case

PRESET_NAMES = ("fdd2100", "tdd3800", "tdd26000")

SECTIONS = ("scenario", "band", "radio", "scheduling", "usecase", "coexistence", "exclusion")


@dataclass(frozen=True)
class CoexistenceSection:
    indoor_pattern: TddPattern
    outdoor_pattern: TddPattern
    ue_separation_m: float = 1.0
    wall_loss_db: float = 8.0
    slot_offset_slots: int = 0


@dataclass(frozen=True)
class ExclusionSection:
    preset: str = "table15"
    seed: int = 1
    gamma_dbm: float = -120.0
    tol_bits: float = 1e-4
    max_reflections: int = 1
    k_points: int = 112


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully parsed scenario file.

    ``scheduling`` stays None when the file has no [scheduling] section so
    each engine can apply its own default (the latency calculator's
    SR-based baseline vs the capacity engine's configured-grant setup).
    """

    scenario: FactoryScenario
    band: BandConfig
    radio: RadioConfig
    scheduling: Optional[SchedulingConfig] = None
    use_case: Optional[UseCaseSpec] = None
    coexistence: Optional[CoexistenceSection] = None
    exclusion: Optional[ExclusionSection] = None
    processing_times_file: Optional[str] = None


def _check_keys(section: str, data: dict, allowed: set[str]) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise UnknownKey(f"section [{section}]: unknown keys {sorted(unknown)}")


def _get(data: dict, key: str, default: Any, section: str, typ=None):
    value = data.get(key, default)
    if typ is not None and value is not None:
        try:
            value = typ(value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"section [{section}], key {key!r}: {exc}") from exc
    return value


def load_preset(name: str) -> dict:
    if name not in PRESET_NAMES:
        raise ValidationError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    text = resources.files("nrfactory.data.presets").joinpath(f"{name}.yaml").read_text()
    return yaml.safe_load(text)


def preset_checksum() -> str:
    """SHA-256 over all shipped data files, for provenance in --version."""
    digest = hashlib.sha256()
    data_root = resources.files("nrfactory.data")
    names = ["processing_times.yaml", "pathloss_inf.yaml", "rb_table.yaml"]
    for name in names:
        digest.update(data_root.joinpath(name).read_bytes())
    for name in PRESET_NAMES:
        digest.update(data_root.joinpath("presets").joinpath(f"{name}.yaml").read_bytes())
    return digest.hexdigest()[:16]


def _parse_band(data: dict) -> BandConfig:
    merged: dict = {}
    if "preset" in data:
        merged.update(load_preset(str(data["preset"]))["band"])
    merged.update({k: v for k, v in data.items() if k != "preset"})
    allowed = {
        "duplex", "carrier_ghz", "bandwidth_mhz", "scs_khz",
        "tdd_pattern", "special_split", "tti_symbols",
    }
    _check_keys("band", merged, allowed)
    duplex = _get(merged, "duplex", "TDD", "band", str).upper()
    pattern = None
    pattern_text = merged.get("tdd_pattern")
    if pattern_text is None and duplex == "TDD":
        pattern_text = "DDDSU"
    if pattern_text:
        split = merged.get("special_split", [10, 2, 2])
        try:
            pattern = TddPattern.from_string(str(pattern_text), tuple(int(s) for s in split))
        except Exception as exc:
            raise ValidationError(f"section [band], key 'tdd_pattern': {exc}") from exc
    try:
        return BandConfig(
            duplex=duplex,
            carrier_ghz=_get(merged, "carrier_ghz", 3.8, "band", float),
            bandwidth_mhz=_get(merged, "bandwidth_mhz", 100.0, "band", float),
            scs_khz=_get(merged, "scs_khz", 30, "band", int),
            tdd_pattern=pattern,
            tti_symbols=_get(merged, "tti_symbols", 14, "band", int),
        )
    except Exception as exc:
        raise ValidationError(f"section [band]: {exc}") from exc


def _parse_radio(data: dict, preset_radio: Optional[dict]) -> RadioConfig:
    merged: dict = dict(preset_radio or {})
    merged.update(data)
    allowed = {
        "antenna", "omni_gain_dbi", "das_head_gain_dbi",
        "aas_rows", "aas_cols", "aas_polarizations", "aas_element_gain_dbi",
        "aas_suppression_db", "gnb_tx_dbm", "ue_tx_max_dbm", "ue_gain_dbi",
        "gnb_nf_db", "ue_nf_db", "ul_snr_target_db", "ul_alpha",
    }
    _check_keys("radio", merged, allowed)
    kind = str(_get(merged, "antenna", "omni", "radio")).lower()
    antenna: Antenna
    if kind == "omni":
        antenna = OmniAntenna(gain_dbi=_get(merged, "omni_gain_dbi", 2.0, "radio", float))
    elif kind == "das":
        antenna = DasAntenna(head_gain_dbi=_get(merged, "das_head_gain_dbi", 0.0, "radio", float))
    elif kind == "aas":
        antenna = AasAntenna(
            rows=_get(merged, "aas_rows", 4, "radio", int),
            cols=_get(merged, "aas_cols", 4, "radio", int),
            polarizations=_get(merged, "aas_polarizations", 2, "radio", int),
            element_gain_dbi=_get(merged, "aas_element_gain_dbi", 5.0, "radio", float),
            suppression_db=_get(merged, "aas_suppression_db", 20.0, "radio", float),
        )
    else:
        raise ValidationError(f"section [radio], key 'antenna': unknown type {kind!r}")
    try:
        return RadioConfig(
            antenna=antenna,
            gnb_tx_dbm=_get(merged, "gnb_tx_dbm", 30.0, "radio", float),
            ue_tx_max_dbm=_get(merged, "ue_tx_max_dbm", 23.0, "radio", float),
            ue_gain_dbi=_get(merged, "ue_gain_dbi", 0.0, "radio", float),
            gnb_nf_db=_get(merged, "gnb_nf_db", 7.0, "radio", float),
            ue_nf_db=_get(merged, "ue_nf_db", 6.0, "radio", float),
            ul_pc=UlPowerControl(
                snr_target_db=_get(merged, "ul_snr_target_db", 10.0, "radio", float),
                alpha=_get(merged, "ul_alpha", 0.8, "radio", float),
            ),
        )
    except Exception as exc:
        raise ValidationError(f"section [radio]: {exc}") from exc


def _parse_scenario(data: dict, carrier_ghz: float) -> FactoryScenario:
    allowed = {
        "hall_length_m", "hall_width_m", "hall_height_m", "ue_height_m",
        "clutter_density", "clutter_height_m", "clutter_size_m",
        "scenario_type", "gnb_positions_m", "gnb_grid", "n_gnbs",
        "gnb_height_m", "seed", "carrier_ghz",
    }
    _check_keys("scenario", data, allowed)
    hall = Hall(
        length_m=_get(data, "hall_length_m", 120.0, "scenario", float),
        width_m=_get(data, "hall_width_m", 50.0, "scenario", float),
        height_m=_get(data, "hall_height_m", 10.0, "scenario", float),
    )
    height = _get(data, "gnb_height_m", 8.0, "scenario", float)
    if "gnb_positions_m" in data:
        try:
            positions = tuple(tuple(float(v) for v in p) for p in data["gnb_positions_m"])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"section [scenario], key 'gnb_positions_m': {exc}") from exc
    elif "gnb_grid" in data:
        grid = data["gnb_grid"]
        if not isinstance(grid, dict) or set(grid) - {"rows", "cols", "height_m"}:
            raise ValidationError("section [scenario], key 'gnb_grid': expected rows/cols/height_m")
        positions = gnb_grid(int(grid["rows"]), int(grid["cols"]), float(grid.get("height_m", height)), hall)
    else:
        positions = default_gnb_layout(_get(data, "n_gnbs", 12, "scenario", int), hall, height)
    try:
        return FactoryScenario(
            hall=hall,
            gnb_positions=positions,
            ue_height_m=_get(data, "ue_height_m", 1.5, "scenario", float),
            clutter=Clutter(
                density=_get(data, "clutter_density", 0.60, "scenario", float),
                height_m=_get(data, "clutter_height_m", 6.0, "scenario", float),
                size_m=_get(data, "clutter_size_m", 2.0, "scenario", float),
            ),
            scenario_type=_get(data, "scenario_type", "InF_DH", "scenario", str),
            carrier_ghz=_get(data, "carrier_ghz", carrier_ghz, "scenario", float),
            rng_seed=_get(data, "seed", 1, "scenario", int),
        )
    except Exception as exc:
        raise ValidationError(f"section [scenario]: {exc}") from exc


def load_processing_table(path: Union[str, Path]) -> dict:
    """Processing-time table from a user file (same schema as the shipped one)."""
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except FileNotFoundError:
        raise ParseError(f"{path}: no such file") from None
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: YAML parse error: {exc}") from exc
    table = {}
    try:
        for channel, caps in raw.items():
            for cap, per_scs in caps.items():
                for scs, symbols in per_scs.items():
                    table[(str(channel), str(cap), int(scs))] = float(symbols)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: bad processing-table structure: {exc}") from exc
    return table


def _parse_scheduling(data: dict, tti_symbols: int) -> SchedulingConfig:
    allowed = {
        "pdcch_occasions_per_slot", "harq_feedback_occasions_per_slot",
        "ul_access", "ue_capability", "sr_opportunities_per_slot",
        "processing_times_file",
    }
    _check_keys("scheduling", data, allowed)
    kwargs = {}
    if "processing_times_file" in data:
        kwargs["processing_table"] = load_processing_table(str(data["processing_times_file"]))
    try:
        return SchedulingConfig(
            tti_symbols=tti_symbols,
            pdcch_occasions_per_slot=_get(data, "pdcch_occasions_per_slot", 1, "scheduling", int),
            harq_feedback_occasions_per_slot=_get(data, "harq_feedback_occasions_per_slot", 1, "scheduling", int),
            ul_access=_get(data, "ul_access", "sr_based", "scheduling", str),
            ue_capability=_get(data, "ue_capability", "cap1", "scheduling", str),
            sr_opportunities_per_slot=_get(data, "sr_opportunities_per_slot", 1, "scheduling", int),
            **kwargs,
        )
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(f"section [scheduling]: {exc}") from exc


def _parse_usecase(data: dict) -> UseCaseSpec:
    allowed = {
        "name", "message_size_bytes", "cycle_time_ms", "latency_bound_ms",
        "network_reliability", "survival_time_cycles", "bitrate_mbps",
        "csa_nines_min", "csa_nines_max",
    }
    _check_keys("usecase", data, allowed)
    name = data.get("name", "")
    if not name:
        raise ValidationError("section [usecase], key 'name': must be non-empty")
    if set(data) == {"name"}:
        try:
            return find_use_case(str(name))
        except Exception as exc:
            raise ValidationError(f"section [usecase], key 'name': {exc}") from exc
    for key in ("message_size_bytes", "cycle_time_ms", "latency_bound_ms", "network_reliability"):
        if key not in data:
            raise ValidationError(f"section [usecase], key {key!r}: required for inline use cases")
    try:
        return UseCaseSpec(
            name=str(name),
            message_size_bytes=_get(data, "message_size_bytes", None, "usecase", int),
            cycle_time_ms=_get(data, "cycle_time_ms", None, "usecase", float),
            latency_bound_ms=_get(data, "latency_bound_ms", None, "usecase", float),
            network_reliability=_get(data, "network_reliability", None, "usecase", float),
            survival_time_cycles=_get(data, "survival_time_cycles", 0, "usecase", int),
            csa_nines=(
                _get(data, "csa_nines_min", 4.0, "usecase", float),
                _get(data, "csa_nines_max", 4.0, "usecase", float),
            ),
            bitrate_mbps=_get(data, "bitrate_mbps", None, "usecase", float),
        )
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(f"section [usecase]: {exc}") from exc


def _parse_coexistence(data: dict) -> CoexistenceSection:
    allowed = {
        "indoor_pattern", "outdoor_pattern", "indoor_special_split",
        "outdoor_special_split", "ue_separation_m", "wall_loss_db",
        "slot_offset_slots",
    }
    _check_keys("coexistence", data, allowed)
    for key in ("indoor_pattern", "outdoor_pattern"):
        if key not in data:
            raise ValidationError(f"section [coexistence], key {key!r}: required")
    try:
        indoor = TddPattern.from_string(
            str(data["indoor_pattern"]),
            tuple(data.get("indoor_special_split", (10, 2, 2))),
        )
        outdoor = TddPattern.from_string(
            str(data["outdoor_pattern"]),
            tuple(data.get("outdoor_special_split", (10, 2, 2))),
        )
        return CoexistenceSection(
            indoor_pattern=indoor,
            outdoor_pattern=outdoor,
            ue_separation_m=_get(data, "ue_separation_m", 1.0, "coexistence", float),
            wall_loss_db=_get(data, "wall_loss_db", 8.0, "coexistence", float),
            slot_offset_slots=_get(data, "slot_offset_slots", 0, "coexistence", int),
        )
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(f"section [coexistence]: {exc}") from exc


def _parse_exclusion(data: dict) -> ExclusionSection:
    allowed = {"preset", "seed", "gamma_dbm", "tol_bits", "max_reflections", "k_points"}
    _check_keys("exclusion", data, allowed)
    preset = str(_get(data, "preset", "table15", "exclusion"))
    if preset != "table15":
        raise ValidationError(f"section [exclusion], key 'preset': unknown {preset!r}")
    try:
        return ExclusionSection(
            preset=preset,
            seed=_get(data, "seed", 1, "exclusion", int),
            gamma_dbm=_get(data, "gamma_dbm", -120.0, "exclusion", float),
            tol_bits=_get(data, "tol_bits", 1e-4, "exclusion", float),
            max_reflections=_get(data, "max_reflections", 1, "exclusion", int),
            k_points=_get(data, "k_points", 112, "exclusion", int),
        )
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(f"section [exclusion]: {exc}") from exc


def load_scenario(source: Union[str, Path, dict]) -> ScenarioConfig:
    """Load and validate a scenario file (path or pre-parsed mapping)."""
    if isinstance(source, dict):
        raw = source
    else:
        path = Path(source)
        try:
            raw = yaml.safe_load(path.read_text())
        except FileNotFoundError:
            raise ParseError(f"{path}: no such file") from None
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            raise ParseError(f"{path}: YAML parse error{where}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ParseError("scenario file must be a mapping of sections")
    unknown = set(raw) - set(SECTIONS)
    if unknown:
        raise UnknownKey(f"unknown sections {sorted(unknown)}; expected {SECTIONS}")
    for section, content in raw.items():
        if content is not None and not isinstance(content, dict):
            raise ValidationError(f"section [{section}] must be a mapping")

    band_data = dict(raw.get("band") or {})
    preset_radio = None
    if "preset" in band_data:
        preset_radio = load_preset(str(band_data["preset"])).get("radio")
    band = _parse_band(band_data)
    radio = _parse_radio(dict(raw.get("radio") or {}), preset_radio)
    scenario = _parse_scenario(dict(raw.get("scenario") or {}), band.carrier_ghz)
    sched_section = dict(raw.get("scheduling") or {})
    scheduling = _parse_scheduling(sched_section, band.tti_symbols) if raw.get("scheduling") else None
    use_case = _parse_usecase(dict(raw["usecase"])) if raw.get("usecase") else None
    coexist = _parse_coexistence(dict(raw["coexistence"])) if raw.get("coexistence") else None
    exclusion = _parse_exclusion(dict(raw["exclusion"])) if raw.get("exclusion") else None
    return ScenarioConfig(
        scenario=scenario,
        band=band,
        radio=radio,
        scheduling=scheduling,
        use_case=use_case,
        coexistence=coexist,
        exclusion=exclusion,
        processing_times_file=(
            str(sched_section["processing_times_file"])
            if "processing_times_file" in sched_section
            else None
        ),
    )


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Fully resolved mapping that loads back to identical typed values."""
    band = config.band
    band_out: dict[str, Any] = {
        "duplex": band.duplex,
        "carrier_ghz": band.carrier_ghz,
        "bandwidth_mhz": band.bandwidth_mhz,
        "scs_khz": band.scs_khz,
        "tti_symbols": band.tti_symbols,
    }
    if band.tdd_pattern is not None:
        band_out["tdd_pattern"] = str(band.tdd_pattern)
        band_out["special_split"] = list(band.tdd_pattern.special_split)

    radio = config.radio
    radio_out: dict[str, Any] = {
        "gnb_tx_dbm": radio.gnb_tx_dbm,
        "ue_tx_max_dbm": radio.ue_tx_max_dbm,
        "ue_gain_dbi": radio.ue_gain_dbi,
        "gnb_nf_db": radio.gnb_nf_db,
        "ue_nf_db": radio.ue_nf_db,
        "ul_snr_target_db": radio.ul_pc.snr_target_db,
        "ul_alpha": radio.ul_pc.alpha,
    }
    if isinstance(radio.antenna, OmniAntenna):
        radio_out["antenna"] = "omni"
        radio_out["omni_gain_dbi"] = radio.antenna.gain_dbi
    elif isinstance(radio.antenna, DasAntenna):
        radio_out["antenna"] = "das"
        radio_out["das_head_gain_dbi"] = radio.antenna.head_gain_dbi
    else:
        radio_out["antenna"] = "aas"
        radio_out["aas_rows"] = radio.antenna.rows
        radio_out["aas_cols"] = radio.antenna.cols
        radio_out["aas_polarizations"] = radio.antenna.polarizations
        radio_out["aas_element_gain_dbi"] = radio.antenna.element_gain_dbi
        radio_out["aas_suppression_db"] = radio.antenna.suppression_db

    sc = config.scenario
    scenario_out = {
        "hall_length_m": sc.hall.length_m,
        "hall_width_m": sc.hall.width_m,
        "hall_height_m": sc.hall.height_m,
        "ue_height_m": sc.ue_height_m,
        "clutter_density": sc.clutter.density,
        "clutter_height_m": sc.clutter.height_m,
        "clutter_size_m": sc.clutter.size_m,
        "scenario_type": sc.scenario_type,
        "carrier_ghz": sc.carrier_ghz,
        "seed": sc.rng_seed,
        "gnb_positions_m": [list(p) for p in sc.gnb_positions],
    }

    out: dict[str, Any] = {
        "scenario": scenario_out,
        "band": band_out,
        "radio": radio_out,
    }
    sched = config.scheduling
    if sched is not None:
        out["scheduling"] = {
            "pdcch_occasions_per_slot": sched.pdcch_occasions_per_slot,
            "harq_feedback_occasions_per_slot": sched.harq_feedback_occasions_per_slot,
            "ul_access": sched.ul_access,
            "ue_capability": sched.ue_capability,
            "sr_opportunities_per_slot": sched.sr_opportunities_per_slot,
        }
        if config.processing_times_file is not None:
            out["scheduling"]["processing_times_file"] = config.processing_times_file
    uc = config.use_case
    if uc is not None and uc in builtin_use_cases():
        # by name: catalogue rows carry ranges that no inline key holds
        out["usecase"] = {"name": uc.name}
    elif uc is not None:
        out["usecase"] = {
            "name": uc.name,
            "message_size_bytes": uc.message_size_bytes,
            "cycle_time_ms": uc.cycle_time_ms,
            "latency_bound_ms": uc.latency_bound_ms,
            "network_reliability": uc.network_reliability,
            "survival_time_cycles": uc.survival_time_cycles,
            "csa_nines_min": uc.csa_nines[0],
            "csa_nines_max": uc.csa_nines[1],
        }
        if uc.bitrate_mbps is not None:
            out["usecase"]["bitrate_mbps"] = uc.bitrate_mbps
    if config.coexistence is not None:
        co = config.coexistence
        out["coexistence"] = {
            "indoor_pattern": str(co.indoor_pattern),
            "outdoor_pattern": str(co.outdoor_pattern),
            "indoor_special_split": list(co.indoor_pattern.special_split),
            "outdoor_special_split": list(co.outdoor_pattern.special_split),
            "ue_separation_m": co.ue_separation_m,
            "wall_loss_db": co.wall_loss_db,
            "slot_offset_slots": co.slot_offset_slots,
        }
    if config.exclusion is not None:
        ex = config.exclusion
        out["exclusion"] = {
            "preset": ex.preset,
            "seed": ex.seed,
            "gamma_dbm": ex.gamma_dbm,
            "tol_bits": ex.tol_bits,
            "max_reflections": ex.max_reflections,
            "k_points": ex.k_points,
        }
    return out


def save_scenario(config: ScenarioConfig, path: Union[str, Path]) -> None:
    Path(path).write_text(yaml.safe_dump(scenario_to_dict(config), sort_keys=True))
