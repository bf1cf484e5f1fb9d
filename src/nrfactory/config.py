"""Scenario file loading, validation, presets and serialization.

A scenario file is YAML with the sections ``scenario``, ``band``,
``radio``, ``scheduling``, ``usecase`` and ``exclusion``.  One table per
section (``TABLES``) declares its keys: the ScenarioConfig field each key
sets, the converter that reads it and its default, units embedded in the
key name.  The tables drive parsing, the unknown-key check and
serialization, so every key either sets a field or is rejected.  A
``preset`` key in the band section pulls band+radio defaults from one of
the shipped data files (fdd2100, tdd3800, tdd26000); explicit keys override
the preset.  Loading is idempotent: serializing a loaded scenario and
loading it again yields identical typed values.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Optional, Union

import yaml

from .errors import DomainError, ParseError, UnknownKey, ValidationError
from .propagation import Clutter, FactoryScenario, Hall, default_gnb_layout, gnb_grid
from .radiolink import AasAntenna, BandConfig, DasAntenna, OmniAntenna, RadioConfig, UlPowerControl
from .timing import SchedulingConfig, TddPattern, load_processing_table
from .usecases import UseCaseSpec, builtin_use_cases, find_use_case

PRESET_NAMES = ("fdd2100", "tdd3800", "tdd26000")

ANTENNAS = {"omni": OmniAntenna, "das": DasAntenna, "aas": AasAntenna}
ANTENNA_NAMES = {cls: name for name, cls in ANTENNAS.items()}


@dataclass(frozen=True)
class ExclusionSection:
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
    exclusion: Optional[ExclusionSection] = None
    processing_times_file: Optional[str] = None


def _plain(value):
    """A typed value as YAML data: tuples become lists."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


@dataclass(frozen=True)
class Key:
    """One scenario-file key: the dotted ScenarioConfig attribute path it sets, or
    None for a key that only shapes other fields (the preset, the gNB layout)."""

    field: Optional[str]
    read: Callable[[Any], Any] = float
    default: Any = None
    write: Callable[[Any], Any] = _plain


def _int(value) -> int:
    """An integer key's value; a number with a fractional part is an error, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _pattern(value) -> tuple[str, ...]:
    return TddPattern.from_string(str(value)).slots


def _split(value) -> tuple[int, int, int]:
    return TddPattern(("S",), tuple(map(_int, value))).special_split


def _antenna(value) -> str:
    kind = str(value).lower()
    if kind not in ANTENNAS:
        raise ValueError(f"unknown type {kind!r}")
    return kind


def _grid(value) -> dict:
    if not isinstance(value, dict) or not {"rows", "cols"} <= set(value) <= {"rows", "cols", "height_m"}:
        raise ValueError("expected rows, cols and an optional height_m")
    return {k: (float if k == "height_m" else _int)(v) for k, v in value.items()}


TABLES: dict[str, dict[str, Key]] = {
    "scenario": {
        "hall_length_m": Key("scenario.hall.length_m", float, 120.0),
        "hall_width_m": Key("scenario.hall.width_m", float, 50.0),
        "hall_height_m": Key("scenario.hall.height_m", float, 10.0),
        "ue_height_m": Key("scenario.ue_height_m", float, 1.5),
        "clutter_density": Key("scenario.clutter.density", float, 0.6),
        "clutter_height_m": Key("scenario.clutter.height_m", float, 6.0),
        "clutter_size_m": Key("scenario.clutter.size_m", float, 2.0),
        "scenario_type": Key("scenario.scenario_type", str, "InF_DH"),
        # one layout key: explicit positions, a ceiling grid, or a gNB count
        "gnb_positions_m": Key("scenario.gnb_positions", lambda v: tuple(tuple(map(float, xyz)) for xyz in v)),
        "gnb_grid": Key(None, _grid),
        "n_gnbs": Key(None, _int, 12),
        "gnb_height_m": Key(None, float, 8.0),
    },
    "band": {
        "preset": Key(None, str),
        "duplex": Key("band.duplex", lambda v: str(v).upper(), "TDD"),
        "carrier_ghz": Key("band.carrier_ghz", float, 3.8),
        "bandwidth_mhz": Key("band.bandwidth_mhz", float, 100.0),
        "scs_khz": Key("band.scs_khz", _int, 30),
        "tdd_pattern": Key("band.tdd_pattern.slots", _pattern, write="".join),
        "special_split": Key("band.tdd_pattern.special_split", _split, (10, 2, 2)),
        "tti_symbols": Key("band.tti_symbols", _int, 14),
    },
    "radio": {
        "antenna": Key("radio.antenna", _antenna, "omni", write=lambda a: ANTENNA_NAMES[type(a)]),
        "omni_gain_dbi": Key("radio.antenna.gain_dbi", float, 2.0),
        "das_head_gain_dbi": Key("radio.antenna.head_gain_dbi", float, 0.0),
        "aas_rows": Key("radio.antenna.rows", _int, 4),
        "aas_cols": Key("radio.antenna.cols", _int, 4),
        "aas_polarizations": Key("radio.antenna.polarizations", _int, 2),
        "aas_element_gain_dbi": Key("radio.antenna.element_gain_dbi", float, 5.0),
        "aas_suppression_db": Key("radio.antenna.suppression_db", float, 20.0),
        "gnb_tx_dbm": Key("radio.gnb_tx_dbm", float, 30.0),
        "ue_tx_max_dbm": Key("radio.ue_tx_max_dbm", float, 23.0),
        "ue_gain_dbi": Key("radio.ue_gain_dbi", float, 0.0),
        "gnb_nf_db": Key("radio.gnb_nf_db", float, 7.0),
        "ue_nf_db": Key("radio.ue_nf_db", float, 6.0),
        "ul_snr_target_db": Key("radio.ul_pc.snr_target_db", float, 10.0),
        "ul_alpha": Key("radio.ul_pc.alpha", float, 0.8),
    },
    "scheduling": {
        "pdcch_occasions_per_slot": Key("scheduling.pdcch_occasions_per_slot", _int, 1),
        "harq_feedback_occasions_per_slot": Key("scheduling.harq_feedback_occasions_per_slot", _int, 1),
        "ul_access": Key("scheduling.ul_access", str, "sr_based"),
        "ue_capability": Key("scheduling.ue_capability", str, "cap1"),
        "sr_opportunities_per_slot": Key("scheduling.sr_opportunities_per_slot", _int, 1),
        "processing_times_file": Key("processing_times_file", str),
    },
    # a name alone selects a catalogue row; the other keys define an inline
    # use case, with 4 nines of CSA and no survival time
    "usecase": {
        "name": Key("use_case.name", str),
        "message_size_bytes": Key("use_case.message_size_bytes", _int),
        "cycle_time_ms": Key("use_case.cycle_time_ms", float),
        "latency_bound_ms": Key("use_case.latency_bound_ms", float),
        "network_reliability": Key("use_case.network_reliability", float),
        "bitrate_mbps": Key("use_case.bitrate_mbps", float),
    },
    "exclusion": {
        "gamma_dbm": Key("exclusion.gamma_dbm", float, -120.0),
        "tol_bits": Key("exclusion.tol_bits", float, 1e-4),
        "max_reflections": Key("exclusion.max_reflections", _int, 1),
        "k_points": Key("exclusion.k_points", _int, 112),
    },
}
SECTIONS = tuple(TABLES)


def _read(section: str, data: dict) -> dict[str, Any]:
    """Each key of the section through its converter, or its default when
    absent, stored under its field path (or, without one, its name)."""
    table = TABLES[section]
    unknown = set(data) - set(table)
    if unknown:
        raise UnknownKey(f"section [{section}]: unknown keys {sorted(unknown)}")
    values = {}
    for key, spec in table.items():
        value = spec.default if data.get(key) is None else data[key]
        if value is None:
            continue
        try:
            values[spec.field or key] = spec.read(value)
        except (TypeError, ValueError, DomainError) as exc:
            raise ValidationError(f"section [{section}], key {key!r}: {exc}") from exc
    return values


def _build(cls, path: str, values: dict, **fixed):
    """``cls`` from the values of its attributes at ``path``; ``fixed`` wins."""
    found = {}
    for f in dataclasses.fields(cls):
        if f"{path}.{f.name}" in values:
            found[f.name] = values[f"{path}.{f.name}"]
    return cls(**{**found, **fixed})


@contextmanager
def _reported(section: str):
    """Re-raise a failure to build a section's value as a ValidationError naming it."""
    try:
        yield
    except (ParseError, ValidationError):
        raise
    except Exception as exc:
        raise ValidationError(f"section [{section}]: {exc}") from exc


@functools.cache
def _parsed_preset(name: str) -> dict:
    text = resources.files("nrfactory.data.presets").joinpath(f"{name}.yaml").read_text()
    return yaml.safe_load(text)


def load_preset(name: str) -> dict:
    """A shipped preset's sections, a copy the caller may change.  Each file
    is parsed once per process, so an edit made while it runs is not seen."""
    if name not in PRESET_NAMES:
        raise ValidationError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    return copy.deepcopy(_parsed_preset(name))


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
    data = {section: dict(raw.get(section) or {}) for section in SECTIONS}
    preset = load_preset(str(data["band"]["preset"])) if "preset" in data["band"] else {}

    with _reported("band"):
        values = _read("band", {**preset.get("band", {}), **data["band"]})
        if values["band.duplex"] == "TDD":
            values.setdefault("band.tdd_pattern.slots", tuple("DDDSU"))
        has_pattern = "band.tdd_pattern.slots" in values
        if not has_pattern and "special_split" in data["band"]:
            raise ValidationError("section [band], key 'special_split': only a TDD pattern has special slots")
        pattern = _build(TddPattern, "band.tdd_pattern", values) if has_pattern else None
        band = _build(BandConfig, "band", values, tdd_pattern=pattern)

    with _reported("radio"):
        # the preset's keys of other antenna options are dropped, the file's rejected
        values = _read("radio", {**preset.get("radio", {}), **data["radio"]})
        antenna = ANTENNAS[values["radio.antenna"]]
        own = {f"radio.antenna.{f.name}" for f in dataclasses.fields(antenna)}
        for key in data["radio"]:
            field = TABLES["radio"][key].field
            if field.startswith("radio.antenna.") and field not in own:
                kind = values["radio.antenna"]
                raise ValidationError(f"section [radio], key {key!r}: not a key of antenna {kind!r}")
        radio = _build(
            RadioConfig, "radio", values,
            antenna=_build(antenna, "radio.antenna", values),
            ul_pc=_build(UlPowerControl, "radio.ul_pc", values),
        )

    with _reported("scenario"):
        given = data["scenario"]
        values = _read("scenario", given)
        layout = [key for key in ("gnb_positions_m", "gnb_grid", "n_gnbs") if key in given]
        if len(layout) > 1:
            raise ValidationError(f"section [scenario]: keys {layout} each set the gNB layout; give one")
        grid, height = values.get("gnb_grid", {}), values["gnb_height_m"]
        if "gnb_height_m" in given and ("gnb_positions_m" in given or "height_m" in grid):
            raise ValidationError(f"section [scenario], key 'gnb_height_m': {layout[0]!r} sets the heights")
        hall = _build(Hall, "scenario.hall", values)
        if grid:
            positions = gnb_grid(grid["rows"], grid["cols"], grid.get("height_m", height), hall)
            values["scenario.gnb_positions"] = positions
        values.setdefault("scenario.gnb_positions", default_gnb_layout(values["n_gnbs"], hall, height))
        scenario = _build(
            FactoryScenario, "scenario", values,
            hall=hall, clutter=_build(Clutter, "scenario.clutter", values), carrier_ghz=band.carrier_ghz,
        )

    scheduling = processing_times_file = None
    if data["scheduling"]:
        with _reported("scheduling"):
            values = _read("scheduling", data["scheduling"])
            processing_times_file = values.get("processing_times_file")
            if processing_times_file is not None:
                values["scheduling.processing_table"] = load_processing_table(Path(processing_times_file))
            scheduling = _build(SchedulingConfig, "scheduling", values, tti_symbols=band.tti_symbols)

    use_case = None
    if data["usecase"]:
        with _reported("usecase"):
            values = _read("usecase", data["usecase"])
            if not values.get("use_case.name"):
                raise ValidationError("section [usecase], key 'name': must be non-empty")
            if set(data["usecase"]) == {"name"}:
                try:
                    use_case = find_use_case(values["use_case.name"])
                except DomainError as exc:
                    raise ValidationError(f"section [usecase], key 'name': {exc}") from exc
            else:
                for key, spec in TABLES["usecase"].items():
                    if spec.field not in values and key != "bitrate_mbps":
                        raise ValidationError(f"section [usecase], key {key!r}: required for an inline use case")
                use_case = _build(UseCaseSpec, "use_case", values, survival_time_cycles=0, csa_nines=(4.0, 4.0))

    exclusion = None
    if data["exclusion"]:
        with _reported("exclusion"):
            exclusion = _build(ExclusionSection, "exclusion", _read("exclusion", data["exclusion"]))
    return ScenarioConfig(scenario, band, radio, scheduling, use_case, exclusion, processing_times_file)


def _attribute(obj, path: str):
    for name in path.split("."):
        obj = getattr(obj, name, None)
    return obj


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Fully resolved mapping that loads back to identical typed values."""
    out: dict[str, Any] = {}
    for section, table in TABLES.items():
        values = {key: (spec.write, _attribute(config, spec.field)) for key, spec in table.items() if spec.field}
        written = {key: write(value) for key, (write, value) in values.items() if value is not None}
        if written:
            out[section] = written
    if config.use_case in builtin_use_cases():
        # by name: catalogue rows carry ranges that no inline key holds
        out["usecase"] = {"name": config.use_case.name}
    return out
