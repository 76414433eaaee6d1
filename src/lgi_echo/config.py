"""Scenario configuration documents: parsing, defaults, canonical form.

A configuration is a single JSON object with optional sections
`physics`, `source`, `statistics` and `output` plus a `scenario` name.
`"defaults": "paper"` switches the base values of the source and the
statistics sections to the published working point (lossy detection
chain, dark and background rates, sampled counts); without it the base
is an ideal noiseless chain and exact closed-form statistics.  Physics
defaults are the published memory parameters in both cases.

Every section key must name a known field; unknown keys are rejected
with their full path.  The canonical serialization is key-sorted JSON,
and its SHA-256 digest identifies a run configuration.
"""

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from .afc import CombSpec
from .errors import ConfigurationError
from .lgi import ExcitationState
from .photons import (
    MAX_TRIALS,
    MemoryConfig,
    SourceParams,
    click_model,
    paper_source,
    storage_memories,
)
from .quantum import Channel
from ._rng import STREAM_LAYOUT

SCENARIOS = (
    "lgi_envelope",
    "stationarity_grid",
    "markovianity",
    "g2_vs_storage",
    "echo_trace",
    "tomography_demo",
)

OUTPUT_FORMATS = ("csv", "json", "both")

# The storage times g2_vs_storage sweeps, 0 meaning the transmitted path;
# parse time builds the memory of each.
STORAGE_TIMES = (0.0, 50e-9, 125e-9, 250e-9)


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhysicsConfig:
    """Memory, excitation and channel parameters (published defaults)."""

    detuning: float = 5e6
    grating_delta: float = 8e6
    bandwidth: float = 100e6
    tooth_fwhm: float = 2e6
    optical_depth: float = 8.0
    background_depth: float = 0.05
    phase0: float = 0.0
    storage_time: float = 125e-9
    photon_fwhm: float = 5e-9
    decay_time: float = 150e-9
    retrieval_prefactor: float = 0.15
    channel_kind: str = "dephasing"
    channel_rate: float = 2e6
    n_atoms: int = 10000

    def __post_init__(self):
        for name in ("detuning", "grating_delta", "bandwidth", "tooth_fwhm",
                     "storage_time", "photon_fwhm"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"physics.{name} must be positive")
        if self.n_atoms < 2:
            raise ConfigurationError("physics.n_atoms must be >= 2")
        # constructing the derived objects runs their own validation
        self.channel()
        self.memory()

    def excitation(self) -> ExcitationState:
        return ExcitationState(detuning=self.detuning, phase0=self.phase0)

    def channel(self) -> Channel:
        try:
            return Channel(kind=self.channel_kind, rate=self.channel_rate)
        except Exception as exc:
            raise ConfigurationError(f"physics.channel_kind/rate: {exc}") from exc

    def comb(self) -> CombSpec:
        """The H comb, detuning/2 below the carrier; the V comb is the
        same comb detuning/2 above it."""
        try:
            return CombSpec(
                periodicity_delta=self.grating_delta,
                tooth_fwhm=self.tooth_fwhm,
                bandwidth=self.bandwidth,
                optical_depth=self.optical_depth,
                background_depth=self.background_depth,
                center_offset=-self.detuning / 2.0,
            )
        except Exception as exc:
            raise ConfigurationError(f"physics comb parameters: {exc}") from exc

    def memory(self) -> MemoryConfig:
        comb = self.comb()
        try:
            return MemoryConfig(
                comb=comb,
                storage_time=self.storage_time,
                photon_fwhm=self.photon_fwhm,
                decay_time=self.decay_time,
                retrieval_prefactor=self.retrieval_prefactor,
            )
        except Exception as exc:
            # the memory fields it names are physics keys
            raise ConfigurationError(f"physics.{exc}") from exc


@dataclass(frozen=True)
class StatisticsConfig:
    """Sample sizes and seeding.

    counts_per_point and shots_per_basis equal to 0 select the exact
    (noiseless) mode of the scenarios that support one.
    """

    seed: int = 0
    counts_per_point: int = 0
    shots_per_basis: int = 0
    trials: int = 600_000_000
    n_bootstrap: int = 48
    workers: int = 1
    probe_time: float = 62.5e-9

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigurationError("statistics.seed must be >= 0")
        for name in ("counts_per_point", "shots_per_basis"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"statistics.{name} must be >= 0")
        if self.n_bootstrap < 2:
            raise ConfigurationError(
                "statistics.n_bootstrap must be >= 2: a bootstrap sigma needs "
                "at least two replicates")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ConfigurationError(
                f"statistics.trials must be in [1, {MAX_TRIALS}], the longest "
                f"run the photon pipeline supports")
        if self.workers < 1:
            raise ConfigurationError("statistics.workers must be >= 1")
        if self.probe_time < 0.0:
            raise ConfigurationError("statistics.probe_time must be >= 0")


# Counts per grid point that put the k_plus error bar at the published
# 0.07: sigma scales as ~1.98/sqrt(N) at the 62.5 ns probe.
PAPER_COUNTS_PER_POINT = 800

PAPER_SHOTS_PER_BASIS = 100_000


def paper_statistics() -> StatisticsConfig:
    return StatisticsConfig(
        counts_per_point=PAPER_COUNTS_PER_POINT,
        shots_per_basis=PAPER_SHOTS_PER_BASIS,
    )


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    format: str = "both"

    def __post_init__(self):
        if not self.directory:
            raise ConfigurationError("output.directory must be non-empty")
        if self.format not in OUTPUT_FORMATS:
            raise ConfigurationError(
                f"output.format must be one of {OUTPUT_FORMATS}, got {self.format!r}"
            )

    @property
    def write_csv(self) -> bool:
        return self.format in ("csv", "both")

    @property
    def write_json(self) -> bool:
        return self.format in ("json", "both")


def _section_document(section) -> dict:
    # every section field is a scalar, so a shallow dict is the whole
    # section; asdict would deep-copy each value
    return {f.name: getattr(section, f.name) for f in fields(section)}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated configuration for one scenario run."""

    scenario: str
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    source: SourceParams = field(default_factory=paper_source)
    statistics: StatisticsConfig = field(default_factory=StatisticsConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(
                f"scenario must be one of {SCENARIOS}, got {self.scenario!r}"
            )

    def to_document(self) -> dict:
        return {
            "scenario": self.scenario,
            "physics": _section_document(self.physics),
            "source": _section_document(self.source),
            "statistics": _section_document(self.statistics),
            "output": _section_document(self.output),
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_document(), sort_keys=True, indent=2) + "\n"

    def digest(self) -> str:
        """SHA-256 over the result-determining part of the document.

        Where the files land (output section) and how the work is split
        (statistics.workers) must not change a single output byte, so
        they are excluded.  The version STREAM_LAYOUT is included: it is
        bumped with every change of the output bytes at a fixed document,
        whether the random draws or the model changed, so equal digests
        promise byte-identical artifacts across code versions too.
        """
        doc = self.to_document()
        del doc["output"]
        doc["statistics"] = {k: v for k, v in doc["statistics"].items()
                             if k != "workers"}
        doc["stream_layout"] = STREAM_LAYOUT
        compact = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(compact.encode()).hexdigest()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_SECTION_TYPES = {
    "physics": PhysicsConfig,
    "source": SourceParams,
    "statistics": StatisticsConfig,
    "output": OutputConfig,
}


def _check_value(path: str, value, annotation):
    # json gives bool for true/false; bool is an int subclass, so test
    # it first to keep flags out of numeric fields
    if annotation is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"{path} must be a number, got {value!r}")
        # json accepts NaN and +-Infinity, and integers past the float range
        number = float(value) if abs(value) <= sys.float_info.max else math.inf
        if not math.isfinite(number):
            raise ConfigurationError(f"{path} must be finite, got {value!r}")
        return number
    if annotation is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"{path} must be an integer, got {value!r}")
        return value
    if annotation is str:
        if not isinstance(value, str):
            raise ConfigurationError(f"{path} must be a string, got {value!r}")
        return value
    raise ConfigurationError(f"{path} cannot be set from a configuration file")


def _build_section(cls, base, section: dict, name: str):
    if not isinstance(section, dict):
        raise ConfigurationError(f"section {name!r} must be an object")
    known = {f.name: f.type for f in fields(cls)}
    updates = {}
    for key, value in section.items():
        if key not in known:
            raise ConfigurationError(f"unknown key {name}.{key}")
        updates[key] = _check_value(f"{name}.{key}", value, known[key])
    if not updates:
        return base
    try:
        return replace(base, **updates)
    except Exception as exc:
        raise ConfigurationError(f"section {name!r}: {exc}") from exc


def parse_config(text: str, scenario: Optional[str] = None) -> ScenarioConfig:
    """Parse and validate a configuration document.

    `scenario` (e.g. the CLI positional) overrides the document's own
    scenario key.  Unknown keys anywhere are rejected by full path.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past the digit limit
        raise ConfigurationError(f"parse error: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError("configuration must be a JSON object")

    known_top = {"defaults", "scenario"} | set(_SECTION_TYPES)
    for key in doc:
        if key not in known_top:
            raise ConfigurationError(f"unknown key {key}")

    preset = doc.get("defaults")
    if preset not in (None, "paper"):
        raise ConfigurationError(
            f"defaults must be 'paper' when present, got {preset!r}"
        )
    if preset == "paper":
        bases = {
            "physics": PhysicsConfig(),
            "source": paper_source(),
            "statistics": paper_statistics(),
            "output": OutputConfig(),
        }
    else:
        bases = {
            "physics": PhysicsConfig(),
            "source": SourceParams(pair_probability=2e-3),
            "statistics": StatisticsConfig(),
            "output": OutputConfig(),
        }

    sections = {}
    for name, cls in _SECTION_TYPES.items():
        sections[name] = _build_section(cls, bases[name], doc.get(name, {}), name)

    chosen = scenario if scenario is not None else doc.get("scenario")
    if chosen is None:
        raise ConfigurationError("no scenario named (document key or CLI argument)")
    if not isinstance(chosen, str):
        raise ConfigurationError(f"scenario must be a string, got {chosen!r}")
    config = ScenarioConfig(scenario=chosen, **sections)
    _check_scenario(config)
    return config


def _check_scenario(config: ScenarioConfig) -> None:
    """Build what the scenario builds beyond the sections, so that a
    document that validates also runs.

    Each check runs for its own scenario only: g2_vs_storage programs a
    memory and a click model (which the run reuses) per storage time,
    and each signal window must close within the trial period, as a
    click pairs only with the heralds of its own and earlier trials;
    echo_trace needs a comb of more than one tooth, or has no echo.
    """
    physics = config.physics
    if config.scenario == "g2_vs_storage":
        memory = physics.memory()
        for t in STORAGE_TIMES:
            point = f"the {t * 1e9:g} ns point of the g2_vs_storage sweep"
            try:
                (memory_t,) = storage_memories(memory, (t,))
            except ConfigurationError as exc:
                # the comb fields it names are physics keys
                raise ConfigurationError(
                    f"physics.{exc}: {point} programs a {1e-6 / t:g} MHz grating"
                ) from exc
            try:
                model = click_model(config.source, memory_t)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    "physics.tooth_fwhm, physics.optical_depth, "
                    "physics.background_depth and physics.retrieval_prefactor "
                    f"give {point}: {exc}") from exc
            end = model.signal_window[1]
            if end >= config.source.trial_period:
                raise ConfigurationError(
                    f"source.trial_period {config.source.trial_period:g} s must exceed "
                    f"{end:g} s, where the signal window of {point} closes")
    elif config.scenario == "echo_trace" and physics.comb().m_max < 1:
        raise ConfigurationError(
            f"physics.bandwidth {physics.bandwidth} Hz holds a single tooth of "
            f"the physics.grating_delta {physics.grating_delta} Hz comb, so "
            "echo_trace has no echo: bandwidth must be >= 2 * grating_delta")


def paper_config(scenario: str = "lgi_envelope") -> ScenarioConfig:
    """The paper-preset configuration of a scenario."""
    return ScenarioConfig(
        scenario=scenario,
        physics=PhysicsConfig(),
        source=paper_source(),
        statistics=paper_statistics(),
        output=OutputConfig(),
    )


def default_document(scenario: str = "lgi_envelope") -> str:
    """Canonical JSON of the paper-preset configuration."""
    return paper_config(scenario).canonical_json()
