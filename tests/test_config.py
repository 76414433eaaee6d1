"""Configuration documents: parsing, presets, validation, digests."""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lgi_echo.afc import sample_ensemble
from lgi_echo.config import (
    OUTPUT_FORMATS,
    PAPER_COUNTS_PER_POINT,
    SCENARIOS,
    STORAGE_TIMES,
    OutputConfig,
    PhysicsConfig,
    ScenarioConfig,
    StatisticsConfig,
    default_document,
    paper_config,
    paper_statistics,
    parse_config,
)
from lgi_echo.errors import ConfigurationError
from lgi_echo.photons import RETRIEVED_WINDOW, MemoryConfig, SourceParams, paper_source
from lgi_echo.quantum import Channel


def parse(doc, scenario=None):
    return parse_config(json.dumps(doc), scenario=scenario)


# ---------------------------------------------------------------------------
# defaults and presets
# ---------------------------------------------------------------------------

class TestDefaults:
    def test_empty_sections_get_published_physics(self):
        cfg = parse({"scenario": "lgi_envelope", "physics": {}})
        assert cfg.physics.detuning == 5e6
        assert cfg.physics.grating_delta == 8e6
        assert cfg.physics.bandwidth == 100e6

    def test_base_source_is_ideal_without_preset(self):
        cfg = parse({"scenario": "lgi_envelope"})
        assert cfg.source.transmission_signal == 1.0
        assert cfg.source.dark_rate == 0.0
        assert cfg.source.background_rate == 0.0
        assert cfg.statistics.counts_per_point == 0
        assert cfg.statistics.shots_per_basis == 0

    def test_paper_preset_switches_bases(self):
        cfg = parse({"scenario": "lgi_envelope", "defaults": "paper"})
        assert cfg.source == paper_source()
        assert cfg.statistics == paper_statistics()
        assert cfg.statistics.counts_per_point == PAPER_COUNTS_PER_POINT

    def test_preset_values_still_overridable(self):
        cfg = parse({"scenario": "lgi_envelope", "defaults": "paper",
                     "statistics": {"counts_per_point": 50}})
        assert cfg.statistics.counts_per_point == 50
        assert cfg.source == paper_source()

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="defaults"):
            parse({"scenario": "lgi_envelope", "defaults": "ideal"})

    def test_default_document_round_trips(self):
        text = default_document()
        cfg = parse_config(text)
        assert cfg.scenario == "lgi_envelope"
        assert cfg.canonical_json() == text

    def test_default_document_other_scenario(self):
        cfg = parse_config(default_document("echo_trace"))
        assert cfg.scenario == "echo_trace"

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_paper_config_is_the_parsed_default_document(self, scenario):
        direct = paper_config(scenario)
        parsed = parse_config(default_document(scenario), scenario=scenario)
        assert direct == parsed
        for name in ("physics", "source", "statistics", "output"):
            a, b = getattr(direct, name), getattr(parsed, name)
            for f in fields(a):
                assert type(getattr(a, f.name)) is type(getattr(b, f.name)), f.name
        assert direct.canonical_json() == parsed.canonical_json()
        assert direct.digest() == parsed.digest()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_parse_error_reports_position(self):
        with pytest.raises(ConfigurationError, match=r"line 2, column"):
            parse_config('{\n  "scenario": lgi\n}')

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            parse_config("[1, 2]")

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="unknown key nonsense"):
            parse({"scenario": "lgi_envelope", "nonsense": 1})

    @pytest.mark.parametrize("section,key", [
        ("physics", "detunning"),
        ("source", "pair_prob"),
        ("statistics", "seeds"),
        ("output", "dir"),
        ("source", "trials_per_cycle"),
        ("source", "cycle_rate"),
        ("source", "extinction_ratio"),
    ])
    def test_unknown_section_key_named_by_path(self, section, key):
        with pytest.raises(ConfigurationError,
                           match=rf"unknown key {section}\.{key}"):
            parse({"scenario": "lgi_envelope", section: {key: 1}})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigurationError, match="'physics' must be an object"):
            parse({"scenario": "lgi_envelope", "physics": [1]})

    def test_field_validation_names_section(self):
        with pytest.raises(ConfigurationError,
                           match=r"section 'source'.*dark_rate"):
            parse({"scenario": "lgi_envelope", "source": {"dark_rate": -1.0}})

    def test_bool_rejected_in_float_field(self):
        with pytest.raises(ConfigurationError,
                           match="physics.detuning must be a number"):
            parse({"scenario": "lgi_envelope", "physics": {"detuning": True}})

    def test_float_rejected_in_int_field(self):
        with pytest.raises(ConfigurationError,
                           match="statistics.seed must be an integer"):
            parse({"scenario": "lgi_envelope", "statistics": {"seed": 1.5}})

    def test_string_rejected_in_float_field(self):
        with pytest.raises(ConfigurationError, match="must be a number"):
            parse({"scenario": "lgi_envelope", "physics": {"detuning": "5e6"}})

    def test_int_promoted_to_float_field(self):
        cfg = parse({"scenario": "lgi_envelope", "physics": {"detuning": 2000000}})
        assert cfg.physics.detuning == 2e6
        assert isinstance(cfg.physics.detuning, float)

    def test_integer_past_float_range_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="source.dark_rate must be finite"):
            parse({"scenario": "echo_trace", "source": {"dark_rate": 10**400}})

    def test_integer_past_digit_limit_rejected(self):
        text = '{"scenario": "echo_trace", "source": {"dark_rate": 1%s}}' % ("0" * 5000)
        with pytest.raises(ConfigurationError, match="parse error"):
            parse_config(text)

    def test_missing_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="no scenario named"):
            parse({"physics": {}})

    def test_invalid_scenario_name(self):
        with pytest.raises(ConfigurationError, match="scenario must be one of"):
            parse({"scenario": "time_travel"})

    def test_cli_scenario_overrides_document(self):
        cfg = parse({"scenario": "lgi_envelope"}, scenario="echo_trace")
        assert cfg.scenario == "echo_trace"

    def test_cli_scenario_fills_missing(self):
        cfg = parse({"physics": {}}, scenario="markovianity")
        assert cfg.scenario == "markovianity"


# ---------------------------------------------------------------------------
# physics section builders
# ---------------------------------------------------------------------------

class TestPhysicsConfig:
    def test_builders_produce_validated_objects(self):
        phys = PhysicsConfig()
        assert isinstance(phys.memory(), MemoryConfig)
        assert isinstance(phys.channel(), Channel)
        assert phys.comb().center_offset == -2.5e6

    def test_memory_detuning_matches_comb_offsets(self):
        physics = PhysicsConfig(detuning=2e6)
        assert physics.memory().comb.center_offset == -physics.detuning / 2

    @pytest.mark.parametrize("field,value", [
        ("detuning", 0.0),
        ("grating_delta", -1e6),
        ("bandwidth", 0.0),
        ("tooth_fwhm", -2e6),
        ("storage_time", 0.0),
        ("photon_fwhm", -5e-9),
    ])
    def test_positive_fields(self, field, value):
        with pytest.raises(ConfigurationError, match=f"physics.{field}"):
            PhysicsConfig(**{field: value})

    def test_n_atoms_floor(self):
        with pytest.raises(ConfigurationError, match="n_atoms"):
            PhysicsConfig(n_atoms=1)

    def test_bad_channel_kind(self):
        with pytest.raises(ConfigurationError, match="channel_kind"):
            PhysicsConfig(channel_kind="teleport")

    @pytest.mark.parametrize("physics", [
        {"tooth_fwhm": 5e5}, {"retrieval_prefactor": 1.0}, {"bandwidth": 1e7}])
    def test_sweep_checks_belong_to_g2_vs_storage(self, physics):
        # g2_vs_storage rejects each of these (tests/test_cli.py); the
        # scenarios that build no swept memory accept them
        doc = {"defaults": "paper", "physics": physics}
        for scenario in set(SCENARIOS) - {"g2_vs_storage", "echo_trace"}:
            parse(doc, scenario=scenario)

    def test_g2_vs_storage_rejects_exactly_a_period_its_latest_window_reaches(self):
        # the latest sweep point is 250 ns; other scenarios run no sweep
        end = STORAGE_TIMES[-1] + RETRIEVED_WINDOW / 2.0
        for period in (2e-7, end):
            with pytest.raises(ConfigurationError, match="source.trial_period"):
                parse({"defaults": "paper", "source": {"trial_period": period}},
                      scenario="g2_vs_storage")
        parse({"defaults": "paper", "source": {"trial_period": end * (1.0 + 1e-12)}},
              scenario="g2_vs_storage")
        for scenario in set(SCENARIOS) - {"g2_vs_storage"}:
            parse({"defaults": "paper", "source": {"trial_period": 2e-7}}, scenario=scenario)

    @pytest.mark.parametrize("bandwidth", [1e7, 15999999.0, 16e6, 16000001.0, 2.4e7])
    def test_echo_trace_rejects_exactly_the_single_tooth_comb(self, bandwidth):
        physics = {"bandwidth": bandwidth, "background_depth": 0.0}
        doc = {"scenario": "echo_trace", "physics": physics}
        ensemble = sample_ensemble(parse(doc, "lgi_envelope").physics.comb(), 2000, 0)
        single_tooth = np.all(ensemble.tooth_indices == 0)
        if single_tooth:
            with pytest.raises(ConfigurationError, match="physics.bandwidth"):
                parse(doc)
        else:
            parse(doc)
        assert single_tooth == (bandwidth < 16e6)

    def test_comb_validation_is_wrapped(self):
        # tooth wider than spacing is invalid at the comb level
        with pytest.raises(ConfigurationError, match="comb parameters"):
            PhysicsConfig(tooth_fwhm=9e6, grating_delta=8e6)


# ---------------------------------------------------------------------------
# statistics / output sections
# ---------------------------------------------------------------------------

class TestSections:
    @pytest.mark.parametrize("field,value", [
        ("seed", -1),
        ("seed", 2**63),
        ("counts_per_point", -5),
        ("counts_per_point", 2**63),
        ("shots_per_basis", -1),
        ("shots_per_basis", 2**63),
        ("trials", 0),
        ("n_bootstrap", -1),
        ("n_bootstrap", 0),
        ("n_bootstrap", 1),
        ("workers", 0),
        ("probe_time", -1e-9),
    ])
    def test_statistics_bounds(self, field, value):
        with pytest.raises(ConfigurationError, match=f"statistics.{field}"):
            StatisticsConfig(**{field: value})

    def test_output_format_enum(self):
        for fmt in OUTPUT_FORMATS:
            OutputConfig(format=fmt)
        with pytest.raises(ConfigurationError, match="output.format"):
            OutputConfig(format="yaml")

    def test_output_write_flags(self):
        assert OutputConfig(format="csv").write_csv
        assert not OutputConfig(format="csv").write_json
        assert not OutputConfig(format="json").write_csv
        assert OutputConfig(format="json").write_json
        both = OutputConfig(format="both")
        assert both.write_csv and both.write_json

    def test_empty_directory_rejected(self):
        with pytest.raises(ConfigurationError, match="output.directory"):
            OutputConfig(directory="")


# ---------------------------------------------------------------------------
# canonical form and digests
# ---------------------------------------------------------------------------

class TestDigest:
    def test_same_document_same_digest(self):
        a = parse({"scenario": "lgi_envelope", "defaults": "paper"})
        b = parse({"defaults": "paper", "scenario": "lgi_envelope"})
        assert a.digest() == b.digest()
        assert len(a.digest()) == 64

    def test_seed_changes_digest(self):
        a = parse({"scenario": "lgi_envelope"})
        b = parse({"scenario": "lgi_envelope", "statistics": {"seed": 7}})
        assert a.digest() != b.digest()

    def test_scenario_changes_digest(self):
        a = parse({"scenario": "lgi_envelope"})
        b = parse({"scenario": "echo_trace"})
        assert a.digest() != b.digest()

    def test_execution_details_do_not_change_digest(self):
        a = parse({"scenario": "lgi_envelope"})
        b = parse({"scenario": "lgi_envelope",
                   "statistics": {"workers": 8},
                   "output": {"directory": "elsewhere", "format": "csv"}})
        assert a.digest() == b.digest()

    def test_no_op_override_keeps_digest(self):
        a = parse({"scenario": "lgi_envelope"})
        b = parse({"scenario": "lgi_envelope",
                   "statistics": {"seed": 0}})
        assert a.digest() == b.digest()

    def test_stream_layout_changes_digest(self, monkeypatch):
        # a digest never promises bytes drawn with another stream layout
        cfg = parse({"scenario": "g2_vs_storage"})
        before = cfg.digest()
        monkeypatch.setattr("lgi_echo.config.STREAM_LAYOUT", 1)
        assert cfg.digest() != before

    def test_canonical_json_is_sorted_and_parsable(self):
        cfg = parse({"scenario": "g2_vs_storage"})
        doc = json.loads(cfg.canonical_json())
        assert list(doc) == sorted(doc)
        assert doc["scenario"] == "g2_vs_storage"

    def test_scenarios_tuple_is_exhaustive(self):
        for name in SCENARIOS:
            ScenarioConfig(scenario=name)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(scenario="unknown")

    def test_document_survives_reparse(self):
        cfg = parse({"scenario": "markovianity", "defaults": "paper",
                     "physics": {"detuning": 2e6},
                     "statistics": {"seed": 3, "workers": 2}})
        again = parse_config(cfg.canonical_json())
        assert again == cfg
        assert again.digest() == cfg.digest()

    @settings(max_examples=100, deadline=None)
    @given(scenario=st.sampled_from(SCENARIOS), paper=st.booleans(),
           statistics=st.fixed_dictionaries({}, optional={
               "seed": st.integers(0, 2**63 - 1),
               "counts_per_point": st.integers(0, 10**6),
               "shots_per_basis": st.integers(0, 10**6),
               "trials": st.integers(1, 10**12),
               "n_bootstrap": st.integers(2, 1000),
               "workers": st.integers(1, 64),
               "probe_time": st.floats(0.0, 1e-6),
           }),
           source=st.fixed_dictionaries({}, optional={
               "pair_probability": st.floats(0.0, 1.0),
               "dark_rate": st.floats(0.0, 1e4),
               "statistics": st.sampled_from(["bernoulli", "thermal"]),
           }),
           physics=st.fixed_dictionaries({}, optional={
               # the echo orders of the default 8 MHz comb
               "storage_time": st.integers(1, 8).map(lambda k: k / 8e6),
               "phase0": st.floats(-10.0, 10.0),
               "channel_rate": st.floats(0.0, 1e8),
           }))
    def test_canonical_json_round_trips_the_digest(self, scenario, paper,
                                                   statistics, source, physics):
        doc = {"scenario": scenario, "statistics": statistics,
               "source": source, "physics": physics}
        if paper:
            doc["defaults"] = "paper"
        cfg = parse(doc)
        again = parse_config(cfg.canonical_json())
        assert again == cfg
        assert again.digest() == cfg.digest()
        assert again.canonical_json() == cfg.canonical_json()
