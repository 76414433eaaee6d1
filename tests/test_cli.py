"""Command-line interface: subcommands, overrides, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lgi_echo
from lgi_echo import photons, scenarios
from lgi_echo.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, build_parser, main
from lgi_echo.config import parse_config
from lgi_echo.photons import MAX_TRIALS


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


FAST_ENVELOPE = {"scenario": "lgi_envelope",
                 "statistics": {"counts_per_point": 200}}


# ---------------------------------------------------------------------------
# defaults / validate
# ---------------------------------------------------------------------------

class TestDefaults:
    def test_prints_parsable_canonical_document(self, capsys):
        assert main(["defaults"]) == EXIT_OK
        out = capsys.readouterr().out
        cfg = parse_config(out)
        assert cfg.scenario == "lgi_envelope"
        assert cfg.canonical_json() == out


class TestValidate:
    def test_ok_line(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "echo_trace"})
        assert main(["validate", "--config", path]) == EXIT_OK
        out = capsys.readouterr().out
        cfg = parse_config('{"scenario": "echo_trace"}')
        assert out == f"ok: scenario=echo_trace digest={cfg.digest()}\n"

    def test_bad_field_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "echo_trace",
                                       "source": {"dark_rate": -1}})
        assert main(["validate", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "dark_rate" in err

    def test_broken_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"scenario": ')
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert "parse error at line" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["validate", "--config",
                     str(tmp_path / "nope.json")]) == EXIT_CONFIG
        assert "cannot read" in capsys.readouterr().err

    def test_run_size_past_the_pipeline_limit_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "g2_vs_storage",
                                       "statistics": {"trials": MAX_TRIALS + 1}})
        assert main(["validate", "--config", path]) == EXIT_CONFIG
        assert "statistics.trials" in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["run", "g2_vs_storage", "--config", path,
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        # the limit itself is a valid run size
        path = write_config(tmp_path, {"scenario": "g2_vs_storage",
                                       "statistics": {"trials": MAX_TRIALS}})
        assert main(["validate", "--config", path]) == EXIT_OK

    @pytest.mark.parametrize("scenario, key", [
        ("lgi_envelope", "seed"),
        ("lgi_envelope", "counts_per_point"),
        ("tomography_demo", "shots_per_basis"),
    ])
    def test_statistics_past_int64_exit_2(self, tmp_path, capsys, scenario, key):
        # each once validated and then exited 3 at run with an overflow
        path = write_config(tmp_path, {"scenario": scenario, "defaults": "paper",
                                       "statistics": {key: 2**63}})
        assert main(["validate", "--config", path]) == EXIT_CONFIG
        assert f"statistics.{key}" in capsys.readouterr().err
        # the largest int64 is a valid value
        path = write_config(tmp_path, {"scenario": scenario, "defaults": "paper",
                                       "statistics": {key: 2**63 - 1}})
        assert main(["validate", "--config", path]) == EXIT_OK

    @pytest.mark.parametrize("n_bootstrap", [0, 1])
    def test_too_few_bootstrap_replicates_exit_2(self, tmp_path, capsys, n_bootstrap):
        # a single replicate gives a nan sigma at every time
        path = write_config(tmp_path, {"scenario": "markovianity", "statistics": {
            "shots_per_basis": 1000, "n_bootstrap": n_bootstrap}})
        out = tmp_path / "out"
        assert main(["run", "markovianity", "--config", path,
                     "--out", str(out)]) == EXIT_CONFIG
        assert "statistics.n_bootstrap" in capsys.readouterr().err
        assert not out.exists()

    def test_thermal_mean_past_float_resolution_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "g2_vs_storage", "source": {
            "statistics": "thermal", "pair_probability": 1e16}})
        assert main(["validate", "--config", path]) == EXIT_CONFIG
        assert "pair_probability" in capsys.readouterr().err

    def test_document_without_scenario_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, {"physics": {}})
        assert main(["validate", "--config", path]) == EXIT_CONFIG
        assert "no scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, physics, key", [
        ("g2_vs_storage", {"tooth_fwhm": 5e5}, "physics.tooth_fwhm"),
        ("g2_vs_storage", {"retrieval_prefactor": 1.0}, "physics.retrieval_prefactor"),
        ("g2_vs_storage", {"bandwidth": 1e7}, "physics.bandwidth"),
        ("echo_trace", {"bandwidth": 1e7}, "physics.bandwidth"),
    ])
    def test_a_document_that_validates_also_runs(self, tmp_path, capsys, scenario,
                                                 physics, key):
        # each once passed validate and then exited 3 at run
        path = write_config(tmp_path, {"scenario": scenario, "defaults": "paper",
                                       "physics": physics})
        out = tmp_path / "out"
        for argv in (["validate"], ["run", scenario, "--out", str(out)]):
            assert main(argv + ["--config", path]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error:")
            assert key in err
        assert not out.exists()

    def test_a_period_the_latest_echo_window_reaches_exits_2(self, tmp_path, capsys):
        # the window of the 250 ns echo closes at 255 ns, past a 200 ns
        # period, where the run would pair the echo with its own herald only
        path = write_config(tmp_path, {"scenario": "g2_vs_storage", "defaults": "paper",
                                       "source": {"trial_period": 2e-7}})
        out = tmp_path / "out"
        for argv in (["validate"], ["run", "g2_vs_storage", "--out", str(out)]):
            assert main(argv + ["--config", path]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error:")
            assert "source.trial_period" in err and "250 ns point" in err
        assert not out.exists()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

class TestRun:
    def test_end_to_end_text_report(self, tmp_path, capsys):
        path = write_config(tmp_path, FAST_ENVELOPE)
        code = main(["run", "lgi_envelope", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("scenario: lgi_envelope\n")
        assert (tmp_path / "out" / "envelope.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_json_report_matches_summary(self, tmp_path, capsys):
        path = write_config(tmp_path, FAST_ENVELOPE)
        assert main(["run", "lgi_envelope", "--config", path,
                     "--out", str(tmp_path / "out"),
                     "--report", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["digest"] == summary["digest"]
        assert doc["metrics"] == summary["metrics"]
        assert "wall_time_s" in doc and "wall_time_s" not in summary

    def test_positional_overrides_document_scenario(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "lgi_envelope"})
        assert main(["run", "echo_trace", "--config", path,
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_seed_override_changes_digest(self, tmp_path, capsys):
        path = write_config(tmp_path, FAST_ENVELOPE)
        main(["run", "lgi_envelope", "--config", path,
              "--out", str(tmp_path / "a"), "--report", "json"])
        a = json.loads(capsys.readouterr().out)
        main(["run", "lgi_envelope", "--config", path,
              "--out", str(tmp_path / "b"), "--report", "json",
              "--seed", "9"])
        b = json.loads(capsys.readouterr().out)
        assert a["seed"] == 0 and b["seed"] == 9
        assert a["digest"] != b["digest"]

    def test_format_override_csv_only(self, tmp_path):
        path = write_config(tmp_path, FAST_ENVELOPE)
        out = tmp_path / "out"
        assert main(["run", "lgi_envelope", "--config", path,
                     "--out", str(out), "--format", "csv"]) == EXIT_OK
        assert os.listdir(out) == ["envelope.csv"]

    def test_workers_override_accepted(self, tmp_path, capsys):
        # about 42 offset counts expected at 250 ns: P(undefined g2) ~ 6e-19
        path = write_config(tmp_path, {
            "scenario": "g2_vs_storage",
            "statistics": {"trials": 100_000_000}})
        assert main(["run", "g2_vs_storage", "--config", path,
                     "--out", str(tmp_path / "out"),
                     "--workers", "2"]) == EXIT_OK
        assert (tmp_path / "out" / "g2.csv").exists()

    def test_each_swept_memory_builds_its_click_model_once(self, tmp_path, capsys):
        # parse time and the run share the model of each of the four
        # storage times
        path = write_config(tmp_path, {
            "scenario": "g2_vs_storage",
            "source": {"pair_probability": 0.1, "statistics": "thermal"},
            "statistics": {"trials": 1_000_000}})
        photons.click_model.cache_clear()
        assert main(["run", "g2_vs_storage", "--config", path,
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        info = photons.click_model.cache_info()
        assert (info.misses, info.hits) == (4, 4)

    def test_default_config_is_paper_preset(self, tmp_path, capsys):
        assert main(["run", "tomography_demo",
                     "--out", str(tmp_path / "out"),
                     "--report", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrics"]["mode"] == "sampled"

    def test_unknown_scenario_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "time_travel"])
        assert exc.value.code == 2

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"physics": {"detuning": -1}})
        assert main(["run", "lgi_envelope", "--config", path]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, section, key, value", [
        ("lgi_envelope", "statistics", "probe_time", math.nan),
        ("g2_vs_storage", "source", "dark_rate", math.inf),
        ("g2_vs_storage", "source", "trial_period", math.inf),
        # finite, but no memory holds them
        ("g2_vs_storage", "physics", "retrieval_prefactor", 0.0),
        ("g2_vs_storage", "physics", "decay_time", -1.0),
        ("g2_vs_storage", "physics", "storage_time", 137e-9),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, scenario,
                                       section, key, value):
        # json accepts NaN and Infinity; they must not reach a scenario,
        # nor may memory values that only the scenario would build
        path = write_config(tmp_path, {"scenario": scenario, section: {key: value}})
        out = tmp_path / "out"
        for argv in (["validate"], ["run", scenario, "--out", str(out)]):
            assert main(argv + ["--config", path]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error:")
            assert f"{section}.{key}" in err
            if not math.isfinite(value):
                assert f"{section}.{key} must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("shots", [1, 2, 3])
    def test_a_few_shots_per_basis_run(self, tmp_path, capsys, shots):
        # fewer than 4 counts across the bases are common here; the MLE is
        # defined for any counts
        for scenario in ("markovianity", "tomography_demo"):
            path = write_config(tmp_path, {"scenario": scenario, "statistics": {
                "shots_per_basis": shots}})
            for seed in range(5):
                out = tmp_path / f"{scenario}-{shots}-{seed}"
                assert main(["run", scenario, "--config", path, "--seed", str(seed),
                             "--out", str(out)]) == EXIT_OK
                if scenario == "markovianity":
                    rows = (out / "distance.csv").read_text().splitlines()[2:]
                    distances = [float(row.split(",")[1]) for row in rows]
                    assert all(0.0 <= d <= 1.0 + 1e-12 for d in distances)
                    continue
                doc = json.loads((out / "reconstruction.json").read_text())
                rho = np.array([[complex(re, im) for re, im in row] for row in doc["rho"]])
                assert abs(np.trace(rho) - 1.0) < 1e-12
                assert np.allclose(rho, rho.conj().T, atol=1e-15)
                assert np.linalg.eigvalsh(rho)[0] >= -1e-10
                assert doc["converged"] is True
        capsys.readouterr()

    def test_bad_seed_override_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, FAST_ENVELOPE)
        assert main(["run", "lgi_envelope", "--config", path,
                     "--seed", "-4"]) == EXIT_CONFIG
        assert "statistics.seed" in capsys.readouterr().err

    def test_seed_override_past_the_stream_key_exits_2(self, tmp_path, capsys):
        # it once ran and exited 3 when the run built its first stream
        path = write_config(tmp_path, FAST_ENVELOPE)
        out = tmp_path / "out"
        assert main(["run", "lgi_envelope", "--config", path, "--out", str(out),
                     "--seed", str(2**63)]) == EXIT_CONFIG
        assert "statistics.seed" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        path = write_config(tmp_path, FAST_ENVELOPE)
        code = main(["run", "lgi_envelope", "--config", path,
                     "--out", str(blocker / "out")])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith(
            "runtime error [lgi_envelope]:")

    def test_rerun_leaves_no_file_of_the_earlier_run(self, tmp_path, capsys):
        path = write_config(tmp_path, FAST_ENVELOPE)
        out = tmp_path / "out"
        assert main(["run", "lgi_envelope", "--config", path, "--seed", "1",
                     "--out", str(out)]) == EXIT_OK
        assert sorted(os.listdir(out)) == ["envelope.csv", "summary.json"]
        assert main(["run", "lgi_envelope", "--config", path, "--seed", "2",
                     "--out", str(out), "--format", "csv"]) == EXIT_OK
        assert os.listdir(out) == ["envelope.csv"]
        assert "seed=2" in (out / "envelope.csv").read_text().splitlines()[0]
        # a file the scenario does not own stays
        (out / "notes.txt").write_text("kept")
        assert main(["run", "lgi_envelope", "--config", path, "--seed", "3",
                     "--out", str(out), "--format", "json"]) == EXIT_OK
        assert sorted(os.listdir(out)) == ["notes.txt", "summary.json"]

    def test_failed_rerun_leaves_no_file_of_the_earlier_run(self, tmp_path, capsys,
                                                            monkeypatch):
        path = write_config(tmp_path, FAST_ENVELOPE)
        out = tmp_path / "out"
        assert main(["run", "lgi_envelope", "--config", path, "--out", str(out)]) == EXIT_OK
        (out / "notes.txt").write_text("kept")

        def broken(config):
            raise ValueError("numpy says no")

        monkeypatch.setitem(scenarios._RUNNERS, "lgi_envelope", broken)
        assert main(["run", "lgi_envelope", "--config", path,
                     "--out", str(out)]) == EXIT_RUNTIME
        assert os.listdir(out) == ["notes.txt"]

    def test_unexpected_exception_exits_3_with_one_line(self, tmp_path, capsys,
                                                         monkeypatch):
        def broken(config):
            raise ValueError("numpy says no")

        monkeypatch.setitem(scenarios._RUNNERS, "lgi_envelope", broken)
        out = tmp_path / "out"
        code = main(["run", "lgi_envelope", "--config",
                     write_config(tmp_path, FAST_ENVELOPE), "--out", str(out)])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "runtime error [lgi_envelope]: ValueError: numpy says no\n")
        assert not out.exists()


# ---------------------------------------------------------------------------
# repeated calls in one process
# ---------------------------------------------------------------------------

class TestRepeatedCalls:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_seed_override_does_not_stick(self, tmp_path, capsys):
        for args, seed in ((["--seed", "7"], 7), ([], 0)):
            out = tmp_path / f"seed{seed}"
            assert main(["run", "lgi_envelope", "--out", str(out)] + args) == EXIT_OK
            assert json.loads((out / "summary.json").read_text())["seed"] == seed
            assert f"seed={seed}" in (out / "envelope.csv").read_text().splitlines()[0]
        capsys.readouterr()

    def test_format_override_does_not_stick(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "lgi_envelope", "--out", str(out), "--format", "csv"]) == EXIT_OK
        assert os.listdir(out) == ["envelope.csv"]
        assert main(["run", "lgi_envelope", "--out", str(out)]) == EXIT_OK
        assert sorted(os.listdir(out)) == ["envelope.csv", "summary.json"]
        capsys.readouterr()

    def test_failed_validate_then_good_run(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "echo_trace",
                                       "source": {"dark_rate": -1}})
        assert main(["validate", "--config", path]) == EXIT_CONFIG
        assert main(["run", "tomography_demo", "--out", str(tmp_path / "out")]) == EXIT_OK
        assert (tmp_path / "out" / "reconstruction.json").exists()
        capsys.readouterr()


# ---------------------------------------------------------------------------
# start-up cost
# ---------------------------------------------------------------------------

def test_import_leaves_out_scipy():
    # importing scipy.special and scipy.optimize took most of a CLI start
    src = os.path.dirname(os.path.dirname(lgi_echo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, lgi_echo.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
