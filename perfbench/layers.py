"""Which program functions the traced run wraps, and the per-layer metrics.

Each target is the binding a caller looks up, so a function imported
into two modules is wrapped twice, once per caller.  Times and counts
are reported per traced round, so runs that fit a different number of
rounds into their time budget stay comparable.
"""

import json
import os
import re
import subprocess
import sys

from tracer import Target

SUITE_SCENARIOS = (
    "markovianity",
    "tomography_demo",
    "echo_trace",
    "lgi_envelope",
    "stationarity_grid",
)

IMPORT_MODULES = (
    "lgi_echo",
    "lgi_echo.errors",
    "lgi_echo._rng",
    "lgi_echo.quantum",
    "lgi_echo.lgi",
    "lgi_echo._kernels",
    "lgi_echo._kernels._fallback",
    "lgi_echo.afc",
    "lgi_echo.photons",
    "lgi_echo.tomography",
    "lgi_echo.stationarity",
    "lgi_echo.config",
    "lgi_echo.scenarios",
    "lgi_echo.cli",
    "scipy.stats",
    "scipy.optimize",
)


def _histogram_counts(args, kwargs, hist):
    return {"trials": hist.n_trials, "heralds": hist.n_heralds,
            "entries": hist.total()}


def _dipole_counts(args, kwargs, result):
    # dipole_intensity(weights_sq, detunings, times): atoms x times terms
    return {"terms": len(args[1]) * len(args[2])}


def _mle_counts(args, kwargs, result):
    return {"iterations": result.iterations}


def _scenario_name(args, kwargs):
    config = args[0] if args else kwargs["config"]
    return f"scenarios.{config.scenario}"


def _artifact_counts(args, kwargs, report):
    return {"files": len(report.outputs),
            "bytes": sum(os.path.getsize(p) for p in report.outputs)}


def _t(module, attr, span, counts=None):
    return Target(f"lgi_echo.{module}", attr, span, counts)


TARGETS = (
    # photon pipeline
    _t("photons", "simulate_run", "photons.simulate_run", _histogram_counts),
    _t("photons", "g2_cross", "photons.g2_cross"),
    _t("photons", "fold_coincidences", "photons.fold_kernel"),
    _t("photons", "echo_efficiency", "afc.echo_efficiency"),
    # comb layer
    _t("afc", "sample_ensemble", "afc.sample_ensemble"),
    _t("scenarios", "sample_ensemble", "afc.sample_ensemble"),
    _t("scenarios", "echo_trace", "afc.echo_trace"),
    _t("afc", "dipole_intensity", "afc.dipole_kernel", _dipole_counts),
    # tomography, qubit algebra and stationarity tests
    _t("stationarity", "linear_inversion", "tomography.linear_inversion"),
    _t("tomography", "linear_inversion", "tomography.linear_inversion"),
    _t("stationarity", "mle_reconstruct", "tomography.mle_reconstruct", _mle_counts),
    _t("scenarios", "mle_reconstruct", "tomography.mle_reconstruct", _mle_counts),
    _t("stationarity", "simulate_tomography", "tomography.simulate_tomography"),
    _t("scenarios", "simulate_tomography", "tomography.simulate_tomography"),
    _t("stationarity", "trace_distance", "quantum.trace_distance"),
    _t("scenarios", "trace_distance", "quantum.trace_distance"),
    _t("scenarios", "markovianity_test", "stationarity.markovianity_test"),
    _t("scenarios", "simulate_q_grid", "stationarity.simulate_q_grid"),
    _t("scenarios", "invariance_test", "stationarity.invariance_test"),
    _t("scenarios", "k_with_sigma", "stationarity.k_with_sigma"),
    # command line, configuration, scenario dispatch and artifacts
    _t("cli", "main", "cli.main"),
    _t("cli", "parse_config", "config.parse_config"),
    _t("cli", "run_scenario", _scenario_name, _artifact_counts),
)


def reported_metrics(root):
    """Name -> unit of every per-layer metric BENCHMARK.json lists."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def layer_metrics(units, summary, n_rounds, untraced_wall, traced_wall, import_times):
    """Values of the metrics in units (name -> unit) from a tracer summary
    over n_rounds rounds."""

    def get(span, key="total_s"):
        return summary.get(span, {}).get(key, 0) / n_rounds

    run_s = get("photons.simulate_run")
    trials = get("photons.simulate_run", "trials")
    heralds = get("photons.simulate_run", "heralds")
    values = {
        "photons.simulate_run_s": run_s,
        "photons.simulate_run_self_s": get("photons.simulate_run", "self_s"),
        "photons.trials_per_s": trials / run_s if run_s > 0 else 0.0,
        "photons.fold_kernel_s": get("photons.fold_kernel"),
        "photons.fold_kernel_calls": get("photons.fold_kernel", "calls"),
        "photons.hist_entries": get("photons.simulate_run", "entries"),
        "photons.heralds": heralds,
        "photons.heralds_per_mtrial": 1e6 * heralds / trials if trials else 0.0,
        "photons.g2_cross_s": get("photons.g2_cross"),
        "afc.echo_efficiency_s": get("afc.echo_efficiency"),
        "afc.echo_efficiency_calls": get("afc.echo_efficiency", "calls"),
        "afc.sample_ensemble_s": get("afc.sample_ensemble"),
        "afc.echo_trace_s": get("afc.echo_trace"),
        "afc.dipole_kernel_s": get("afc.dipole_kernel"),
        "afc.dipole_kernel_calls": get("afc.dipole_kernel", "calls"),
        "afc.dipole_terms": get("afc.dipole_kernel", "terms"),
        "tomography.linear_inversion_s": get("tomography.linear_inversion"),
        "tomography.linear_inversion_calls": get("tomography.linear_inversion", "calls"),
        "tomography.mle_reconstruct_s": get("tomography.mle_reconstruct"),
        "tomography.mle_calls": get("tomography.mle_reconstruct", "calls"),
        "tomography.mle_iterations": get("tomography.mle_reconstruct", "iterations"),
        "tomography.simulate_tomography_s": get("tomography.simulate_tomography"),
        "quantum.trace_distance_s": get("quantum.trace_distance"),
        "quantum.trace_distance_calls": get("quantum.trace_distance", "calls"),
        "stationarity.markovianity_test_s": get("stationarity.markovianity_test"),
        "stationarity.markovianity_self_s": get("stationarity.markovianity_test", "self_s"),
        "stationarity.simulate_q_grid_s": get("stationarity.simulate_q_grid"),
        "stationarity.invariance_test_s": get("stationarity.invariance_test"),
        "stationarity.k_with_sigma_s": get("stationarity.k_with_sigma"),
        "cli.main_self_s": get("cli.main", "self_s"),
        "config.parse_config_s": get("config.parse_config"),
        "scenarios.files_written": sum(
            get(f"scenarios.{name}", "files") for name in SUITE_SCENARIOS),
        "scenarios.artifact_bytes": sum(
            get(f"scenarios.{name}", "bytes") for name in SUITE_SCENARIOS),
        "bench.glue_self_s": get("bench.round", "self_s"),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_pct": 100.0 * (traced_wall / untraced_wall - 1.0),
    }
    for name in SUITE_SCENARIOS:
        values[f"scenarios.{name}_s"] = get(f"scenarios.{name}")
    for module in IMPORT_MODULES:
        values[f"setup.import.{module}_s"] = import_times.get(module, 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_times(root):
    """Cumulative import time in seconds per module, from -X importtime.

    Runs a fresh interpreter that imports lgi_echo.cli and waits for it.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import lgi_echo.cli"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    out = {}
    for line in proc.stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            out[match.group(3)] = int(match.group(2)) * 1e-6
    return out
