"""Named end-to-end runs writing plot-ready CSV plus a JSON summary.

Every scenario is a pure function of its configuration: file contents
depend only on the config digest (which includes the seed), never on
wall time or worker count.  Files are written atomically, an output
directory holds the files of one run only, and a run that fails
leaves none of its scenario's files.  Each CSV starts with a provenance
comment `# lgi-echo v<version> scenario=<id> seed=<n>`.
"""

import contextlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Tuple

from . import __version__
from .afc import echo_trace, sample_ensemble, trace_fwhm, trace_peak
from .config import SCENARIOS, STORAGE_TIMES, ScenarioConfig
from .errors import DomainError, InvariantViolation
from .lgi import LGI_CSV_HEADER, conditional_probability, k_functionals, state_at
from .photons import g2_cross, heralded_autocorr_bound, storage_histograms
from .stationarity import (
    DEFAULT_FAMILIES,
    CountPair,
    default_state_pair,
    invariance_test,
    k_with_sigma,
    markovianity_test,
    simulate_q_grid,
)
from .tomography import (
    BASIS_LABELS,
    exact_tomography,
    mle_reconstruct,
    simulate_tomography,
)
from .quantum import trace_distance
from ._rng import stream, STREAM_SCENARIO

# Envelope grid: 48 points per beat period 1/delta, so the closed-form
# K_plus minimum (1/(3 delta)) and the published probe times land on
# exact grid points.
_ENVELOPE_POINTS = 48

_STATIONARITY_TIMES = tuple(k * 20e-9 for k in range(10))
_MARKOV_TIMES = (0.0, 50e-9, 100e-9, 150e-9, 200e-9)


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunReport:
    """Outcome of one scenario run.

    metrics is an ordered (name, value) tuple; values are JSON scalars.
    Identical digests imply byte-identical output files; wall_time is
    the only field allowed to differ between such runs.
    """

    scenario: str
    seed: int
    digest: str
    wall_time: float
    outputs: Tuple[str, ...]
    metrics: Tuple[Tuple[str, object], ...]

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise InvariantViolation(f"unknown scenario {self.scenario!r}")
        if self.wall_time < 0.0:
            raise InvariantViolation("wall_time must be >= 0")
        if len(self.digest) != 64:
            raise InvariantViolation("digest must be a sha256 hex string")

    def metric(self, name: str):
        for key, value in self.metrics:
            if key == name:
                return value
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "digest": self.digest,
            "wall_time_s": self.wall_time,
            "outputs": list(self.outputs),
            "metrics": dict(self.metrics),
        }


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    # a unique temp name, so concurrent runs into one directory never
    # write through the same file
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            # mkstemp creates mode 0600; give the artifact the mode open() would
            umask = os.umask(0o022)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def _provenance(config: ScenarioConfig) -> str:
    return (f"lgi-echo v{__version__} scenario={config.scenario} "
            f"seed={config.statistics.seed}")


def _csv_text(config: ScenarioConfig, header: str, rows) -> str:
    lines = [f"# {_provenance(config)}", header]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _f(x) -> str:
    """Shortest round-trip decimal for CSV cells."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# scenario runners (each returns ({filename: text}, [(metric, value)]))
# ---------------------------------------------------------------------------

def _run_lgi_envelope(config: ScenarioConfig):
    physics = config.physics
    stats = config.statistics
    ex = physics.excitation()
    delta = physics.detuning
    times = [k / (_ENVELOPE_POINTS * delta) for k in range(1, _ENVELOPE_POINTS + 1)]

    reports = []
    for k, t in enumerate(times):
        if stats.counts_per_point == 0:
            reports.append(k_functionals(ex, t))
            continue
        n = stats.counts_per_point
        rng = stream(stats.seed, STREAM_SCENARIO, k)
        q_t = conditional_probability(ex, "D", "D", 0.0, t)
        q_2t = conditional_probability(ex, "D", "D", 0.0, 2.0 * t)
        n_t = int(rng.binomial(n, q_t))
        n_2t = int(rng.binomial(n, q_2t))
        reports.append(
            k_with_sigma(CountPair(n_t, n - n_t), CountPair(n_2t, n - n_2t), t=t)
        )

    csv = _csv_text(config, LGI_CSV_HEADER, (r.to_csv_row() for r in reports))

    def first_min(values):
        # earliest probe time within float noise of the global minimum
        lowest = min(values)
        return next(i for i, v in enumerate(values) if v <= lowest + 1e-12)

    i_plus = first_min([r.k_plus for r in reports])
    i_minus = first_min([r.k_minus for r in reports])
    i_probe = min(range(len(times)), key=lambda i: abs(times[i] - stats.probe_time))
    probe = reports[i_probe]

    best_sign = "plus" if probe.k_plus <= probe.k_minus else "minus"
    best_k = getattr(probe, f"k_{best_sign}")
    best_sigma = getattr(probe, f"sigma_{best_sign}")
    best_viol = getattr(probe, f"violation_sigma_{best_sign}")
    if best_sigma > 0.0:
        violated = best_viol is not None and best_viol >= 2.0
    else:
        violated = best_k < -1.0 - 1e-12
    metrics = [
        ("k_plus_min", float(reports[i_plus].k_plus)),
        ("t_plus_min_ns", float(times[i_plus] * 1e9)),
        ("k_minus_min", float(reports[i_minus].k_minus)),
        ("t_minus_min_ns", float(times[i_minus] * 1e9)),
        ("probe_time_ns", float(times[i_probe] * 1e9)),
        ("k_plus_probe", float(probe.k_plus)),
        ("sigma_plus_probe", float(probe.sigma_plus)),
        ("k_minus_probe", float(probe.k_minus)),
        ("sigma_minus_probe", float(probe.sigma_minus)),
        ("violation_channel", best_sign),
        ("violation_k", float(best_k)),
        ("violation_sigma_k", float(best_sigma)),
        ("violation_significance",
         None if best_viol is None else float(best_viol)),
        ("verdict", "VIOLATION" if violated else "NO VIOLATION"),
    ]
    return {"envelope.csv": csv}, metrics


def _run_stationarity_grid(config: ScenarioConfig):
    stats = config.statistics
    ex = config.physics.excitation()
    families = DEFAULT_FAMILIES
    ts = _STATIONARITY_TIMES
    taus = [f[2] for f in families]

    if stats.counts_per_point == 0:
        rows = []
        spread = 0.0
        for i, j, tau in families:
            qs = [conditional_probability(ex, i, j, t, t + tau) for t in ts]
            spread = max(spread, max(qs) - min(qs))
            rows.extend(
                f"{tau * 1e9:.6f},{t * 1e9:.6f},{_f(q)},0.0"
                for t, q in zip(ts, qs)
            )
        csv = _csv_text(config, "tau_ns,t_ns,q_hat,sigma", rows)
        passed = spread <= 1e-12
        metrics = [
            ("mode", "exact"),
            ("max_t_dependence", float(spread)),
            ("chi2", 0.0),
            ("dof", len(families) * (len(ts) - 1)),
            ("p_value", 1.0),
            ("passed", bool(passed)),
        ]
        return {"grid.csv": csv}, metrics

    n_target, n_comp = simulate_q_grid(ex, families, ts, stats.counts_per_point,
                                       stats.seed)
    report = invariance_test(taus, ts, n_target, n_comp)
    rows = [
        f"{tau * 1e9:.6f},{t * 1e9:.6f},{_f(q)},{_f(s)}"
        for (t, tau), q, s in zip(report.grid, report.estimates, report.sigmas)
    ]
    csv = _csv_text(config, "tau_ns,t_ns,q_hat,sigma", rows)
    metrics = [
        ("mode", "sampled"),
        ("chi2", float(report.chi2)),
        ("dof", int(report.dof)),
        ("p_value", float(report.p_value)),
        ("alpha", float(report.alpha)),
        ("passed", bool(report.passed)),
    ]
    return {"grid.csv": csv}, metrics


def _run_markovianity(config: ScenarioConfig):
    stats = config.statistics
    channel = config.physics.channel()
    state_a, state_b = default_state_pair()
    tomographic = stats.shots_per_basis > 0
    report = markovianity_test(
        state_a, state_b, channel, _MARKOV_TIMES,
        use_tomography=tomographic,
        shots=stats.shots_per_basis,
        seed=stats.seed,
        n_bootstrap=stats.n_bootstrap,
    )
    sigmas = report.sigmas if report.sigmas is not None else [0.0] * len(report.times)
    rows = [
        f"{t * 1e9:.6f},{_f(d)},{_f(s)}"
        for t, d, s in zip(report.times, report.distances, sigmas)
    ]
    csv = _csv_text(config, "t_ns,distance,sigma", rows)
    metrics = [
        ("mode", "tomographic" if tomographic else "exact"),
        ("initial_distance", float(report.distances[0])),
        ("final_distance", float(report.distances[-1])),
        ("max_increase", float(report.max_increase)),
        ("threshold", float(report.threshold)),
        ("passed", bool(report.passed)),
    ]
    return {"distance.csv": csv}, metrics


def _run_g2_vs_storage(config: ScenarioConfig):
    stats = config.statistics
    memory = config.physics.memory()
    hists = storage_histograms(
        config.source, memory, STORAGE_TIMES,
        seed=stats.seed, duration_trials=stats.trials,
        workers=stats.workers,
    )
    results = [g2_cross(h) for h in hists]
    rows = [
        f"{t * 1e9:.6f},{_f(r.g2)},{_f(r.sigma)},{r.n_peak},{r.n_offset}"
        for t, r in zip(STORAGE_TIMES, results)
    ]
    csv = _csv_text(config, "storage_ns,g2,sigma,n_peak,n_offset", rows)
    stored = [r.g2 for r in results[1:]]
    g2_min = min(stored)
    metrics = [
        ("g2_transmitted", float(results[0].g2)),
        ("g2_min_stored", float(g2_min)),
        ("autocorr_bound", float(heralded_autocorr_bound(g2_min))
         if g2_min > 0 else None),
        ("all_nonclassical", bool(all(r.g2 > 2.0 for r in results))),
        ("transmitted_is_largest",
         bool(results[0].g2 > max(stored))),
    ]
    # deterministic counters: heralds and histogram entries per click
    # category at each storage time
    for t, hist in zip(STORAGE_TIMES, hists):
        tag = f"{round(t * 1e9)}ns"
        metrics.append((f"n_heralds_{tag}", hist.n_heralds))
        metrics.extend((f"entries_{tag}_{name}", n) for name, n in hist.category_counts)
    return {"g2.csv": csv}, metrics


def _run_echo_trace(config: ScenarioConfig):
    physics = config.physics
    ensemble = sample_ensemble(physics.comb(), physics.n_atoms, config.statistics.seed)
    period = 1.0 / physics.grating_delta
    trace = echo_trace(ensemble, t_max=2.5 * period, bin_width=2e-9)
    t1, i1 = trace_peak(trace, 0.5 * period, 1.5 * period)
    t2, i2 = trace_peak(trace, 1.5 * period, 2.5 * period)
    width = trace_fwhm(trace, t1)

    csv = _csv_text(config, "time_ns,intensity", (
        f"{t * 1e9:.6f},{i:.9e}" for t, i in zip(trace.times, trace.intensity)))
    metrics = [
        ("echo_time_ns", float(t1 * 1e9)),
        ("echo_intensity", float(i1)),
        ("echo_fwhm_ns", float(width * 1e9)),
        ("second_echo_time_ns", float(t2 * 1e9)),
        ("second_echo_ratio", float(i2 / i1) if i1 > 0 else None),
    ]
    return {"trace.csv": csv}, metrics


def _run_tomography_demo(config: ScenarioConfig):
    stats = config.statistics
    physics = config.physics
    rho_true = state_at(physics.excitation(), physics.storage_time)
    if stats.shots_per_basis == 0:
        data = exact_tomography(rho_true)
    else:
        data = simulate_tomography(rho_true, stats.shots_per_basis, stats.seed)
    result = mle_reconstruct(data)
    dist = trace_distance(result.rho, rho_true)

    rows = [
        f"{label},{data.shots_per_basis},{_f(count)}"
        for label, count in zip(BASIS_LABELS, data.counts)
    ]
    csv = _csv_text(config, "basis,shots,count", rows)
    metrics = [
        ("mode", "exact" if stats.shots_per_basis == 0 else "sampled"),
        ("trace_distance_to_truth", float(dist)),
        ("purity", result.rho.purity()),
        ("psd", bool(result.rho.eigenvalues()[0] >= -1e-10)),
        ("converged", bool(result.converged)),
        ("iterations", int(result.iterations)),
    ]
    return {"counts.csv": csv, "reconstruction.json": result.to_json()}, metrics


_RUNNERS = {
    "lgi_envelope": _run_lgi_envelope,
    "stationarity_grid": _run_stationarity_grid,
    "markovianity": _run_markovianity,
    "g2_vs_storage": _run_g2_vs_storage,
    "echo_trace": _run_echo_trace,
    "tomography_demo": _run_tomography_demo,
}

# the files each runner can return; with summary.json, the names a run
# of the scenario owns in its output directory
_ARTIFACTS = {
    "lgi_envelope": ("envelope.csv",),
    "stationarity_grid": ("grid.csv",),
    "markovianity": ("distance.csv",),
    "g2_vs_storage": ("g2.csv",),
    "echo_trace": ("trace.csv",),
    "tomography_demo": ("counts.csv", "reconstruction.json"),
}


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def run_scenario(config: ScenarioConfig) -> RunReport:
    """Run one scenario and write its artifacts.

    CSV artifacts are emitted when output.format includes csv, JSON ones
    and the summary when it includes json.  The output directory holds
    one run: the names of _ARTIFACTS[scenario] and summary.json that the
    run does not write are removed, and on any failure all of them are.
    """
    start = time.perf_counter()
    out_dir = config.output.directory
    owned = [os.path.join(out_dir, name)
             for name in _ARTIFACTS[config.scenario] + ("summary.json",)]
    written = []
    try:
        files, metrics = _RUNNERS[config.scenario](config)
        os.makedirs(out_dir, exist_ok=True)
        digest = config.digest()
        summary = {
            "scenario": config.scenario,
            "seed": config.statistics.seed,
            "digest": digest,
            "metrics": dict(metrics),
        }
        files["summary.json"] = json.dumps(summary, sort_keys=True, indent=2) + "\n"
        for name, text in files.items():
            if config.output.write_json if name.endswith(".json") else config.output.write_csv:
                path = os.path.join(out_dir, name)
                _atomic_write(path, text)
                written.append(path)
        for path in set(owned) - set(written):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    except BaseException:
        for path in owned:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise

    return RunReport(
        scenario=config.scenario,
        seed=config.statistics.seed,
        digest=digest,
        wall_time=time.perf_counter() - start,
        outputs=tuple(written),
        metrics=tuple(metrics),
    )


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def _verdict_line(report: RunReport) -> str:
    try:
        verdict = report.metric("verdict")
    except KeyError:
        return ""
    if verdict != "VIOLATION":
        return "NO VIOLATION"
    sign = report.metric("violation_channel")
    k = report.metric("violation_k")
    sigma = report.metric("violation_sigma_k")
    sig = report.metric("violation_significance")
    parts = [f"VIOLATION: k_{sign}={k:.4g}"]
    if sigma:
        parts.append(f"sigma={sigma:.4g}")
    if sig is not None:
        parts.append(f"significance={sig:.1f}")
    return " ".join(parts)


def emit_report(report: RunReport, format: str) -> str:
    """Render a RunReport as `json` or human-readable `text`.

    Both formats carry the same numeric content; text mode appends the
    violation verdict line when the scenario produced one.
    """
    if format == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if format != "text":
        raise DomainError(f"format must be 'json' or 'text', got {format!r}")
    lines = [
        f"scenario: {report.scenario}",
        f"seed: {report.seed}",
        f"digest: {report.digest}",
        f"wall_time_s: {json.dumps(report.wall_time)}",
        "outputs:",
    ]
    lines.extend(f"  {path}" for path in report.outputs)
    lines.append("metrics:")
    for name, value in report.metrics:
        lines.append(f"  {name}: {json.dumps(value)}")
    verdict = _verdict_line(report)
    if verdict:
        lines.append(verdict)
    return "\n".join(lines) + "\n"
