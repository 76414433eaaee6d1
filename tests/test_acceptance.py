"""Acceptance gate: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines; each prints `criterion N: PASS|FAIL -- detail` before asserting.
The full gate takes about 4 seconds on a 2-core machine (Python 3.11,
numpy 2.4): 1.4 in criterion 9 and 0.8 in criterion 7.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from qubit_oracle import pure_state
from lgi_echo.config import parse_config
from lgi_echo.lgi import ExcitationState, conditional_probability, k_functionals, k_minimum
from lgi_echo.photons import (SourceParams, g2_cross, paper_memory, paper_source, simulate_run,
                              storage_histograms)
from lgi_echo.quantum import Channel, trace_distance
from lgi_echo.scenarios import run_scenario
from lgi_echo.stationarity import (
    CountPair,
    default_state_pair,
    invariance_test,
    k_with_sigma,
    markovianity_test,
    simulate_q_grid,
)
from lgi_echo.tomography import (
    exact_tomography,
    linear_inversion,
    mle_reconstruct,
    simulate_tomography,
)

TWO_PI = 2.0 * math.pi
NS = 1e-9


def check(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {n}: {detail}"


def run_cfg(tmp_path, doc, subdir):
    doc = dict(doc)
    doc["output"] = dict(doc.get("output", {}), directory=str(tmp_path / subdir))
    return run_scenario(parse_config(json.dumps(doc)))


def test_criterion_1_closed_form_minima():
    start = time.perf_counter()
    worst = 0.0
    for delta in (2e6, 5e6):
        for which, theta_star in (("minus", math.pi / 3),
                                  ("plus", 2 * math.pi / 3)):
            t_star, k_star = k_minimum(which, delta)
            worst = max(worst, abs(k_star + 1.5),
                        abs(TWO_PI * delta * t_star - theta_star))
    elapsed = time.perf_counter() - start
    check(1, worst <= 1e-9 and elapsed < 1.0,
          f"K-+ minima at -1.5, max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_paper_points_noiseless():
    # closed form at the probe: cos(1.25 pi) + 2 cos(0.625 pi), whose
    # four-decimal display is -1.4725
    target_plus = math.cos(1.25 * math.pi) + 2.0 * math.cos(0.625 * math.pi)
    k_plus = k_functionals(ExcitationState(detuning=5e6), 62.5 * NS).k_plus
    k_minus = k_functionals(ExcitationState(detuning=2e6), 83.3 * NS).k_minus
    ok = (abs(k_plus - target_plus) <= 1e-6
          and round(k_plus, 4) == -1.4725
          and abs(k_minus - (-1.5)) <= 1e-6)
    check(2, ok,
          f"k_plus(5 MHz, 62.5 ns)={k_plus:.7f} (displays as "
          f"{round(k_plus, 4)}), k_minus(2 MHz, 83.3 ns)={k_minus:.7f}")


def test_criterion_3_paper_point_noisy(tmp_path):
    start = time.perf_counter()
    rep = run_cfg(tmp_path, {"scenario": "lgi_envelope", "defaults": "paper"},
                  "c3")
    k = rep.metric("k_plus_probe")
    sigma = rep.metric("sigma_plus_probe")
    sig = rep.metric("violation_significance")
    tuned = k_with_sigma(CountPair(202, 575), CountPair(186, 591), t=62.5 * NS)
    rounded = f"{tuned.violation_sigma_plus:.1f}"
    elapsed = time.perf_counter() - start
    ok = (abs(k - (-1.48)) <= 3.0 * sigma
          and 0.03 <= sigma <= 0.15
          and sig >= 4.0
          and abs(tuned.sigma_plus - 0.07) < 5e-3
          and rounded == "6.9"
          and elapsed < 60.0)
    check(3, ok,
          f"k_plus(62.5 ns)={k:.4f}+-{sigma:.4f} ({sig:.1f} sigma); "
          f"tuned counts give {tuned.k_plus:.4f}+-{tuned.sigma_plus:.4f} "
          f"-> {rounded} sigma; {elapsed:.1f}s")


def test_criterion_4_echo_physics(tmp_path):
    start = time.perf_counter()
    rep = run_cfg(tmp_path, {"scenario": "echo_trace"}, "c4")
    t1 = rep.metric("echo_time_ns")
    fwhm = rep.metric("echo_fwhm_ns")
    t2 = rep.metric("second_echo_time_ns")
    ratio = rep.metric("second_echo_ratio")
    elapsed = time.perf_counter() - start
    ok = (abs(t1 - 125.0) <= 1.0
          and abs(t2 - 250.0) <= 2.0
          and ratio < 1.0
          and abs(fwhm - 10.0) <= 3.0
          and elapsed < 10.0)
    check(4, ok,
          f"echo at {t1:.1f} ns (FWHM {fwhm:.1f} ns), second order at "
          f"{t2:.1f} ns with ratio {ratio:.2f}; {elapsed:.1f}s")


def test_criterion_5_g2_suite():
    start = time.perf_counter()
    thermal = SourceParams(pair_probability=0.01, statistics="thermal")
    oracle = g2_cross(simulate_run(thermal, None, None, 10_000_000, seed=7))
    # literal times: 50 * 1e-9 differs from 50e-9 in the last ulp,
    # which moves the reprogrammed comb period and the bin folding
    sweep = storage_histograms(paper_source(), paper_memory(),
                               (0.0, 50e-9, 125e-9, 250e-9),
                               seed=5, duration_trials=10**9, workers=1)
    values = [g2_cross(h).g2 for h in sweep]
    elapsed = time.perf_counter() - start
    ok = (abs(oracle.g2 - 101.0) <= 0.10 * 101.0
          and all(v > 2.0 for v in values)
          and all(a > b for a, b in zip(values, values[1:]))
          and values[0] > max(values[1:])
          and elapsed < 60.0)
    check(5, ok,
          f"thermal oracle g2={oracle.g2:.1f} (expect 101), sweep "
          + "/".join(f"{v:.1f}" for v in values) + f"; {elapsed:.1f}s")


def test_criterion_6_stationarity():
    ex = ExcitationState(detuning=5e6)
    ts = np.arange(10) * 20 * NS
    spread = 0.0
    for tau in (33.3 * NS, 66.7 * NS, 100 * NS):
        for i in ("D", "A"):
            for j in ("D", "A"):
                qs = [conditional_probability(ex, i, j, t, t + tau) for t in ts]
                spread = max(spread, max(qs) - min(qs))

    families = (("D", "D", 33.3 * NS), ("A", "A", 66.7 * NS),
                ("D", "D", 50.0 * NS))
    taus = [f[2] for f in families]
    rejections = 0
    for seed in range(2000):
        nt, nc = simulate_q_grid(ex, families, ts, 400, seed=seed)
        rejections += not invariance_test(taus, ts, nt, nc, alpha=0.05).passed
    rate = rejections / 2000.0
    ok = spread <= 1e-12 and 0.03 <= rate <= 0.07
    check(6, ok,
          f"noiseless grid t-dependence {spread:.1e}, null rejection "
          f"rate {rate:.3f} at alpha=0.05")


def test_criterion_7_markovianity():
    state_a, state_b = default_state_pair()
    channel = Channel(kind="dephasing", rate=2e6)
    times = tuple(k * 25 * NS for k in range(9))
    exact = markovianity_test(state_a, state_b, channel, times)
    worst = max(abs(d - math.exp(-channel.rate * t))
                for t, d in zip(times, exact.distances))
    passes = sum(
        markovianity_test(state_a, state_b, channel,
                          (0.0, 50 * NS, 100 * NS, 150 * NS, 200 * NS),
                          use_tomography=True, shots=10**5, seed=s).passed
        for s in range(200))
    ok = worst <= 1e-9 and exact.passed and passes >= 190
    check(7, ok,
          f"exact distance vs exp(-gt) deviation {worst:.1e}, monotone "
          f"{exact.passed}, tomographic pass rate {passes}/200")


def test_criterion_8_tomography_accuracy():
    rng = np.random.default_rng(0)
    min_eig = np.inf
    failures = 0
    for k in range(500):
        v = rng.normal(size=4)
        rho = pure_state(complex(v[0], v[1]), complex(v[2], v[3]))
        fit = mle_reconstruct(simulate_tomography(rho, 10**5, seed=k)).rho
        min_eig = min(min_eig, float(np.linalg.eigvalsh(fit.elements)[0]))
        failures += trace_distance(fit, rho) > 0.02

    worst_li = 0.0
    for k in range(20):
        v = rng.normal(size=4)
        rho = pure_state(complex(v[0], v[1]), complex(v[2], v[3]))
        data = exact_tomography(rho)
        worst_li = max(worst_li, trace_distance(
            mle_reconstruct(data).rho, linear_inversion(data)))
    ok = failures <= 25 and worst_li <= 1e-6 and min_eig >= -1e-10
    check(8, ok,
          f"{500 - failures}/500 within 0.02, MLE vs linear inversion "
          f"{worst_li:.1e}, min eigenvalue {min_eig:.1e}")


def test_criterion_9_determinism(tmp_path):
    docs = {
        "lgi_envelope": {"defaults": "paper", "statistics": {"seed": 3}},
        "stationarity_grid": {"statistics": {"counts_per_point": 400,
                                             "seed": 2}},
        "markovianity": {"statistics": {"shots_per_basis": 20_000,
                                        "n_bootstrap": 16}},
        # 1e8 ideal-chain trials put about 42 counts in the offset windows
        # at 250 ns, the sparsest storage time, so g2 is undefined with
        # probability exp(-42) ~ 6e-19 whatever the random-stream layout
        "g2_vs_storage": {"statistics": {"trials": 100_000_000, "seed": 6}},
        "echo_trace": {},
        "tomography_demo": {"statistics": {"shots_per_basis": 20_000}},
    }
    mismatches = []
    for scenario, doc in docs.items():
        doc = dict(doc, scenario=scenario)
        snapshots = []
        for workers in (1, 2, 8):
            doc_w = dict(doc)
            doc_w["statistics"] = dict(doc.get("statistics", {}),
                                       workers=workers)
            rep = run_cfg(tmp_path, doc_w, f"{scenario}-w{workers}")
            files = {}
            for path in rep.outputs:
                with open(path, "rb") as fh:
                    files[os.path.basename(path)] = fh.read()
            snapshots.append(files)
        if not (snapshots[0] == snapshots[1] == snapshots[2]):
            mismatches.append(scenario)
    check(9, not mismatches,
          "byte-identical outputs at 1/2/8 workers for all six scenarios"
          if not mismatches else f"mismatches in {mismatches}")
