"""End-to-end scenario runs: artifacts, metrics, determinism, reports."""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from lgi_echo import __version__
from lgi_echo._rng import STREAM_LAYOUT
from lgi_echo.config import SCENARIOS, parse_config
from lgi_echo.errors import DomainError, InvariantViolation
from lgi_echo.scenarios import (
    _ARTIFACTS,
    RunReport,
    _atomic_write,
    emit_report,
    run_scenario,
)
from lgi_echo.stationarity import DEFAULT_FAMILIES

DIGEST = "0" * 64


def run(tmp_path, doc, subdir="out"):
    doc = dict(doc)
    doc.setdefault("output", {})
    doc["output"] = dict(doc["output"], directory=str(tmp_path / subdir))
    return run_scenario(parse_config(json.dumps(doc)))


def read(report, name):
    for path in report.outputs:
        if os.path.basename(path) == name:
            with open(path) as fh:
                return fh.read()
    raise AssertionError(f"{name} not among outputs {report.outputs}")


def csv_rows(text):
    return [line.split(",") for line in text.splitlines()[2:]]


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------

class TestRunReport:
    def make(self, **kw):
        base = dict(scenario="lgi_envelope", seed=0, digest=DIGEST,
                    wall_time=1.0, outputs=(), metrics=(("a", 1),))
        base.update(kw)
        return RunReport(**base)

    def test_unknown_scenario(self):
        with pytest.raises(InvariantViolation, match="unknown scenario"):
            self.make(scenario="nope")

    def test_negative_wall_time(self):
        with pytest.raises(InvariantViolation, match="wall_time"):
            self.make(wall_time=-0.1)

    def test_bad_digest(self):
        with pytest.raises(InvariantViolation, match="digest"):
            self.make(digest="abc")

    def test_metric_lookup(self):
        rep = self.make(metrics=(("x", 2.0), ("y", "ok")))
        assert rep.metric("y") == "ok"
        with pytest.raises(KeyError):
            rep.metric("z")

    def test_to_dict_keys(self):
        d = self.make().to_dict()
        assert set(d) == {"scenario", "seed", "digest", "wall_time_s",
                          "outputs", "metrics"}


# ---------------------------------------------------------------------------
# lgi_envelope
# ---------------------------------------------------------------------------

class TestLgiEnvelope:
    def test_exact_mode_metrics(self, tmp_path):
        rep = run(tmp_path, {"scenario": "lgi_envelope"})
        assert rep.metric("k_plus_min") == pytest.approx(-1.5, abs=1e-9)
        assert rep.metric("t_plus_min_ns") == pytest.approx(200.0 / 3, abs=1e-6)
        assert rep.metric("k_minus_min") == pytest.approx(-1.5, abs=1e-9)
        assert rep.metric("t_minus_min_ns") == pytest.approx(100.0 / 3, abs=1e-6)
        assert rep.metric("verdict") == "VIOLATION"
        assert rep.metric("violation_significance") is None

    def test_exact_mode_no_violation_at_full_beat(self, tmp_path):
        rep = run(tmp_path, {"scenario": "lgi_envelope",
                             "statistics": {"probe_time": 200e-9}})
        assert rep.metric("k_minus_probe") == pytest.approx(-1.0, abs=1e-12)
        assert rep.metric("verdict") == "NO VIOLATION"

    def test_sampled_mode(self, tmp_path):
        rep = run(tmp_path, {"scenario": "lgi_envelope", "defaults": "paper",
                             "statistics": {"seed": 1}})
        assert rep.metric("probe_time_ns") == pytest.approx(62.5)
        assert 0.03 <= rep.metric("sigma_plus_probe") <= 0.15
        assert rep.metric("violation_significance") > 4.0
        assert rep.metric("verdict") == "VIOLATION"

    def test_csv_shape_and_header(self, tmp_path):
        rep = run(tmp_path, {"scenario": "lgi_envelope",
                             "statistics": {"seed": 5}})
        text = read(rep, "envelope.csv")
        lines = text.splitlines()
        assert lines[0] == f"# lgi-echo v{__version__} scenario=lgi_envelope seed=5"
        assert lines[1].startswith("t_ns,k_t,k_2t,k_minus,k_plus")
        assert len(lines) == 2 + 48


# ---------------------------------------------------------------------------
# stationarity_grid
# ---------------------------------------------------------------------------

class TestStationarityGrid:
    def test_exact_mode(self, tmp_path):
        rep = run(tmp_path, {"scenario": "stationarity_grid"})
        assert rep.metric("mode") == "exact"
        assert rep.metric("max_t_dependence") <= 1e-12
        assert rep.metric("p_value") == 1.0
        assert rep.metric("passed") is True
        rows = csv_rows(read(rep, "grid.csv"))
        assert len(rows) == len(DEFAULT_FAMILIES) * 10
        assert all(r[3] == "0.0" for r in rows)

    def test_sampled_mode(self, tmp_path):
        rep = run(tmp_path, {"scenario": "stationarity_grid",
                             "statistics": {"counts_per_point": 400,
                                            "seed": 2}})
        assert rep.metric("mode") == "sampled"
        assert rep.metric("dof") == len(DEFAULT_FAMILIES) * 9
        assert 0.0 < rep.metric("p_value") <= 1.0
        assert rep.metric("passed") is True
        rows = csv_rows(read(rep, "grid.csv"))
        assert len(rows) == len(DEFAULT_FAMILIES) * 10
        # saturated families sit at q_hat exactly 0 or 1 and get a zero
        # binomial sigma; interior cells must carry a finite error bar
        for r in rows:
            q, s = float(r[2]), float(r[3])
            assert (s > 0.0) == (0.0 < q < 1.0)
        assert any(float(r[3]) > 0.0 for r in rows)


# ---------------------------------------------------------------------------
# markovianity
# ---------------------------------------------------------------------------

class TestMarkovianity:
    def test_exact_mode_distances_contract(self, tmp_path):
        rep = run(tmp_path, {"scenario": "markovianity"})
        assert rep.metric("mode") == "exact"
        assert rep.metric("passed") is True
        rows = csv_rows(read(rep, "distance.csv"))
        dists = [float(r[1]) for r in rows]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert all(r[2] == "0.0" for r in rows)

    def test_tomographic_mode(self, tmp_path):
        rep = run(tmp_path, {"scenario": "markovianity",
                             "statistics": {"shots_per_basis": 50_000,
                                            "n_bootstrap": 24}})
        assert rep.metric("mode") == "tomographic"
        assert rep.metric("initial_distance") > 0.95
        assert rep.metric("final_distance") < rep.metric("initial_distance")
        assert rep.metric("max_increase") <= rep.metric("threshold")
        assert rep.metric("passed") is True


# ---------------------------------------------------------------------------
# g2_vs_storage
# ---------------------------------------------------------------------------

class TestG2VsStorage:
    def test_ideal_chain_small_run(self, tmp_path):
        # about 42 offset counts expected at 250 ns: P(undefined g2) ~ 6e-19
        rep = run(tmp_path, {"scenario": "g2_vs_storage",
                             "statistics": {"trials": 100_000_000, "seed": 6}})
        assert rep.metric("all_nonclassical") is True
        assert rep.metric("g2_transmitted") > 100.0
        assert rep.metric("autocorr_bound") < 0.05
        rows = csv_rows(read(rep, "g2.csv"))
        assert [r[0] for r in rows] == ["0.000000", "50.000000",
                                        "125.000000", "250.000000"]
        assert all(int(r[3]) > 0 for r in rows)


    def test_counters_in_summary_are_worker_independent(self, tmp_path):
        # about 10 offset-window counts per 1e8 trials at a stored time:
        # 2e8 trials leave g2 undefined with probability near exp(-20)
        doc = {"scenario": "g2_vs_storage", "defaults": "paper",
               "statistics": {"trials": 200_000_000, "seed": 2}}
        runs = [run(tmp_path, dict(doc, statistics=dict(doc["statistics"], workers=w)),
                    subdir=f"w{w}") for w in (1, 2)]
        assert read(runs[0], "summary.json") == read(runs[1], "summary.json")
        metrics = json.loads(read(runs[0], "summary.json"))["metrics"]
        for tag, echoes in (("0ns", 0), ("50ns", 3), ("125ns", 3), ("250ns", 1)):
            assert metrics[f"n_heralds_{tag}"] > 0
            names = (["transmitted"] + [f"echo{k}" for k in range(1, echoes + 1)]
                     + ["dark", "background"])
            assert all(isinstance(metrics[f"entries_{tag}_{n}"], int) for n in names)
            assert metrics[f"entries_{tag}_background"] > 0


# ---------------------------------------------------------------------------
# echo_trace
# ---------------------------------------------------------------------------

class TestEchoTrace:
    def test_echo_metrics(self, tmp_path):
        rep = run(tmp_path, {"scenario": "echo_trace"})
        assert rep.metric("echo_time_ns") == pytest.approx(125.0, abs=2.0)
        assert rep.metric("echo_fwhm_ns") == pytest.approx(10.0, abs=3.0)
        assert rep.metric("second_echo_time_ns") == pytest.approx(250.0, abs=2.0)
        assert rep.metric("second_echo_ratio") < 1.0
        text = read(rep, "trace.csv")
        assert text.splitlines()[1] == "time_ns,intensity"


# ---------------------------------------------------------------------------
# tomography_demo
# ---------------------------------------------------------------------------

class TestTomographyDemo:
    def test_exact_mode_recovers_truth(self, tmp_path):
        rep = run(tmp_path, {"scenario": "tomography_demo"})
        assert rep.metric("mode") == "exact"
        assert rep.metric("trace_distance_to_truth") <= 1e-9
        assert rep.metric("psd") is True
        assert rep.metric("converged") is True

    def test_reconstructs_the_stored_state_written_in_hv(self, tmp_path):
        # cos(phi/2)|D> - i sin(phi/2)|A> with phi = 2 pi delta t is
        # (e^{-i phi/2}|H> + e^{i phi/2}|V>)/sqrt(2) in the analyzer basis
        rep = run(tmp_path, {"scenario": "tomography_demo", "defaults": "paper",
                             "statistics": {"seed": 4}})
        phi = 2.0 * math.pi * 5e6 * 125e-9
        stored = 0.5 * np.array([[1.0, np.exp(-1j * phi)],
                                 [np.exp(1j * phi), 1.0]])
        rho = np.array([[complex(re, im) for re, im in row]
                        for row in json.loads(read(rep, "reconstruction.json"))["rho"]])
        dist = 0.5 * np.abs(np.linalg.eigvalsh(rho - stored)).sum()
        assert dist < 0.02
        assert rep.metric("trace_distance_to_truth") == pytest.approx(dist, abs=1e-9)

    def test_sampled_mode_artifacts(self, tmp_path):
        rep = run(tmp_path, {"scenario": "tomography_demo",
                             "statistics": {"shots_per_basis": 20_000,
                                            "seed": 4}})
        assert rep.metric("mode") == "sampled"
        assert rep.metric("trace_distance_to_truth") < 0.05
        counts = csv_rows(read(rep, "counts.csv"))
        assert [r[0] for r in counts] == ["H", "V", "H+iV", "H+V"]
        assert all(r[1] == "20000" for r in counts)
        recon = json.loads(read(rep, "reconstruction.json"))
        assert json.loads(read(rep, "summary.json"))["metrics"]["psd"] is True
        assert recon  # parsed non-empty document


# ---------------------------------------------------------------------------
# output handling
# ---------------------------------------------------------------------------

class TestOutputs:
    def test_format_csv_only(self, tmp_path):
        rep = run(tmp_path, {"scenario": "lgi_envelope",
                             "output": {"format": "csv"}})
        names = sorted(os.path.basename(p) for p in rep.outputs)
        assert names == ["envelope.csv"]

    def test_format_json_only(self, tmp_path):
        rep = run(tmp_path, {"scenario": "lgi_envelope",
                             "output": {"format": "json"}})
        names = sorted(os.path.basename(p) for p in rep.outputs)
        assert names == ["summary.json"]

    def test_format_both(self, tmp_path):
        rep = run(tmp_path, {"scenario": "tomography_demo"})
        names = sorted(os.path.basename(p) for p in rep.outputs)
        assert names == ["counts.csv", "reconstruction.json", "summary.json"]

    def test_summary_has_no_wall_time(self, tmp_path):
        rep = run(tmp_path, {"scenario": "lgi_envelope"})
        summary = json.loads(read(rep, "summary.json"))
        assert set(summary) == {"scenario", "seed", "digest", "metrics"}
        assert summary["digest"] == rep.digest

    def test_same_seed_byte_identical(self, tmp_path):
        doc = {"scenario": "lgi_envelope", "defaults": "paper",
               "statistics": {"seed": 3}}
        a = run(tmp_path, doc, subdir="a")
        b = run(tmp_path, doc, subdir="b")
        assert a.digest == b.digest
        assert read(a, "envelope.csv") == read(b, "envelope.csv")
        assert read(a, "summary.json") == read(b, "summary.json")

    def test_different_seed_differs(self, tmp_path):
        base = {"scenario": "lgi_envelope", "defaults": "paper"}
        a = run(tmp_path, dict(base, statistics={"seed": 3}), subdir="a")
        b = run(tmp_path, dict(base, statistics={"seed": 4}), subdir="b")
        assert a.digest != b.digest
        assert read(a, "envelope.csv") != read(b, "envelope.csv")

    def test_workers_do_not_change_bytes(self, tmp_path):
        # about 42 offset counts expected at 250 ns: P(undefined g2) ~ 6e-19
        doc = {"scenario": "g2_vs_storage",
               "statistics": {"trials": 100_000_000, "seed": 6}}
        a = run(tmp_path, dict(doc, statistics=dict(doc["statistics"],
                                                    workers=1)), subdir="a")
        b = run(tmp_path, dict(doc, statistics=dict(doc["statistics"],
                                                    workers=3)), subdir="b")
        assert read(a, "g2.csv") == read(b, "g2.csv")
        assert read(a, "summary.json") == read(b, "summary.json")

    @pytest.mark.parametrize("doc", [
        {"scenario": "lgi_envelope"},
        {"scenario": "stationarity_grid"},
        {"scenario": "markovianity", "statistics": {"shots_per_basis": 1000}},
        {"scenario": "g2_vs_storage", "statistics": {"trials": 100_000_000}},
        {"scenario": "echo_trace"},
        {"scenario": "tomography_demo"},
    ])
    def test_artifact_table_names_every_output(self, tmp_path, doc):
        rep = run(tmp_path, doc)
        names = sorted(os.path.basename(p) for p in rep.outputs)
        assert names == sorted(_ARTIFACTS[doc["scenario"]] + ("summary.json",))

    def test_failure_removes_partial_outputs(self, tmp_path):
        out = tmp_path / "out"
        blocker = out / "summary.json"
        blocker.mkdir(parents=True)
        doc = {"scenario": "lgi_envelope",
               "output": {"directory": str(out)}}
        with pytest.raises(OSError):
            run_scenario(parse_config(json.dumps(doc)))
        assert sorted(os.listdir(out)) == ["summary.json"]

    def test_stream_layout_pins_the_paper_artifacts(self, tmp_path):
        got = {}
        for scenario in SCENARIOS:
            rep = run(tmp_path, {"scenario": scenario, "defaults": "paper"},
                      subdir=scenario)
            for path in rep.outputs:
                name = os.path.basename(path)
                with open(path, "rb") as fh:
                    blob = fh.read()
                if name == "summary.json":
                    summary = json.loads(blob)
                    del summary["digest"]
                    blob = json.dumps(summary, sort_keys=True).encode()
                got[f"{scenario}/{name}"] = hashlib.sha256(blob).hexdigest()
        assert got == _PINNED_ARTIFACTS[STREAM_LAYOUT]


# sha256 of every artifact of the six default paper-preset runs at seed
# 0, per STREAM_LAYOUT; summary.json is hashed as key-sorted compact JSON
# without its digest field, which covers the whole configuration
# document.  A change that moves an output byte at a fixed configuration
# must bump STREAM_LAYOUT and add the new values here.  The CSV
# provenance lines carry the package version, so a version bump moves
# the CSV pins too.
_PINNED_ARTIFACTS = {
    6: {
        "echo_trace/summary.json":
            "578dac3f84e5da16f56e6675f40a7a0eafff98bc4b206c62f472a4144ebca606",
        "echo_trace/trace.csv":
            "5bda5ec0474644648509ee4872943e7c71211201496991aa5d8b908dc423027a",
        "g2_vs_storage/g2.csv":
            "d4eeb5b960bc56dd9053f59ca5863aad86a06452686a006ddde3af707f562acc",
        "g2_vs_storage/summary.json":
            "b74d43eb01c8d43e38b759e8d920a21a32455939a80e2deca81af3cf12763cd8",
        "lgi_envelope/envelope.csv":
            "e1c167d1288ae4aa9db7ac0e717a525fdfce1326a37e708d22e7453723ea51e1",
        "lgi_envelope/summary.json":
            "427b77cfe4690941a8562a33678b3d1731ef8933d0a2d957c792a9f3111c8e31",
        "markovianity/distance.csv":
            "71cf26c0560cea6d223d8ecd3f15ef5c91fc4b120b27010308e781aca03b9238",
        "markovianity/summary.json":
            "d6873f74aa7085d1b96875c5ea32e791edbea4f7f558948b2a47de9ac50f7de5",
        "stationarity_grid/grid.csv":
            "d17a59e077dfd2eacebea3547a0ba30789c3fa8e20899e4900c578ea3396a675",
        "stationarity_grid/summary.json":
            "8d9b2476083c3932896c99f4a631213791cfd4b0db2afa5086410544bba14b12",
        "tomography_demo/counts.csv":
            "43f357533e6c3be3c2eedbc4b4e591e27e9949817ad9a3a67709e9109ccdbb51",
        "tomography_demo/reconstruction.json":
            "6fd2e6c8ecb67f0578e8879797473306d6bc0e4955171146019e9041a512b25f",
        "tomography_demo/summary.json":
            "61aad8d16c07eb9d6c706c0ed2a4c90824bd77980f44c76d0ea9bf3ed1d4eece",
    },
    # layout 7 moved the last digits of the tomography_demo distance to
    # the stored state only
    7: {
        "echo_trace/summary.json":
            "578dac3f84e5da16f56e6675f40a7a0eafff98bc4b206c62f472a4144ebca606",
        "echo_trace/trace.csv":
            "5bda5ec0474644648509ee4872943e7c71211201496991aa5d8b908dc423027a",
        "g2_vs_storage/g2.csv":
            "d4eeb5b960bc56dd9053f59ca5863aad86a06452686a006ddde3af707f562acc",
        "g2_vs_storage/summary.json":
            "b74d43eb01c8d43e38b759e8d920a21a32455939a80e2deca81af3cf12763cd8",
        "lgi_envelope/envelope.csv":
            "e1c167d1288ae4aa9db7ac0e717a525fdfce1326a37e708d22e7453723ea51e1",
        "lgi_envelope/summary.json":
            "427b77cfe4690941a8562a33678b3d1731ef8933d0a2d957c792a9f3111c8e31",
        "markovianity/distance.csv":
            "71cf26c0560cea6d223d8ecd3f15ef5c91fc4b120b27010308e781aca03b9238",
        "markovianity/summary.json":
            "d6873f74aa7085d1b96875c5ea32e791edbea4f7f558948b2a47de9ac50f7de5",
        "stationarity_grid/grid.csv":
            "d17a59e077dfd2eacebea3547a0ba30789c3fa8e20899e4900c578ea3396a675",
        "stationarity_grid/summary.json":
            "8d9b2476083c3932896c99f4a631213791cfd4b0db2afa5086410544bba14b12",
        "tomography_demo/counts.csv":
            "43f357533e6c3be3c2eedbc4b4e591e27e9949817ad9a3a67709e9109ccdbb51",
        "tomography_demo/reconstruction.json":
            "6fd2e6c8ecb67f0578e8879797473306d6bc0e4955171146019e9041a512b25f",
        "tomography_demo/summary.json":
            "768e63fd8cdbbad14ebcbff560bf6b87715a8c9a56fbc1ba8d49093538c2155e",
    },
    # layout 8 moved the g2_vs_storage draws only: false heralds and
    # noise clicks come per chunk, and the paper source runs in one chunk
    8: {
        "echo_trace/summary.json":
            "578dac3f84e5da16f56e6675f40a7a0eafff98bc4b206c62f472a4144ebca606",
        "echo_trace/trace.csv":
            "5bda5ec0474644648509ee4872943e7c71211201496991aa5d8b908dc423027a",
        "g2_vs_storage/g2.csv":
            "cfd17c9b76533e4de8e1c04891c42cc0d1eff6e680f970fdb1aae6dff89eeb02",
        "g2_vs_storage/summary.json":
            "34072572a27e16aa742291c0ddd513a5edda5d997712ec25b41cf550e044f045",
        "lgi_envelope/envelope.csv":
            "e1c167d1288ae4aa9db7ac0e717a525fdfce1326a37e708d22e7453723ea51e1",
        "lgi_envelope/summary.json":
            "427b77cfe4690941a8562a33678b3d1731ef8933d0a2d957c792a9f3111c8e31",
        "markovianity/distance.csv":
            "71cf26c0560cea6d223d8ecd3f15ef5c91fc4b120b27010308e781aca03b9238",
        "markovianity/summary.json":
            "d6873f74aa7085d1b96875c5ea32e791edbea4f7f558948b2a47de9ac50f7de5",
        "stationarity_grid/grid.csv":
            "d17a59e077dfd2eacebea3547a0ba30789c3fa8e20899e4900c578ea3396a675",
        "stationarity_grid/summary.json":
            "8d9b2476083c3932896c99f4a631213791cfd4b0db2afa5086410544bba14b12",
        "tomography_demo/counts.csv":
            "43f357533e6c3be3c2eedbc4b4e591e27e9949817ad9a3a67709e9109ccdbb51",
        "tomography_demo/reconstruction.json":
            "6fd2e6c8ecb67f0578e8879797473306d6bc0e4955171146019e9041a512b25f",
        "tomography_demo/summary.json":
            "768e63fd8cdbbad14ebcbff560bf6b87715a8c9a56fbc1ba8d49093538c2155e",
    },
    # layout 9 moved the g2_vs_storage draws only: herald dark counts
    # come with the real heralds, and noise click positions go unsorted
    9: {
        "echo_trace/summary.json":
            "578dac3f84e5da16f56e6675f40a7a0eafff98bc4b206c62f472a4144ebca606",
        "echo_trace/trace.csv":
            "5bda5ec0474644648509ee4872943e7c71211201496991aa5d8b908dc423027a",
        "g2_vs_storage/g2.csv":
            "3ab0845579659c88008833ee497ab593b80f7c1847a83761d105cfd9c6b411e4",
        "g2_vs_storage/summary.json":
            "e1038d6d94dad799cec222e7f8ed106d074933958b0127002aee6328f67ff827",
        "lgi_envelope/envelope.csv":
            "e1c167d1288ae4aa9db7ac0e717a525fdfce1326a37e708d22e7453723ea51e1",
        "lgi_envelope/summary.json":
            "427b77cfe4690941a8562a33678b3d1731ef8933d0a2d957c792a9f3111c8e31",
        "markovianity/distance.csv":
            "71cf26c0560cea6d223d8ecd3f15ef5c91fc4b120b27010308e781aca03b9238",
        "markovianity/summary.json":
            "d6873f74aa7085d1b96875c5ea32e791edbea4f7f558948b2a47de9ac50f7de5",
        "stationarity_grid/grid.csv":
            "d17a59e077dfd2eacebea3547a0ba30789c3fa8e20899e4900c578ea3396a675",
        "stationarity_grid/summary.json":
            "8d9b2476083c3932896c99f4a631213791cfd4b0db2afa5086410544bba14b12",
        "tomography_demo/counts.csv":
            "43f357533e6c3be3c2eedbc4b4e591e27e9949817ad9a3a67709e9109ccdbb51",
        "tomography_demo/reconstruction.json":
            "6fd2e6c8ecb67f0578e8879797473306d6bc0e4955171146019e9041a512b25f",
        "tomography_demo/summary.json":
            "768e63fd8cdbbad14ebcbff560bf6b87715a8c9a56fbc1ba8d49093538c2155e",
    },
    # layout 10 moved the g2_vs_storage draws only: a chunk draws its
    # fates and noise clicks from its heralds' stream, and a paper-point
    # storage time runs as two chunks
    10: {
        "echo_trace/summary.json":
            "578dac3f84e5da16f56e6675f40a7a0eafff98bc4b206c62f472a4144ebca606",
        "echo_trace/trace.csv":
            "5bda5ec0474644648509ee4872943e7c71211201496991aa5d8b908dc423027a",
        "g2_vs_storage/g2.csv":
            "af3dbc1e41d9e68f71e9d13f0aeef9471f3d9eee2bf8bbd8d19a1ad04c8ab160",
        "g2_vs_storage/summary.json":
            "987fc93efe4b966a7cd907fe29984c0eb15d595b2ee98ce97077492cfd6645ad",
        "lgi_envelope/envelope.csv":
            "e1c167d1288ae4aa9db7ac0e717a525fdfce1326a37e708d22e7453723ea51e1",
        "lgi_envelope/summary.json":
            "427b77cfe4690941a8562a33678b3d1731ef8933d0a2d957c792a9f3111c8e31",
        "markovianity/distance.csv":
            "71cf26c0560cea6d223d8ecd3f15ef5c91fc4b120b27010308e781aca03b9238",
        "markovianity/summary.json":
            "d6873f74aa7085d1b96875c5ea32e791edbea4f7f558948b2a47de9ac50f7de5",
        "stationarity_grid/grid.csv":
            "d17a59e077dfd2eacebea3547a0ba30789c3fa8e20899e4900c578ea3396a675",
        "stationarity_grid/summary.json":
            "8d9b2476083c3932896c99f4a631213791cfd4b0db2afa5086410544bba14b12",
        "tomography_demo/counts.csv":
            "43f357533e6c3be3c2eedbc4b4e591e27e9949817ad9a3a67709e9109ccdbb51",
        "tomography_demo/reconstruction.json":
            "6fd2e6c8ecb67f0578e8879797473306d6bc0e4955171146019e9041a512b25f",
        "tomography_demo/summary.json":
            "768e63fd8cdbbad14ebcbff560bf6b87715a8c9a56fbc1ba8d49093538c2155e",
    },
}


class TestAtomicWrite:
    def test_failed_write_leaves_no_stray_file(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            _atomic_write(str(path), "\ud800")  # a lone surrogate cannot encode
        assert os.listdir(tmp_path) == ["grid.csv"]
        assert path.read_text() == "old\n"

    def test_temp_name_is_not_shared(self, tmp_path):
        # a concurrent run's temp file under the old fixed name survives
        other = tmp_path / "grid.csv.tmp"
        other.write_text("other run\n")
        _atomic_write(str(tmp_path / "grid.csv"), "mine\n")
        assert sorted(os.listdir(tmp_path)) == ["grid.csv", "grid.csv.tmp"]
        assert other.read_text() == "other run\n"

    def test_mode_matches_open(self, tmp_path):
        _atomic_write(str(tmp_path / "a.csv"), "x\n")
        (tmp_path / "b.csv").write_text("x\n")
        assert (tmp_path / "a.csv").stat().st_mode == (tmp_path / "b.csv").stat().st_mode


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

class TestEmitReport:
    def test_json_round_trip(self, tmp_path):
        rep = run(tmp_path, {"scenario": "echo_trace"})
        doc = json.loads(emit_report(rep, "json"))
        assert doc == rep.to_dict()

    def test_text_carries_same_numbers(self, tmp_path):
        rep = run(tmp_path, {"scenario": "lgi_envelope", "defaults": "paper"})
        text = emit_report(rep, "text")
        doc = json.loads(emit_report(rep, "json"))
        parsed = {}
        for line in text.splitlines():
            if line.startswith("  ") and ": " in line:
                name, value = line.strip().split(": ", 1)
                parsed[name] = json.loads(value)
        assert parsed == doc["metrics"]
        assert f"digest: {rep.digest}" in text

    def test_text_verdict_line_violation(self, tmp_path):
        rep = run(tmp_path, {"scenario": "lgi_envelope", "defaults": "paper",
                             "statistics": {"seed": 1}})
        last = emit_report(rep, "text").strip().splitlines()[-1]
        assert last.startswith("VIOLATION: k_plus=")
        assert "sigma=" in last and "significance=" in last

    def test_text_verdict_line_no_violation(self, tmp_path):
        rep = run(tmp_path, {"scenario": "lgi_envelope",
                             "statistics": {"probe_time": 200e-9}})
        assert emit_report(rep, "text").strip().splitlines()[-1] == "NO VIOLATION"

    def test_no_verdict_for_other_scenarios(self, tmp_path):
        rep = run(tmp_path, {"scenario": "echo_trace"})
        last = emit_report(rep, "text").strip().splitlines()[-1]
        assert last.startswith("  second_echo_ratio")

    def test_bad_format_rejected(self, tmp_path):
        rep = run(tmp_path, {"scenario": "echo_trace"})
        with pytest.raises(DomainError, match="format"):
            emit_report(rep, "yaml")
