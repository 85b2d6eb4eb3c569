"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import layers
import tracing
import worker
import workloads
from rieszcert import gross_pitaevskii as gp
from rieszcert import polyform
from rieszcert import spread_toeplitz as st
from rieszcert import weierstrass as ws

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def run_bench(workload, trace):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_tiny(workload):
    result = last_json(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    names = [name for name, _ in layers.END_TO_END]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


# layers each workload must reach, so their per-layer metrics are live
REACHED = {
    "thresholds": ["gross_pitaevskii.s_alpha.calls",
                   "gross_pitaevskii.min_quadratic.calls",
                   "polydisc.in_polydisc_roots.calls", "polyform.roots.calls",
                   "cli.sweep.wall_s", "cli.sweep.row_sum_s"],
    "certify-mix": ["polyform.min_modulus_disc.calls",
                    "polydisc.in_polydisc_schur_cohn.calls",
                    "spread_toeplitz.symbol_inf.calls",
                    "weierstrass.certify_S1.degree_sum",
                    "gross_pitaevskii.certify_T1.self_s",
                    "gross_pitaevskii.certify_Td.self_s"],
    "sections": ["spread_toeplitz.finite_section.rule_calls",
                 "spread_toeplitz.smallest_singular.self_s",
                 "spread_toeplitz.section.computed_bytes",
                 "dilation.trajectory_coeffs.calls",
                 "weierstrass.cj_rule.calls"],
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_layer_metric(workload):
    result = last_json(run_bench(workload, 1))
    names = [name for name, _, _ in layers.PER_LAYER]
    assert list(result["metrics"]) == names
    for name in REACHED[workload] + ["cli.import_s"]:
        assert result["metrics"][name]["value"] > 0, name


def test_benchmark_json_matches_layers():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name, _ in layers.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "thresholds",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    cls = workloads.WORKLOADS[workload]
    a, b, c = cls(7), cls(7), cls(8)
    assert a.deck() == b.deck() and a.deck() == b.deck()
    assert cls(7).deck() != c.deck()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_run_size_follows_seconds_not_the_clock(workload):
    cls = workloads.WORKLOADS[workload]
    w = cls(3)
    first = w.deck()
    tail_decks = -(-w.min_samples // len(first))
    assert worker.deck_count(w, 0.1, first) == max(1, tail_decks)
    assert worker.deck_count(w, 1000.0, first) == round(1000.0 / w.deck_s)


def test_threshold_decks_cover_alpha_and_deck_zero_is_the_cli_grid():
    t = workloads.Thresholds(5)
    decks = [t.deck() for _ in range(6)]
    alphas = [sorted({r["alpha"] for r in deck}) for deck in decks]
    assert alphas[0] == sorted(t.grid) and alphas[0][0] == 0.0
    assert t.cli_plan()[0]["argv"][4] == repr(t.alpha_max)
    assert all(0.0 <= a < 2.0 for grid in alphas for a in grid)
    assert len({grid[0] for grid in alphas}) == len(alphas)


def test_every_certify_deck_holds_the_pinned_band():
    m = workloads.CertifyMix(4)
    for _ in range(2):
        band = [r for r in m.deck() if m.kind(r) == "S1 nu>=0.98"]
        nus = sorted(r["mu"] * r["p"] ** r["alpha"] for r in band)
        assert len(band) == 2 * len(m.BAND) + 1
        assert nus[0] == pytest.approx(0.98) and nus[-1] == pytest.approx(0.99)


def test_section_decks_cycle_the_big_section():
    s = workloads.Sections(6)
    big = [[(r["family"], r["entry"]) for r in s.deck() if r["N"] == 2048]
           for _ in range(4)]
    assert big == [[b] for b in s.BIG]


# -- corrupted results are flagged ------------------------------------------

def test_swapped_thresholds_flagged():
    t = workloads.Thresholds(0, tiny=True)
    req = {"alpha": 0.0, "p": 3}
    out = t.call(req)
    assert t.check(req, out) is None
    swapped = dict(out, r0=out["r1"], r1=out["r0"])
    assert t.check(req, swapped)[0] == "incorrect"
    assert t.check(req, dict(out, r0=out["r0"] + 2e-3))[0] == "incorrect"


def test_perturbed_sigma_flagged():
    s = workloads.Sections(0, tiny=True)
    req = {"family": "gp-const", "entry": 1, "N": 256}
    out = s.call(req)
    assert s.check(req, out) is None
    assert s.check(req, {"sigma_min": out["sigma_min"] * (1 + 1e-5)})[0] == "incorrect"


def test_trajectory_disagreement_flagged():
    s = workloads.Sections(0, tiny=True)
    recs = [{"req": {"family": f, "entry": 0, "N": 256}, "out": {"sigma_min": x}}
            for f, x in (("ws-const", 0.8), ("ws-trajectory", 0.8 + 1e-6))]
    assert [(i, v[0]) for i, v in s.check_run(recs)] == [(1, "incorrect")]
    recs[1]["out"]["sigma_min"] = 0.8
    assert s.check_run(recs) == []


def test_flipped_certificate_verdicts_flagged():
    m = workloads.CertifyMix(0)
    inside = {"op": "membership", "coeffs": [0.2, 0.1]}
    assert m.check(inside, {"verdict": True}) is None
    assert m.check(inside, {"verdict": False})[0] == "incorrect"
    s0 = {"op": "ws", "region": "S0", "p": 2, "alpha": 0.0, "mu": 0.3}
    assert m.check(s0, {"verdict": True}) is None
    assert m.check(s0, {"verdict": False})[0] == "incorrect"
    t1 = {"op": "T1", "sup_q": 0.5, "alpha": 0.0, "p": 3}
    assert m.check(t1, {"verdict": True}) is None
    assert m.check(t1, {"verdict": False})[0] == "incorrect"


def test_cli_output_mismatch_flagged():
    t = workloads.Thresholds(0, tiny=True)
    expect = {"kind": "csv", "p": 3}
    rows = {"3": ["0,0.768062449,0.786462682,0.838214219"]}
    good = "alpha,r0,r1,r1_tilde\n0,0.768062449,0.786462682,0.838214219\n"
    assert workloads.check_cli(t, expect, 0, good, rows) is None
    bad = good.replace("0.786462682", "0.786462683")
    assert workloads.check_cli(t, expect, 0, bad, rows)[0] == "incorrect"
    assert workloads.check_cli(t, expect, 3, good, rows)[0] == "failed"
    m = workloads.CertifyMix(0)
    s0 = {"op": "ws", "region": "S0", "p": 2, "alpha": 0.0, "mu": 0.3}
    verdict = {"kind": "verdict", "req": s0}
    assert workloads.check_cli(m, verdict, 0, '{"verdict": true}', {}) is None
    assert workloads.check_cli(m, verdict, 1, '{"verdict": false}', {})[0] == "incorrect"
    assert workloads.check_cli(m, verdict, 0, "", {})[0] == "failed"


# -- the tracer ----------------------------------------------------------------

def test_tracer_rebinds_imported_names_and_restores_them():
    originals = (polyform.roots, gp.in_polydisc_roots, st.min_modulus_disc,
                 ws.min_modulus_disc)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gp.in_polydisc_roots is not originals[1]
        assert st.min_modulus_disc is not originals[2]
        assert ws.min_modulus_disc is not originals[3]
        tracer.begin_request(0)
        gp.min_quadratic(0.3, 0.2)
        tracer.end_request()
    finally:
        tracer.uninstall()
    assert (polyform.roots, gp.in_polydisc_roots, st.min_modulus_disc,
            ws.min_modulus_disc) == originals
    names = [s[0] for s in tracer.spans]
    assert names == ["request", "gross_pitaevskii.min_quadratic",
                     "polydisc.in_polydisc_roots", "polyform.roots"]
    parents = [s[3] for s in tracer.spans]
    assert parents == [-1, 0, 1, 2]
    selfs = tracer.self_times()
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(selfs.values()) == pytest.approx(total)
