"""rieszcert benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload thresholds --seed 0 --seconds 18 --trace 0

Run from the root of a checkout that holds ``src/rieszcert``. It runs
the workload in a fresh process (worker.py), with no tracing installed,
and reports:

- setup_s: interquartile mean wall time of twelve cold ``rieszcert
  certify`` runs (imports, argparse, config and a trivial S0
  certificate);
- req_p50_s, req_tail_s, req_per_s: latency percentiles and throughput
  of the closed loop;
- cli_s: wall time of the workload's CLI leg, import included (each
  call counts with the interquartile mean of four runs);
- peak_rss_mb: peak resident memory of the workload process.

The cold starts and CLI calls are spread over the loop. Time metrics
are reported at a reference machine speed, gauged by calibration
kernels timed every 0.1 s of the loop: each request latency by the
kernels within a second of it, the cold starts and CLI calls by the
run's average (see README.md). The human-readable lines give them as
timed too. With ``--trace 1`` it runs the same loop
a second time under the tracer and reports the per-layer metrics of
layers.PER_LAYER instead. Every output
is checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--tiny``
shrinks every workload to a few requests, for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from layers import END_TO_END, PER_LAYER  # noqa: E402

RUN_TIMEOUT_S = 170     # the whole run, workers included


def run_worker(args, trace: int, deadline: float) -> tuple:
    """The workload in a fresh process, reaped with wait4 for its own
    peak RSS: (result dict, peak RSS MB). Killed at ``deadline``."""
    tag = f"{args.workload}-seed{args.seed}-trace{trace}"
    out = OUT / f"{tag}.json"
    argv = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace),
            "--out", str(out)]
    if args.tiny:
        argv.append("--tiny")
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), usage.ru_maxrss / 1024.0


def tail_of(latencies: list, percentile: int) -> tuple:
    """(value, samples beyond it) of an inclusive percentile."""
    if len(latencies) < 2:
        return latencies[0], 0
    value = statistics.quantiles(latencies, n=100, method="inclusive")[percentile - 1]
    return value, sum(x > value for x in latencies)


def summarize_checks(checks: list) -> tuple:
    """(failed count, incorrect count, reasons by count)."""
    reasons = Counter()
    failed = incorrect = 0
    for c in checks:
        if c is None:
            continue
        failed += 1
        incorrect += c[0] == "incorrect"
        reasons[f"{c[0]}: {c[1]}"] += 1
    return failed, incorrect, reasons


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "rieszcert" / "cli.py").is_file():
        print(f"no rieszcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    deadline = time.perf_counter() + RUN_TIMEOUT_S
    plain, rss = run_worker(args, 0, deadline)
    result = run_worker(args, 1, deadline)[0] if args.trace else plain

    lat = result["latencies"]
    checks = result["checks"] + plain["side_checks"]
    failed, incorrect, reasons = summarize_checks(checks)
    attempted = len(checks)
    p50 = statistics.median(lat)
    tail_pct = workloads.WORKLOADS[args.workload].tail
    tail, beyond = tail_of(lat, tail_pct)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  closed loop, 1 client  "
          f"BLAS threads {result['blas_threads']}")
    print(f"{len(lat)} requests in {result['elapsed_s']:.2f} s "
          f"({result['decks']} decks); tail is p{tail_pct} "
          f"with {beyond} samples beyond it")
    by_kind = {}
    for kind, latency in zip(result["kinds"], lat):
        by_kind.setdefault(kind, []).append(latency)
    # The machine's speed drifts by tens of percent over seconds to
    # minutes; the worker scales each time by the speed that the
    # calibration kernels gauge around it.
    print(f"calibration kernels {plain['calib_s'] * 1e3:.3f} ms (trimmed mean "
          f"of {plain['calibrations']}), reference "
          f"{plain['calib_reference_s'] * 1e3:.3f} ms")
    print("median latency by kind: " + ", ".join(
        f"{kind} {statistics.median(v):.4g} s (n={len(v)})"
        for kind, v in sorted(by_kind.items())))

    if args.trace:
        layers = dict(result["layers"])
        sweep = args.workload == "thresholds"
        layers["cli.import_s"] = plain["import_s"]
        layers["cli.sweep.wall_s"] = plain["cli_s"] if sweep else 0.0
        layers["cli.sweep.row_sum_s"] = plain["first_deck_s"] if sweep else 0.0
        plain_p50 = statistics.median(plain["latencies"])
        layers["trace.req_p50_overhead"] = p50 / plain_p50 - 1.0
        metrics = {}
        for name, unit, moves in PER_LAYER:
            metrics[name] = {"value": layers[name], "unit": unit}
            print(f"  {name:52s} {layers[name]:14.6g} {unit:10s} -> {moves}")
        print(f"traced req_p50_s {p50:.6g} s against untraced {plain_p50:.6g} s")
    else:
        lat_ref = plain["latencies_ref"]
        raw = {"setup_s": plain["setup_s"], "req_p50_s": p50,
               "req_tail_s": tail, "req_per_s": len(lat) / result["elapsed_s"],
               "cli_s": plain["cli_s"], "peak_rss_mb": rss}
        ref = {"setup_s": plain["setup_s_ref"],
               "req_p50_s": statistics.median(lat_ref),
               "req_tail_s": tail_of(lat_ref, tail_pct)[0],
               "req_per_s": len(lat_ref) / plain["elapsed_s_ref"],
               "cli_s": plain["cli_s_ref"], "peak_rss_mb": rss}
        metrics = {}
        print(f"  {'metric':12s} {'reported':>12s} {'as timed':>12s}")
        for name, unit in END_TO_END:
            metrics[name] = {"value": ref[name], "unit": unit}
            print(f"  {name:12s} {ref[name]:12.6g} {raw[name]:12.6g} {unit}")
    print(f"  {'fail_ratio':12s} {failed / attempted:12.6g} "
          f"({failed} of {attempted}; {incorrect} incorrect)")
    for reason, count in reasons.most_common():
        print(f"    {count:5d}  {reason}")

    print(json.dumps({"correct": incorrect == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
