"""The workload process: runs one workload as a closed loop in-process.

One client issues the next request only after the previous one
returned. A run is a fixed number of whole decks, set by ``--seconds``
and the workload's nominal deck time (see ``deck_count``), so the same
seed and seconds give the same requests, and the same failures,
however fast the machine is. The library gets only the generated
inputs; checks run after the timed loop.

An untraced run also times side jobs, spread evenly over the requests
so that they meet the machine in the same states as the requests: cold
``rieszcert certify`` starts, bare imports of ``rieszcert.cli``, the
workload's CLI leg (four times); and every GAUGE_EVERY_S of loop time
it times fixed calibration kernels that gauge the machine's speed. The
loop's own time excludes them.
A traced run (``--trace 1``) runs the loop under the tracer instead and
writes the spans next to ``--out``, as ``<out>.spans.csv.gz``. Either
way the result is one JSON object in ``--out``.

    python3 perfbench/worker.py --workload thresholds --seed 0 \
        --seconds 18 --trace 0 --out result.json
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import glob
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time
import warnings

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

LOOP_CAP_S = 120.0     # a run stops here even short of its decks
COLD_STARTS = 12
IMPORT_PROBES = 3
CLI_LEGS = 4
GAUGE_EVERY_S = 0.1    # loop time between two calibrations
GAUGE_WINDOW_S = 1.0   # calibrations this near a request gauge its speed
GAUGE_SIDE = 3         # and at least this many on either side of it
# Median seconds of each calibration kernel on the 2-vCPU machine of the
# first baseline: time metrics are reported at this reference speed.
REFERENCE_S = {"interpreter": 0.0048, "blas": 0.0089}
COLD_ARGV = ["certify", json.dumps({"family": "weierstrass", "p": 2,
                                    "alpha": 0.0, "mu": 0.25,
                                    "region": "S0"})]
IMPORT_CODE = ("import time; t = time.perf_counter(); import rieszcert.cli; "
               "print(time.perf_counter() - t)")
PROCESS_TIMEOUT_S = 60


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# ---------------------------------------------------------------------------
# side jobs

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list) -> tuple:
    """One ``rieszcert`` CLI call: (exit code, wall s, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "rieszcert.cli", *argv],
                          cwd=ROOT, env=_env(), capture_output=True,
                          text=True, stdin=subprocess.DEVNULL,
                          timeout=PROCESS_TIMEOUT_S)
    return proc.returncode, time.perf_counter() - start, proc.stdout


def run_import() -> float:
    """Time to import rieszcert.cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT,
                          env=_env(), capture_output=True, text=True,
                          check=True, stdin=subprocess.DEVNULL,
                          timeout=PROCESS_TIMEOUT_S)
    return float(proc.stdout)


_CAL_MATRIX = np.random.default_rng(12345).standard_normal((160, 160)) * (1 + 1j)


def _interpreter_kernel() -> None:
    """Interpreter-bound work: bytecode, dicts, complex floats and many
    small numpy calls, the kind of work most requests do."""
    acc = 0
    for i in range(10000):
        acc += i * i % 7
    table = {}
    for i in range(4000):
        table[i % 97] = table.get(i % 97, 0.0) + float(i) * 1.0001
    sum(abs(complex(i, i)) for i in range(2000))
    a = np.arange(256.0)
    for _ in range(600):
        a = np.sqrt(a + 1.0)


def _blas_kernel() -> None:
    """One dense complex SVD through numpy's BLAS."""
    np.linalg.svd(_CAL_MATRIX, compute_uv=False)


KERNELS = {"interpreter": _interpreter_kernel, "blas": _blas_kernel}


def calibrate(kernels: tuple) -> float:
    """Seconds for the workload's fixed calibration kernels: a gauge of
    the machine's speed at the moment. It runs no rieszcert code."""
    start = time.perf_counter()
    for name in kernels:
        KERNELS[name]()
    return time.perf_counter() - start


def side_jobs(plan: list) -> list:
    """The side jobs of an untraced run, each kind spread evenly over
    the sequence: ("cold" | "import" | "cli", step)."""
    kinds = [[("cold", None)] * COLD_STARTS, [("import", None)] * IMPORT_PROBES,
             [("cli", step) for _ in range(CLI_LEGS) for step in plan]]
    placed = [((i + 0.5) / len(jobs), k, job)
              for k, jobs in enumerate(kinds) for i, job in enumerate(jobs)]
    return [job for _, _, job in sorted(placed, key=lambda x: x[:2])]


def run_side_job(job: tuple) -> dict:
    kind, step = job
    if kind == "import":
        return {"kind": kind, "wall": run_import()}
    argv = COLD_ARGV if kind == "cold" else step["argv"]
    code, wall, stdout = run_cli(argv)
    return {"kind": kind, "step": step, "code": code, "wall": wall,
            "stdout": stdout}


# ---------------------------------------------------------------------------
# the loop

def execute(workload, req: dict, tracer, index: int) -> dict:
    """One request; any exception or RuntimeWarning makes it fail."""
    if tracer is not None:
        tracer.begin_request(index)
    out, error = None, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            out = workload.call(req)
        except Exception as exc:   # a failed request, counted, never fatal
            error = type(exc).__name__
        latency = time.perf_counter() - start
    if tracer is not None:
        tracer.end_request()
    if error is None and caught:
        error = caught[0].category.__name__
    return {"req": req, "out": out, "latency": latency, "error": error}


def deck_count(workload, seconds: float, first_deck: list) -> int:
    """Decks in a run: about ``seconds`` of loop time at the workload's
    nominal deck time, and enough requests for its tail percentile.
    A function of the seed and ``seconds`` only, never of the clock."""
    return max(1, math.ceil(workload.min_samples / len(first_deck)),
               round(seconds / workload.deck_s))


def run_loop(workload, seconds: float, tracer=None, jobs=(),
             kernels=None) -> tuple:
    """The run's whole decks, one request after another. Side job i runs
    after request (i + 1/2) requests / jobs; with ``kernels``, the
    calibration runs before the first request, after the last and
    whenever GAUGE_EVERY_S of loop time has passed. Their time is not
    loop time. Requests, side jobs and calibrations note the loop time
    ``at`` which they ran. Returns (records, loop s, requests per deck,
    side job results, calibrations as (at, s))."""
    first = workload.deck()
    decks = [first] + [workload.deck()
                       for _ in range(deck_count(workload, seconds, first) - 1)]
    requests = [req for deck in decks for req in deck]
    due = [int((i + 0.5) * len(requests) / len(jobs)) for i in range(len(jobs))]
    records, done, gauges = [], [], []
    start = time.perf_counter()
    aside = 0.0
    next_gauge = 0.0

    def loop_time():
        return time.perf_counter() - start - aside

    for req in requests:
        if kernels and loop_time() >= next_gauge:
            t = time.perf_counter()
            gauges.append((loop_time(), calibrate(kernels)))
            aside += time.perf_counter() - t
            next_gauge = loop_time() + GAUGE_EVERY_S
        at = loop_time()
        rec = execute(workload, req, tracer, len(records))
        rec["at"] = at
        records.append(rec)
        while len(done) < len(jobs) and len(records) > due[len(done)]:
            at, t = loop_time(), time.perf_counter()
            done.append(dict(run_side_job(jobs[len(done)]), at=at))
            aside += time.perf_counter() - t
        if loop_time() >= LOOP_CAP_S:
            break
    elapsed = loop_time()
    if kernels:
        gauges.append((elapsed, calibrate(kernels)))
    done += [dict(run_side_job(job), at=elapsed) for job in jobs[len(done):]]
    return records, elapsed, [len(deck) for deck in decks], done, gauges


def trimmed_mean(values: list, cut: float = 0.1) -> float:
    """Mean of the values without the ``cut`` share at either end."""
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.mean(values[k:len(values) - k])


def speed_factor(gauges: list, start: float, end: float,
                 reference_s: float) -> float:
    """The reference calibration time over the interquartile mean of the
    calibrations from GAUGE_WINDOW_S before ``start`` to GAUGE_WINDOW_S
    after ``end`` (loop times), and at least GAUGE_SIDE on either side
    of [start, end], as long requests leave few calibrations near them.
    A time measured in [start, end] times this factor is that time at
    the reference speed."""
    ats = [at for at, _ in gauges]
    lo = min(bisect.bisect_left(ats, start - GAUGE_WINDOW_S),
             bisect.bisect_left(ats, start) - GAUGE_SIDE)
    hi = max(bisect.bisect_right(ats, end + GAUGE_WINDOW_S),
             bisect.bisect_right(ats, end) + GAUGE_SIDE)
    return reference_s / trimmed_mean([g for _, g in gauges[max(0, lo):hi]],
                                      0.25)


def verdicts(workload, records: list) -> list:
    """Per record: None, ("failed", reason) or ("incorrect", reason)."""
    out = []
    for rec in records:
        if rec["error"] is not None:
            out.append(("failed", rec["error"]))
        else:
            out.append(workload.check(rec["req"], rec["out"]))
    for i, verdict in workload.check_run(records):
        out[i] = verdict
    return out


def side_results(workload, done: list, plan: list, rows: dict,
                 factor: float) -> dict:
    """Times and checks of the side jobs. Each time is given as timed
    and at the reference speed (``*_ref``), by the run's speed
    ``factor``: a side job is a fresh process, which may run on the
    other vCPU than the calibrations, so the speed around it in the
    loop says less about it than the run's average speed does. Repeated
    timings count with their interquartile mean: a fresh process's time
    jumps by half with the machine's phase, which a median of a few
    follows all or nothing."""
    colds = [j for j in done if j["kind"] == "cold"]
    calls = [j for j in done if j["kind"] == "cli"]
    checks = [("failed", f"cold start exit {j['code']}")
              if j["code"] != 0 or '"verdict": true' not in j["stdout"] else None
              for j in colds]
    checks += [workloads.check_cli(workload, j["step"]["expect"], j["code"],
                                   j["stdout"], rows) for j in calls]
    # per step of the CLI leg, the interquartile mean of its runs; their
    # sum is cli_s
    walls, walls_ref = {}, {}
    for j in calls:
        step = plan.index(j["step"])
        walls.setdefault(step, []).append(j["wall"])
        walls_ref.setdefault(step, []).append(j["wall"] * factor)
    return {
        "setup_s": trimmed_mean([j["wall"] for j in colds], 0.25),
        "setup_s_ref": trimmed_mean([j["wall"] for j in colds], 0.25) * factor,
        "import_s": statistics.median(j["wall"] for j in done
                                      if j["kind"] == "import"),
        "cli_s": sum(trimmed_mean(w, 0.25) for w in walls.values()),
        "cli_s_ref": sum(trimmed_mean(w, 0.25) for w in walls_ref.values()),
        "side_checks": checks,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    tracer, jobs, plan = None, [], workload.cli_plan()
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    else:
        run_cli(COLD_ARGV)          # leaves the bytecode caches written
        jobs = side_jobs(plan)
    kernels = None if args.trace else workload.kernels
    try:
        records, elapsed, decks, done, gauges = run_loop(
            workload, args.seconds, tracer, jobs, kernels)
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "elapsed_s": elapsed,
        "decks": len(decks),
        "latencies": [r["latency"] for r in records],
        "kinds": [workload.kind(r["req"]) for r in records],
        "checks": verdicts(workload, records),
        # in-process time of the first deck, to set against the CLI leg
        "first_deck_s": sum(r["latency"] for r in records[:decks[0]]),
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(len(records))
        tracer.write_spans(args.out + ".spans.csv.gz")
    else:
        reference = sum(REFERENCE_S[k] for k in kernels)
        lat_ref = [r["latency"] * speed_factor(gauges, r["at"], r["at"] + r["latency"],
                                                reference)
                   for r in records]
        calib_s = trimmed_mean([g for _, g in gauges])
        result.update(
            latencies_ref=lat_ref,
            elapsed_s_ref=elapsed * sum(lat_ref) / sum(result["latencies"]),
            calib_s=calib_s,
            calib_reference_s=reference,
            calibrations=len(gauges),
            gauges=gauges,
            request_at=[r["at"] for r in records],
            side_jobs=[(j["kind"], j["at"], j["wall"]) for j in done],
            **side_results(workload, done, plan, workload.library_rows(records),
                           reference / calib_s))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
