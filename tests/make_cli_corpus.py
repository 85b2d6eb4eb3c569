"""Regenerate, or diff against, the CLI corpus ``tests/data/cli_corpus.jsonl``.

Each line of the corpus holds one command: its argv, exit code, stdout
and stderr, from ``rieszcert.cli.main`` run in-process.
``tests/test_cli_corpus.py`` replays every line and compares the bytes.

    PYTHONPATH=src python tests/make_cli_corpus.py          # rewrite
    PYTHONPATH=src python tests/make_cli_corpus.py --diff   # list moves

Both run the commands in a child process pinned to the same kernels on
every x86-64 CPU (:func:`pinned_env`): numpy's SIMD dispatch at its
baseline, and OpenBLAS's Prescott kernels. Without the pins, numpy's
AVX2 path moves s_alpha(0.9, 1.7) by one ulp, and OpenBLAS's Haswell,
Nehalem or Sandybridge kernels move the residuals that
``appendix-verify`` prints.

``--diff`` writes nothing. It prints each command whose output moved,
every changed line with the fields that moved in it (JSON margins and
parameters, CSV columns, section lines) as old -> new with their
relative change, and then, per field, the number of moves and the
largest relative one. It exits 1 when anything moved.

A run sees what a subprocess would write to stderr: log records of
WARNING and above as bare messages (the stdlib's last-resort handler),
and each Python warning as one ``Category: message`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

CORPUS = Path(__file__).parent / "data" / "cli_corpus.jsonl"


def pinned_env() -> dict:
    """The environment with every SIMD dispatch target of numpy turned
    off and OpenBLAS on its Prescott kernels; the child process that
    runs the corpus commands is started with it. ``PYTHONPATH`` leads
    with the directory of the imported rieszcert, so the child runs the
    same source."""
    import rieszcert
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:              # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__
    src = str(Path(rieszcert.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__),
            "OPENBLAS_CORETYPE": "Prescott",
            "PYTHONPATH": src + (os.pathsep + path if path else "")}


def _gp(**params) -> str:
    return json.dumps({"family": "gp", **params}, separators=(",", ":"))


def _ws(**params) -> str:
    return json.dumps({"family": "weierstrass", **params},
                      separators=(",", ":"))


def commands() -> list:
    """The argv lists of the corpus, in corpus order."""
    cmds = []
    # gp certificates: T1 at degree 2, the experimental Td otherwise
    for p in (3, 5, 7):
        for alpha in (0, 0.3, 1, 1.7):
            for sup_q in (0.05, 0.3, 0.5, 0.7, 0.9):
                for degree in (1, 2, 3, 5, 7):
                    cmds.append(["certify", _gp(p=p, alpha=alpha,
                                                sup_q=sup_q, degree=degree)])
    # gp T1 at small and tiny nomes, and near 1
    for sup_q in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-100, 0.999):
        cmds.append(["certify", _gp(p=3, alpha=0.5, sup_q=sup_q)])
    cmds.append(["certify", _gp(p=3, alpha=0.5, sup_q=0.4), "--terms", "50"])
    # Weierstrass S0 and S1 certificates
    for p, alpha in ((2, 0), (2, 0.5), (3, 0), (3, 1)):
        for frac in (0.25, 0.6):
            mu = frac * p ** -alpha
            for region in ("S0", "S1"):
                cmds.append(["certify", _ws(p=p, alpha=alpha, mu=mu,
                                            region=region)])
    # threshold curves
    for p in (3, 5, 7):
        cmds.append(["sweep", "--steps", "23", "--p", str(p)])
    cmds.append(["sweep", "--alpha-max", "1", "--steps", "3", "--terms",
                 "300"])
    # polydisc self-verification
    for d in range(1, 9):
        cmds.append(["appendix-verify", "--d", str(d)])
    cmds.append(["appendix-verify", "--d", "3", "--trials", "30", "--seed",
                 "5"])
    # finite sections
    for size in (1, 17, 256, 4096):
        cmds.append(["section", _ws(lam=0.3, p=3, alpha=0.5), "--size",
                     str(size)])
        cmds.append(["section", _gp(q=0.6, alpha=0.5), "--size", str(size)])
    for q in (1e-300, 1e-9, 0.3):
        cmds.append(["section", _gp(q=q, alpha=1, p=5), "--size", "256"])
    cmds.append(["section", '{"family":"identity"}', "--size", "64"])
    # usage errors: exit 2
    cmds += [
        ["certify", "{not json"],
        ["certify", "[1, 2]"],
        ["certify", '{"family":"gp","p":3,"alpha":0.5}'],
        ["certify", '{"family":"heat"}'],
        ["certify", _gp(p=3, alpha=True, sup_q=0.5)],
        ["certify", _gp(p=2, alpha=1, sup_q=0.285)],
        ["certify", _gp(p=3, alpha=0.5, sup_q=1.0)],
        ["certify", _gp(p=3, alpha=0.5, sup_q=0.5, degree=0)],
        ["certify", _ws(p=2, alpha=0, mu=0.6, region="S2")],
        ["certify", _ws(p=2, alpha=1, mu=0.5, region="S0")],
        ["certify", _gp(p=3, alpha=0.5, sup_q=0.5), "--terms", "0"],
        ["sweep", "--alpha-min", "1", "--alpha-max", "0"],
        ["sweep", "--p", "2", "--steps", "3"],
        ["sweep", "--steps", "0"],
        ["appendix-verify", "--d", "9"],
        ["appendix-verify", "--trials", "0"],
        ["appendix-verify", "--seed", "-1"],
        ["section", _gp(q=0.5), "--size", "0"],
        ["section", _gp(q=0.5), "--size", "65537"],
        ["section", '{"family":"gp"}'],
        ["section", _ws(lam=0.3, p=1)],
        ["section", '{"family":"heat"}'],
    ]
    # numerical failures: exit 3
    cmds += [
        ["certify", _gp(p=3, alpha=200, sup_q=0.5)],
        ["certify", _gp(p=3, alpha=1e308, sup_q=0.5)],
        ["section", _gp(q=0.5, alpha=200)],
        ["sweep", "--alpha-min", "0", "--alpha-max", "0", "--steps", "1",
         "--terms", "1"],
        ["sweep", "--alpha-min", "0", "--alpha-max", "1e308", "--steps",
         "2", "--terms", "300"],
        ["sweep", "--alpha-min", "60", "--alpha-max", "150", "--steps",
         "2"],
    ]
    return cmds


def run(argv: list) -> dict:
    """One in-process CLI run, as a corpus record."""
    from rieszcert import cli

    out, err = io.StringIO(), io.StringIO()
    logger = logging.getLogger("rieszcert")
    handler = logging.StreamHandler(err)
    handler.setLevel(logging.WARNING)
    saved = logger.handlers, logger.propagate
    logger.handlers, logger.propagate = [handler], False
    config = os.environ.pop("RIESZCERT_CONFIG", None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        for w in caught:
            err.write(f"{w.category.__name__}: {w.message}\n")
    finally:
        logger.handlers, logger.propagate = saved
        if config is not None:
            os.environ["RIESZCERT_CONFIG"] = config
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def load(path: Path = CORPUS) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def dump(records: list, path: Path = CORPUS) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def _relative(old, new) -> float:
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return math.inf
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)) or a == 0.0:
        return math.inf
    return abs(b - a) / abs(a)


def _json_fields(text: str):
    """A JSON object's fields, one level of nesting flattened to
    ``outer.inner``; None when ``text`` is not a JSON object."""
    try:
        obj = json.loads(text)
    except ValueError:
        return None
    if not isinstance(obj, dict):
        return None
    fields = {}
    for key, value in obj.items():
        if isinstance(value, dict):
            for sub, v in value.items():
                fields[f"{key}.{sub}"] = v
        else:
            fields[key] = value
    return fields


def _moves(old: str, new: str) -> list:
    """(where, field, old, new) for each field that differs between two
    outputs: the keys of a JSON certificate, else per line the CSV
    columns (named by the header line) or the value of a
    ``name   value`` section line, else the whole line."""
    a, b = _json_fields(old), _json_fields(new)
    if a is not None and b is not None:
        return [("", k, a.get(k), b.get(k)) for k in dict.fromkeys([*a, *b])
                if a.get(k) != b.get(k)]
    xs, ys = old.splitlines(), new.splitlines()
    header = xs[0].split(",") if xs and "," in xs[0] else None
    moves = []
    for i in range(max(len(xs), len(ys))):
        x = xs[i] if i < len(xs) else ""
        y = ys[i] if i < len(ys) else ""
        where = f"line {i + 1} "
        if x == y:
            continue
        if header and x.count(",") == y.count(",") == len(header) - 1:
            moves += [(where, name, u, v) for name, u, v
                      in zip(header, x.split(","), y.split(",")) if u != v]
            continue
        u, v = x.rsplit(None, 1), y.rsplit(None, 1)
        if len(u) == len(v) == 2 and u[0] == v[0]:
            moves.append((where, u[0], u[1], v[1]))
        else:
            moves.append((where, "line", x, y))
    return moves


def diff(old: list, new: list) -> int:
    """Print the moves from ``old`` to ``new``; return the number of
    commands that moved."""
    counts, worst = Counter(), {}
    moved = 0
    old_by_argv = {json.dumps(r["argv"]): r for r in old}
    for rec in new:
        prev = old_by_argv.pop(json.dumps(rec["argv"]), None)
        if prev == rec:
            continue
        moved += 1
        print(f"== {' '.join(rec['argv'])}")
        if prev is None:
            print("   new command")
            continue
        if prev["exit"] != rec["exit"]:
            print(f"   exit {prev['exit']} -> {rec['exit']}")
        for stream in ("stdout", "stderr"):
            for where, field, u, v in _moves(prev[stream], rec[stream]):
                rel = _relative(u, v)
                print(f"   {stream} {where}{field}: {u} -> {v} "
                      f"(rel {rel:.3g})")
                counts[field] += 1
                if field not in worst or rel > worst[field][0]:
                    worst[field] = (rel, rec["argv"])
    for key in old_by_argv:
        moved += 1
        print(f"== {' '.join(json.loads(key))}\n   command removed")
    if worst:
        print("\nlargest relative change per field:")
        for field, (rel, argv) in sorted(worst.items()):
            print(f"  {field}: {counts[field]} moved, largest {rel:.3g} at "
                  f"{' '.join(argv)}")
    print(f"\n{moved} of {len(new)} commands moved")
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--diff", action="store_true",
                        help="compare with the corpus instead of writing it")
    args = parser.parse_args(argv)
    env = pinned_env()
    if any(os.environ.get(k) != env[k]
           for k in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")):
        return subprocess.run(
            [sys.executable, __file__,
             *(sys.argv[1:] if argv is None else argv)],
            env=env).returncode
    records = [run(cmd) for cmd in commands()]
    if args.diff:
        return 1 if diff(load(), records) else 0
    dump(records)
    print(f"wrote {len(records)} commands to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
