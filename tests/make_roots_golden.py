"""Regenerate the golden file of the root kernel,
``tests/data/roots_golden.jsonl``.

Each line holds one seeded polynomial c_0 + c_1 z + ... + c_d z^d of
degree 1 to 8, every float written with ``float.hex``:

- ``coeffs``: the c_k as [re, im] pairs;
- ``roots`` and ``residual``: :func:`rieszcert.polyform.roots` of them;
- ``membership``: ``inside``, ``margin`` and ``indeterminate`` of
  :func:`rieszcert.polydisc.in_polydisc_roots` on (c_1, ..., c_d), the
  oracle of 1 + c_1 z + ... + c_d z^d.

The draws cycle through four kinds:

- ``appendix``: c_0 = 1, the others as ``appendix-verify`` draws them;
- ``boundary``: c_0 = 1, one root at modulus 1 +- eps;
- ``graded``: modulus 10^(s + u_k) at a uniform phase, s uniform in
  [-150, 150] per polynomial and u_k in [-10, 10] per coefficient, so
  the Newton polygon has several edges;
- ``wide``: modulus 10^u_k, u_k uniform in [-150, 150], at a uniform
  phase. Roots spread this far overflow Horner's sums, so many end in
  NaN, and the membership oracle deflates the far ones.

The inputs are stored, not re-drawn, because numpy's SIMD dispatch
changes the draws; the kernel's output on the stored inputs does not
depend on it. ``tests/test_roots_golden.py`` compares every output bit
for bit.

    PYTHONPATH=src python tests/make_roots_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from rieszcert import cli
from rieszcert import polydisc as pd
from rieszcert import polyform as pf

GOLDEN = Path(__file__).parent / "data" / "roots_golden.jsonl"
SEED = 4242
PER_DEGREE = 264
KINDS = ("appendix", "boundary", "graded", "wide")


def _boundary(rng: np.random.Generator, d: int) -> list:
    """(c_1, ..., c_d) of 1 + sum c_k z^k with one root at modulus
    1 +- eps, eps log-uniform in [1e-9, 1e-2], and the others anywhere
    in the annulus 0.3 <= |z| <= 3."""
    eps = 10.0 ** rng.uniform(-9.0, -2.0)
    mods = [1.0 + (eps if rng.random() < 0.5 else -eps)]
    mods += list(rng.uniform(0.3, 3.0, d - 1))
    asc = np.poly(np.asarray(mods) * np.exp(1j * rng.uniform(0, 2 * np.pi, d)))
    asc = asc[::-1] / asc[-1]
    return [complex(x) for x in asc[1:]]


def draw(rng: np.random.Generator, kind: str, d: int) -> list:
    """Ascending coefficients c_0, ..., c_d of one draw."""
    if kind == "appendix":
        return [1.0 + 0j] + [complex(x) for x in cli._random_coeffs(rng, d)]
    if kind == "boundary":
        return [1.0 + 0j] + _boundary(rng, d)
    if kind == "graded":
        u = rng.uniform(-150.0, 150.0) + rng.uniform(-10.0, 10.0, d + 1)
    else:
        u = rng.uniform(-150.0, 150.0, d + 1)
    mods = 10.0 ** u
    return [complex(x) for x in
            mods * np.exp(1j * rng.uniform(0, 2 * np.pi, d + 1))]


def _pair(z: complex) -> list:
    return [float.hex(z.real), float.hex(z.imag)]


def record(kind: str, coeffs: list) -> dict:
    """The line of one draw: its inputs and the kernel's outputs."""
    rs = pf.roots(coeffs)
    v = pd.in_polydisc_roots(coeffs[1:])
    return {"kind": kind,
            "coeffs": [_pair(c) for c in coeffs],
            "roots": [_pair(z) for z in rs.roots],
            "residual": float.hex(rs.residual),
            "membership": [v.inside, float.hex(v.margin), v.indeterminate]}


def records() -> list:
    rng = np.random.default_rng(SEED)
    out = []
    for d in range(1, 9):
        for i in range(PER_DEGREE):
            kind = KINDS[i % len(KINDS)]
            out.append(record(kind, draw(rng, kind, d)))
    return out


def load(path: Path = GOLDEN) -> list:
    with path.open() as f:
        return [json.loads(line) for line in f]


def coeffs_of(line: dict) -> list:
    return [complex(float.fromhex(re), float.fromhex(im))
            for re, im in line["coeffs"]]


def main() -> None:
    with GOLDEN.open("w") as f:
        for line in records():
            f.write(json.dumps(line, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
