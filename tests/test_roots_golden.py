"""The root kernel against its golden file, bit for bit: every root and
residual of :func:`rieszcert.polyform.roots` and every verdict of
:func:`rieszcert.polydisc.in_polydisc_roots` on the 2112 stored
polynomials of ``tests/data/roots_golden.jsonl``, which
``tests/make_roots_golden.py`` writes."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import make_roots_golden as golden  # noqa: E402


def test_golden_file_covers_every_degree_and_kind():
    lines = golden.load()
    assert len(lines) == 8 * golden.PER_DEGREE
    assert {(len(line["coeffs"]) - 1, line["kind"]) for line in lines} == {
        (d, kind) for d in range(1, 9) for kind in golden.KINDS}


def test_roots_and_membership_match_the_golden_file_bit_for_bit():
    moved = []
    for line in golden.load():
        got = golden.record(line["kind"], golden.coeffs_of(line))
        if got != line:
            moved.append(line["coeffs"])
    assert not moved, f"{len(moved)} moved, the first: {moved[0]}"
