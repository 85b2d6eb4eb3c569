"""Record sigma_min of every section the sections workload can draw.

    python3 perfbench/make_reference.py

Writes reference.json next to this file. The workload checks each
sigma_min it computes against these values to 1e-6 relative, so rerun
this only when the catalogue in workloads.py changes, never to make a
changed program pass.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from rieszcert import spread_toeplitz as st  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    sigma = {}
    for family, entry, N in workloads.catalogue_keys():
        rule = workloads.section_rule(family, entry)
        value = st.smallest_singular(st.finite_section(rule, N))
        sigma[workloads.reference_key(family, entry, N)] = value
        print(f"{workloads.reference_key(family, entry, N):24s} {value!r}",
              flush=True)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"sigma_min": sigma}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
