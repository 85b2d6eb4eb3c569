"""Machine-readable verdicts emitted by the certifier operations."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

TOOL_VERSION = "0.1.0"
JSON_INDENT = 2

ENVELOPE_RIGOROUS = "envelope-rigorous"
SAMPLE_HEURISTIC = "sample-heuristic"
BOUNDARY_INDETERMINATE = "boundary-indeterminate"


@dataclass
class Certificate:
    """Verdict plus the numbers needed to reproduce it.

    ``kind`` is one of S0, S1, T1, polydisc.
    ``verdict`` is a boolean, or the string "boundary-indeterminate" when
    a margin sits inside the decision tolerance. ``mode`` distinguishes
    envelope-rigorous certificates (valid for the whole family) from
    sample-heuristic ones (valid only for the sampled indices).
    """

    kind: str
    verdict: object
    parameters: dict = field(default_factory=dict)
    margins: dict = field(default_factory=dict)
    mode: str = ENVELOPE_RIGOROUS

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "parameters": dict(self.parameters),
            "margins": dict(self.margins),
            "mode": self.mode,
            "tool_version": TOOL_VERSION,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=JSON_INDENT)
