"""Runtime settings with config-file overrides.

The config file is a plain key-value format: one ``key = value`` pair
per line, ``#`` starts a comment. Recognised keys (all optional):

    terms               series truncation, 1..1000000 (default 500)
    bisection_tol       threshold solver tolerance in q, finite, > 0 (1e-9)

The environment variable RIESZCERT_CONFIG names a default config path;
an explicit --config flag wins over it, and command-line flags win over
config values.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .gross_pitaevskii import MAX_TERMS

ENV_CONFIG = "RIESZCERT_CONFIG"


@dataclass
class Settings:
    terms: int = 500
    bisection_tol: float = 1e-9

    def __post_init__(self):
        if not 1 <= self.terms <= MAX_TERMS:
            raise ValueError(f"terms must lie in 1..{MAX_TERMS}")
        if not 0.0 < self.bisection_tol < math.inf:
            raise ValueError("bisection_tol must be finite and > 0")


def load_settings(path: str | None = None) -> Settings:
    """Settings from a config file; ``path`` falls back to the
    RIESZCERT_CONFIG environment variable, then to defaults. Unknown
    keys, malformed lines and values out of range raise ValueError."""
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if not path:
        return Settings()
    types = {f.name: f.type for f in fields(Settings)}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            kind = types[key]
            values[key] = int(value) if kind in (int, "int") else float(value)
    try:
        return Settings(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
