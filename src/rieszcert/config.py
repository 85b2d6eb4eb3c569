"""Runtime settings with config-file overrides.

The config file is a plain key-value format: one ``key = value`` pair
per line, ``#`` starts a comment. Recognised keys (all optional):

    terms               series truncation (default 500)
    bisection_tol       threshold solver tolerance in q (1e-9)

The environment variable RIESZCERT_CONFIG names a default config path;
an explicit --config flag wins over it, and command-line flags win over
config values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

ENV_CONFIG = "RIESZCERT_CONFIG"


@dataclass
class Settings:
    terms: int = 500
    bisection_tol: float = 1e-9


def load_settings(path: str | None = None) -> Settings:
    """Settings from a config file; ``path`` falls back to the
    RIESZCERT_CONFIG environment variable, then to defaults. Unknown
    keys and malformed lines raise ValueError."""
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    settings = Settings()
    if not path:
        return settings
    types = {f.name: f.type for f in fields(Settings)}
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
            if not hasattr(settings, key):
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            kind = types[key]
            setattr(settings, key,
                    int(value) if kind in (int, "int") else float(value))
    return settings
