"""Runtime settings with config-file overrides, and their defaults.

The config file is a plain key-value format: one ``key = value`` pair
per line, ``#`` starts a comment. Recognised keys (all optional, each
at most once):

    terms               series truncation, 1..1000000 (DEFAULT_TERMS)
    bisection_tol       solver tolerance in q, finite, > 0 (BISECTION_TOL)

The environment variable RIESZCERT_CONFIG names a default config path;
an explicit --config flag wins over it, and command-line flags win over
config values.

The module imports no numpy, so that the CLI reads its settings before
it loads the array code of a command.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, fields

# the threshold solvers' series truncation and tolerance in q
DEFAULT_TERMS = 500
BISECTION_TOL = 1e-9
# s_alpha holds about 40 bytes per term, 24 of them in the cached q-free
# factors it keeps after returning: 1e6 terms take ~40 ms and ~40 MB
MAX_TERMS = 10 ** 6

ENV_CONFIG = "RIESZCERT_CONFIG"


@dataclass
class Settings:
    terms: int = DEFAULT_TERMS
    bisection_tol: float = BISECTION_TOL

    def __post_init__(self):
        if not 1 <= self.terms <= MAX_TERMS:
            raise ValueError(f"terms must lie in 1..{MAX_TERMS}")
        if not 0.0 < self.bisection_tol < math.inf:
            raise ValueError("bisection_tol must be finite and > 0")


def _lines(text: str) -> io.StringIO:
    """The lines of ``text`` as a file opened in text mode splits them."""
    return io.StringIO(text, newline=None)


def load_settings(path: str | None = None) -> Settings:
    """Settings from a config file; ``path`` falls back to the
    RIESZCERT_CONFIG environment variable, then to defaults. A file
    that is not UTF-8, a malformed line or value, an unknown or
    repeated key and a value out of range raise ValueError, which
    names the path, and the line where there is one."""
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if not path:
        return Settings()
    types = {f.name: f.type for f in fields(Settings)}
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = _lines(data[:exc.start].decode("utf-8"))
        lineno = 1 + sum(line.endswith("\n") for line in head)
        raise ValueError(f"{path}:{lineno}: not UTF-8 text "
                         f"({exc.reason})") from None
    values, seen = {}, {}
    for lineno, raw in enumerate(_lines(text), start=1):
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
        if key in seen:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeats "
                             f"line {seen[key]}")
        seen[key] = lineno
        integral = types[key] in (int, "int")
        try:
            values[key] = int(value) if integral else float(value)
        except ValueError:
            kind = "an integer" if integral else "a number"
            raise ValueError(f"{path}:{lineno}: {key} must be {kind}, "
                             f"got {value!r}") from None
    try:
        return Settings(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
