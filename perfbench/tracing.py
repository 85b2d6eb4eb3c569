"""Span tracing installed from outside the rieszcert package.

``Tracer.install`` wraps the public functions listed in ``TRACED`` and
rebinds every module-level name in the package that refers to one of
them, so calls made through ``from .polyform import min_modulus_disc``
style imports are traced too. Each traced call records a span
(name, start, end, parent span, request) in memory; the counts that
spans alone do not give (failures, warnings, rule evaluations, ...)
are recorded at the same boundaries. Nothing is written until the run
ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import warnings
from collections import Counter

# (module, function); every one is spanned unless it is in _COUNT_ONLY
TRACED = [
    ("polyform", "roots"),
    ("polyform", "min_modulus_disc"),
    ("polydisc", "in_polydisc_roots"),
    ("polydisc", "in_polydisc_schur_cohn"),
    ("polydisc", "membership_certificate"),
    ("spread_toeplitz", "symbol_inf"),
    ("spread_toeplitz", "finite_section"),
    ("spread_toeplitz", "smallest_singular"),
    ("dilation", "trajectory_coeffs"),
    ("weierstrass", "cj_rule"),
    ("weierstrass", "certify_S1"),
    ("gross_pitaevskii", "s_alpha"),
    ("gross_pitaevskii", "solve_r0"),
    ("gross_pitaevskii", "solve_r1"),
    ("gross_pitaevskii", "solve_r1_tilde"),
    ("gross_pitaevskii", "min_quadratic"),
    ("gross_pitaevskii", "certify_T1"),
    ("gross_pitaevskii", "certify_Td"),
]

# rule factories: their calls are trivial, the rules they return are not
_COUNT_ONLY = {"weierstrass.cj_rule"}

REQUEST = "request"


class Tracer:
    def __init__(self):
        self.spans = []            # (name, start, end, parent, request)
        self.counts = Counter()
        self.request = -1
        self._stack = []
        self._saved = []           # (module, attribute, original)
        self._roots_depth = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        package = [m for n, m in sys.modules.items()
                   if n == "rieszcert" or n.startswith("rieszcert.")]
        for module_name, func in TRACED:
            name = f"{module_name}.{func}"
            original = getattr(sys.modules[f"rieszcert.{module_name}"], func)
            wrapped = self._hook(name, original)
            if name not in _COUNT_ONLY:
                wrapped = self._span(name, wrapped)
            functools.update_wrapper(wrapped, original)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- recording --------------------------------------------------------

    def begin_request(self, index: int) -> None:
        self.request = index
        self._stack.append(len(self.spans))
        self.spans.append((REQUEST, time.perf_counter(), None, -1, index))

    def end_request(self) -> None:
        idx = self._stack.pop()
        name, start, _, parent, req = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, req)

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        def traced(*args, **kwargs):
            counts[calls] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)

        return traced

    def _hook(self, name, fn):
        """The call itself plus the counts specific to ``name``."""
        counts = self.counts

        if name == "polyform.roots":
            def roots(*args, **kwargs):
                # roots recurses through its module name; count once
                self._roots_depth += 1
                outer = self._roots_depth == 1
                try:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        try:
                            return fn(*args, **kwargs)
                        except Exception:
                            if outer:
                                counts["polyform.roots.failed"] += 1
                            raise
                finally:
                    self._roots_depth -= 1
                    if outer:
                        counts["polyform.roots.warnings"] += len(caught)
                    for w in caught:   # hand them on to the caller's filters
                        warnings.warn_explicit(w.message, w.category,
                                               w.filename, w.lineno)
            return roots

        if name == "spread_toeplitz.finite_section":
            def finite_section(cj, N):
                counts["spread_toeplitz.section.computed_bytes"] += 16 * N * N

                def rule(j, n):
                    counts["spread_toeplitz.finite_section.rule_calls"] += 1
                    return cj(j, n)

                return fn(rule, N)
            return finite_section

        if name == "weierstrass.cj_rule":
            def cj_rule(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def rule(j, n):
                    counts["weierstrass.cj_rule.calls"] += 1
                    return inner(j, n)

                return rule
            return cj_rule

        if name == "polydisc.membership_certificate":
            def membership_certificate(*args, **kwargs):
                cert = fn(*args, **kwargs)
                if cert.verdict == "boundary-indeterminate":
                    counts["polydisc.membership_certificate.indeterminate"] += 1
                return cert
            return membership_certificate

        if name == "weierstrass.certify_S1":
            def certify_S1(*args, **kwargs):
                cert = fn(*args, **kwargs)
                counts["weierstrass.certify_S1.degree_sum"] += int(
                    cert.margins["minimal_degree"])
                return cert
            return certify_S1

        if name == "gross_pitaevskii.min_quadratic":
            not_in_g2 = sys.modules["rieszcert.errors"].NotInG2

            def min_quadratic(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except not_in_g2:
                    counts["gross_pitaevskii.min_quadratic.not_in_g2"] += 1
                    raise
            return min_quadratic

        return fn

    # -- results ----------------------------------------------------------

    def self_times(self) -> Counter:
        """Self time per span name: duration minus the time covered by
        the span's direct children (calls are nested, one thread)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def layer_metrics(self, requests: int) -> dict:
        """Per-request values of every library metric in layers.PER_LAYER."""
        selfs = self.self_times()
        n = max(1, requests)
        out = {}
        for module_name, func in TRACED:
            name = f"{module_name}.{func}"
            out[name + ".calls"] = self.counts[name + ".calls"] / n
            out[name + ".self_s"] = selfs[name] / n
        for key in ("polyform.roots.failed", "polyform.roots.warnings",
                    "spread_toeplitz.section.computed_bytes",
                    "spread_toeplitz.finite_section.rule_calls",
                    "weierstrass.cj_rule.calls",
                    "weierstrass.certify_S1.degree_sum",
                    "gross_pitaevskii.min_quadratic.not_in_g2"):
            out[key] = self.counts[key] / n
        calls = self.counts["polydisc.membership_certificate.calls"]
        out["polydisc.membership_certificate.indeterminate_ratio"] = (
            self.counts["polydisc.membership_certificate.indeterminate"]
            / calls if calls else 0.0)
        return out

    def write_spans(self, path) -> None:
        """Gzipped CSV, one span per line; times in microseconds from
        the first span, parent and request as row and request indices."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_us,end_us,parent,request\n")
            for name, start, end, parent, req in self.spans:
                fh.write(f"{name},{(start - t0) * 1e6:.1f},"
                         f"{(end - t0) * 1e6:.1f},{parent},{req}\n")
