"""Seeded request decks, requests and output checks of the workloads.

A workload hands out its requests in decks. Every deck has the same
composition, drawn afresh from the workload's seeded generator, so a
run of whole decks has the same mix whatever its length. The number of
decks in a run follows from ``--seconds`` and the workload's nominal
deck time ``deck_s``, never from the clock. The library
receives only the generated inputs. Checks run after the timed loop;
they pin verdicts and mathematical values, never algorithm-specific
margins.

``call`` returns a small summary of the result. ``check`` returns None
when the result is right, ("failed", reason) when the program did not
deliver what the check demands but its numbers are right to their
stated accuracy, and ("incorrect", reason) for a wrong answer.
"""

from __future__ import annotations

import json
import math
import pathlib

import numpy as np

from rieszcert import dilation as dl
from rieszcert import gross_pitaevskii as gp
from rieszcert import polydisc
from rieszcert import spread_toeplitz as st
from rieszcert import weierstrass as ws

BISECTION_TOL = 1e-9          # the threshold solvers' default tolerance
R0_AT_ZERO = 0.76806          # paper value of r0(0), to 1e-3
DECISIVE = 1e-6               # |min root| - 1 beyond which a verdict is pinned
SECTION_RTOL = 1e-6           # sigma_min against the recorded reference
SAME_RULE_RTOL = 1e-9         # sigma_min of two spellings of one rule

REFERENCE = pathlib.Path(__file__).with_name("reference.json")


def _fmt(x: float) -> str:
    """The CLI's CSV number format (9 significant digits)."""
    return f"{x:.9g}"


def _stratified(rng, count: int, lo: float, hi: float) -> list:
    """One uniform draw in each of ``count`` equal slices of [lo, hi],
    in random order, so every deck covers the whole range."""
    u = rng.uniform(0.01, 0.99, count)
    vals = [lo + (hi - lo) * (i + float(u[i])) / count for i in range(count)]
    return [vals[i] for i in rng.permutation(count)]


class Workload:
    """The parts of a workload that the worker and run.py use; ``deck``,
    ``call``, ``check`` and ``cli_plan`` are each workload's own."""

    name: str
    tail: int            # the percentile reported as req_tail_s
    min_samples: int     # requests a run needs for ten beyond the tail
    deck_s: float        # nominal loop seconds of one deck on the
                         # machine of the first baseline
    # calibration kernels (worker.KERNELS) that gauge the machine's speed
    # for this workload's requests: interpreter-bound requests slow down
    # and speed up with the machine far more than dense BLAS calls do
    kernels = ("interpreter",)

    def kind(self, req: dict) -> str:
        """Label under which the request's latency is summarised."""
        raise NotImplementedError

    def check_run(self, records: list) -> list:
        """Checks across requests: (record index, verdict) pairs."""
        return []

    def library_rows(self, records: list) -> dict:
        """Library results the CLI leg is checked against."""
        return {}


# ---------------------------------------------------------------------------
# thresholds

class Thresholds(Workload):
    """One request is one threshold row (alpha, p) -> r0, r1, r1_tilde,
    computed as ``rieszcert sweep`` computes it.

    Deck k is an evenly spaced grid of ``steps`` alphas in [0, 2) at
    spacing 2 / steps, shifted by a fraction of the spacing: 0 for the
    first deck, which the CLI leg sweeps and which holds alpha = 0, and
    (u + k * golden ratio) mod 1 after it, with u seeded. A run thus
    samples alpha finely and evenly, however many decks it has; a row's
    cost jumps with alpha (the bisections' iteration counts do), and
    one fixed grid would make the latency percentiles hinge on it."""

    name = "thresholds"
    tail = 95
    min_samples = 200
    deck_s = 1.45
    ps = (3, 5, 7)
    GOLDEN = (5 ** 0.5 - 1) / 2

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = np.random.default_rng([seed, 0])
        self.steps = 2 if tiny else 11
        self.spacing = 2.0 / self.steps
        self.shift = float(self.rng.random())
        self.dealt = 0
        self.alpha_max, self.grid = self._grid(0.0)
        if tiny:
            self.ps = (3,)
            self.min_samples = 1

    def _grid(self, alpha_min: float) -> tuple:
        """(alpha_max, grid) from alpha_min, spelled as the CLI spells it."""
        alpha_max = alpha_min + self.spacing * (self.steps - 1)
        span = alpha_max - alpha_min
        return alpha_max, [alpha_min + span * i / (self.steps - 1)
                           for i in range(self.steps)]

    def deck(self) -> list:
        frac = (self.shift + self.dealt * self.GOLDEN) % 1.0 if self.dealt else 0.0
        self.dealt += 1
        grid = self._grid(frac * self.spacing)[1]
        rows = [{"alpha": a, "p": p} for a in grid for p in self.ps]
        return [rows[i] for i in self.rng.permutation(len(rows))]

    def kind(self, req: dict) -> str:
        return f"row p={req['p']}"

    def call(self, req: dict) -> dict:
        a, p = req["alpha"], req["p"]
        r0 = gp.solve_r0(a, gp.DEFAULT_TERMS, BISECTION_TOL)
        r1 = gp.solve_r1(a, p, gp.DEFAULT_TERMS, BISECTION_TOL)
        r1t = gp.solve_r1_tilde(a, p, gp.DEFAULT_TERMS, BISECTION_TOL)
        return {"r0": r0, "r1": r1, "r1_tilde": r1t}

    def check(self, req: dict, out: dict):
        r0, r1, r1t = out["r0"], out["r1"], out["r1_tilde"]
        if req["alpha"] == 0.0 and abs(r0 - R0_AT_ZERO) > 1e-3:
            return "incorrect", f"r0(0) = {r0}"
        if r1 - r0 <= -BISECTION_TOL or r1t - r1 <= -BISECTION_TOL:
            return "incorrect", f"order broken beyond tolerance: {r0}, {r1}, {r1t}"
        if not r0 < r1 < r1t:
            # the paper's strict order, not resolved at the solver tolerance
            return "failed", "order r0 < r1 < r1_tilde not resolved"
        return None

    def cli_plan(self) -> list:
        """One ``rieszcert sweep`` per p over the first deck's grid; its
        CSV must match the library rows to 9 significant digits."""
        return [{"argv": ["sweep", "--alpha-min", "0",
                          "--alpha-max", repr(self.alpha_max),
                          "--steps", str(self.steps), "--p", str(p)],
                 "expect": {"kind": "csv", "p": p}} for p in self.ps]

    def library_rows(self, records: list) -> dict:
        """The library's rows per p in grid order, formatted as the CSV."""
        rows = {}
        for rec in records:
            req, r = rec["req"], rec["out"]
            if r is not None:
                rows[(req["alpha"], req["p"])] = ",".join(
                    _fmt(x) for x in (req["alpha"], r["r0"], r["r1"],
                                      r["r1_tilde"]))
        return {str(p): [rows.get((a, p)) for a in self.grid] for p in self.ps}


# ---------------------------------------------------------------------------
# certify-mix

def _appendix_coeffs(rng, d: int) -> list:
    """The coefficient distribution of ``rieszcert appendix-verify``:
    uniform real and imaginary parts in [-2, 2], clipped to modulus 2."""
    c = rng.uniform(-2.0, 2.0, d) + 1j * rng.uniform(-2.0, 2.0, d)
    mag = np.abs(c)
    return [complex(x) for x in np.where(mag > 2.0, c * (2.0 / mag), c)]


def _boundary_coeffs(rng, d: int) -> list:
    """Coefficients of 1 + a_1 z + ... + a_d z^d with one root at modulus
    1 +- eps (eps log-uniform in [1e-9, 1e-2]) and the others anywhere
    in the annulus 0.3 <= |z| <= 3: inputs near the boundary of G_d."""
    eps = 10.0 ** rng.uniform(-9.0, -2.0)
    mods = [1.0 + (eps if rng.random() < 0.5 else -eps)]
    mods += list(rng.uniform(0.3, 3.0, d - 1))
    roots = np.asarray(mods) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
    asc = np.poly(roots)[::-1]
    asc = asc / asc[0]
    return [complex(x) for x in asc[1:]]


def independent_margin(coeffs: list) -> float:
    """min |root| - 1 of 1 + sum a_k z^k by numpy's companion matrix."""
    desc = np.asarray([1.0] + list(coeffs), dtype=complex)[::-1]
    return float(np.abs(np.roots(desc)).min()) - 1.0


class CertifyMix(Workload):
    """One request is one certificate through the library."""

    name = "certify-mix"
    tail = 98
    min_samples = 500
    deck_s = 6.5
    cheap_parts = 6
    # The S1 band nu = mu p^alpha within 0.02 of 1, as (p, alpha, nu):
    # degree 227 at nu = 0.98 up to 423 at 0.988, every entry twice per
    # deck, so that the band, not the seeded Td draws, makes the p98
    # tail; and once per deck the hard case nu = 0.99 (degree 527,
    # seconds and overflow warnings). The band is pinned, not drawn:
    # from nu ~ 0.975 up, the root finder's iteration count changes with
    # the last bits of nu, and about 2 % of draws take 1-3 s with
    # overflow warnings instead of 0.1 s, so seeded draws would make each
    # run's time a lottery on them. Further out the degree grows as
    # log((1 - nu)/2) / log(nu) and the root finder's d x d work array
    # with it: one request would outlast a run.
    BAND = ((2, 0.0, 0.980), (3, 0.5, 0.981), (2, 1.0, 0.982),
            (3, 0.25, 0.983), (5, 0.5, 0.984), (2, 0.75, 0.985),
            (3, 1.0, 0.986), (2, 0.0, 0.988))
    BAND_TOP = (2, 0.0, 0.99)
    BAND_FROM = 0.98

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = np.random.default_rng([seed, 1])
        self.cli_rng = np.random.default_rng([seed, 1, 1])
        self.tiny = tiny
        if tiny:
            self.min_samples = 1

    def deck(self) -> list:
        rng = self.rng
        if self.tiny:
            return [
                {"op": "T1", "sup_q": 0.5, "alpha": 0.0, "p": 3},
                {"op": "Td", "sup_q": 0.5, "alpha": 0.0, "p": 3, "degree": 3},
                {"op": "ws", "region": "S0", "p": 2, "alpha": 0.0, "mu": 0.3},
                {"op": "ws", "region": "S1", "p": 2, "alpha": 0.0, "mu": 0.9},
                {"op": "membership", "coeffs": _appendix_coeffs(rng, 3)},
            ]
        reqs = [self._ws("S1", nu, p, alpha)
                for p, alpha, nu in 2 * self.BAND + (self.BAND_TOP,)]
        # the cheap part six times, so that the run has many samples of
        # each kind of request even though the band's nu = 0.99 case
        # takes most of its time
        for _ in range(self.cheap_parts):
            reqs += self._cheap_part(rng)
        return [reqs[i] for i in rng.permutation(len(reqs))]

    def _cheap_part(self, rng) -> list:
        reqs = []
        # T1 over sup_q, with alpha and p from the threshold grid
        qs, alphas = _stratified(rng, 8, 0.02, 0.98), _stratified(rng, 8, 0, 2)
        for i in range(8):
            reqs.append({"op": "T1", "sup_q": qs[i], "alpha": alphas[i],
                         "p": (3, 5, 7)[i % 3]})
        # Td at degree 3..7
        qs, alphas = _stratified(rng, 10, 0.02, 0.98), _stratified(rng, 10, 0, 2)
        for i in range(10):
            reqs.append({"op": "Td", "sup_q": qs[i], "alpha": alphas[i],
                         "p": (3, 5, 7)[i % 3], "degree": 3 + i % 5})
        # S0 and S1 with mu over the whole allowed range (0, p^-alpha)
        nus = _stratified(rng, 8, 0.0, 0.98)
        for i in range(8):
            reqs.append(self._ws("S0" if i % 2 == 0 else "S1", nus[i],
                                 int(rng.choice((2, 3, 5))),
                                 float(rng.uniform(0.0, 2.0))))
        # membership on the appendix-verify distribution, d = 2..8
        for i in range(21):
            reqs.append({"op": "membership",
                         "coeffs": _appendix_coeffs(rng, 2 + i % 7)})
        for _ in range(3):
            reqs.append({"op": "membership",
                         "coeffs": _boundary_coeffs(rng, int(rng.integers(2, 9)))})
        return reqs

    @staticmethod
    def _ws(region: str, nu: float, p: int, alpha: float) -> dict:
        return {"op": "ws", "region": region, "p": p, "alpha": alpha,
                "mu": nu / p ** alpha}

    def kind(self, req: dict) -> str:
        if req["op"] == "Td":
            return f"Td degree {req['degree']}"
        if req["op"] == "ws":
            nu = req["mu"] * req["p"] ** req["alpha"]
            return req["region"] + (" nu>=0.98" if nu >= self.BAND_FROM - 1e-12 else "")
        return req["op"]

    def call(self, req: dict) -> dict:
        op = req["op"]
        if op == "T1":
            cert = gp.certify_T1(req["sup_q"], req["alpha"], req["p"])
        elif op == "Td":
            cert = gp.certify_Td(req["sup_q"], req["alpha"], req["p"],
                                 req["degree"])
        elif op == "ws":
            cert = ws.certify(ws.WeierstrassSpec(
                p=req["p"], alpha=req["alpha"], mu=req["mu"],
                region=req["region"]))
        else:
            cert = polydisc.membership_certificate(req["coeffs"])
        # some verdicts come back as numpy booleans
        verdict = cert.verdict
        return {"verdict": verdict if isinstance(verdict, str) else bool(verdict)}

    def check(self, req: dict, out: dict):
        op, verdict = req["op"], out["verdict"]
        if op == "T1":
            r1 = gp.solve_r1(req["alpha"], req["p"])
            if abs(req["sup_q"] - r1) > DECISIVE and verdict != (req["sup_q"] < r1):
                return "incorrect", f"T1 verdict {verdict} with r1 = {r1}"
        elif op == "Td":
            if verdict not in (True, False):
                return "incorrect", f"Td verdict {verdict!r}"
        elif op == "ws":
            nu = req["mu"] * req["p"] ** req["alpha"]
            # S0 holds exactly for nu < 1/2; S1 holds for every nu < 1
            expected = nu < 0.5 if req["region"] == "S0" else True
            if verdict != expected:
                return "incorrect", f"{req['region']} verdict {verdict} at nu={nu}"
        else:
            margin = independent_margin(req["coeffs"])
            if (verdict in (True, False) and abs(margin) > DECISIVE
                    and verdict != (margin > 0)):
                return "incorrect", f"membership {verdict}, np.roots margin {margin}"
        return None

    def cli_plan(self) -> list:
        """appendix-verify at d = 4, and ``rieszcert certify`` on a T1, an
        S0 and an S1 request, whose verdicts and exit codes must match
        the library's. appendix-verify runs at its default seed: its
        time moves by +-10 % with its random draws, and cli_s is meant
        to follow the program, not the draw."""
        rng = self.cli_rng
        plan = [{"argv": ["appendix-verify", "--d", "4"],
                 "expect": {"kind": "pass_lines", "count": 4}}]
        t1 = {"op": "T1", "sup_q": float(rng.uniform(0.02, 0.98)),
              "alpha": float(rng.uniform(0.0, 2.0)),
              "p": int(rng.choice((3, 5, 7)))}
        reqs = [t1] + [self._ws(region, float(rng.uniform(0.0, 0.98)),
                                int(rng.choice((2, 3, 5))),
                                float(rng.uniform(0.0, 2.0)))
                       for region in ("S0", "S1")]
        for req in reqs:
            if req["op"] == "T1":
                params = {"family": "gp", "p": req["p"], "alpha": req["alpha"],
                          "sup_q": req["sup_q"]}
            else:
                params = {"family": "weierstrass", "p": req["p"],
                          "alpha": req["alpha"], "mu": req["mu"],
                          "region": req["region"]}
            plan.append({"argv": ["certify", json.dumps(params)],
                         "expect": {"kind": "verdict", "req": req}})
        return plan


# ---------------------------------------------------------------------------
# sections

# Catalogue of section families; the seed picks entries and their order.
# Sigma_min of every (family, entry, N) that a deck can draw is recorded
# in reference.json.
WS_CONST = [(0.25, 2, 0.0), (0.5, 2, 0.0), (0.3, 3, 0.5), (0.2, 2, 1.0)]
GP_CONST = [(0.3, 0.0), (0.5, 0.0), (0.6, 0.5), (0.45, 1.0)]
# p-periodic index tables: lam_n = table[(n / p^v_p(n)) mod len(table)]
WS_PERIODIC = [((0.2, 0.5, 0.35), 2, 0.0), ((0.1, 0.4), 3, 0.5),
               ((0.3, 0.45, 0.15, 0.25), 2, 0.5)]
GP_PERIODIC = [((0.3, 0.6), 3, 0.0), ((0.2, 0.5, 0.4), 3, 0.5),
               ((0.55, 0.25), 3, 1.0)]
FAMILIES = {"ws-const": WS_CONST, "gp-const": GP_CONST,
            "ws-periodic": WS_PERIODIC, "gp-periodic": GP_PERIODIC,
            "ws-trajectory": WS_CONST}
SIZES = (256, 1024, 2048)
# ws-trajectory is ws-const spelled through dilation.trajectory_coeffs;
# it only appears next to ws-const at N = 256
PAIR_SIZE = 256


def _p_class(n: int, p: int, m: int) -> int:
    while n % p == 0:
        n //= p
    return n % m


def section_rule(family: str, entry: int):
    """The c_j(n) rule of one catalogue entry, built as a user would."""
    params = FAMILIES[family][entry]
    if family == "ws-const":
        lam, p, alpha = params
        return ws.cj_rule(lam, p, alpha)
    if family == "gp-const":
        q, alpha = params
        return gp.cj_rule(q, alpha)
    if family == "ws-trajectory":
        lam, p, alpha = params
        prof = dl.LacunaryGeometricProfile(lam, p, alpha)
        return lambda j, n: dl.trajectory_coeffs(lambda _: prof, alpha, j, n)
    table, p, alpha = params
    if family == "ws-periodic":
        profs = [dl.LacunaryGeometricProfile(x, p, alpha) for x in table]
    else:
        profs = [dl.OddModeProfile(x, alpha) for x in table]
    m = len(table)

    def profiles(n: int):
        return profs[_p_class(n, p, m)]

    return lambda j, n: dl.trajectory_coeffs(profiles, alpha, j, n)


def reference_key(family: str, entry: int, N: int) -> str:
    return f"{family}/{entry}/{N}"


def catalogue_keys() -> list:
    keys = []
    for family, entries in FAMILIES.items():
        sizes = (PAIR_SIZE,) if family == "ws-trajectory" else SIZES
        keys += [(family, e, N) for e in range(len(entries)) for N in sizes]
    return keys


class Sections(Workload):
    """One request is finite_section + smallest_singular of one family
    at one size.

    A deck holds one N = 2048 section, five at 1024 and fourteen at
    256. The 2048 section takes most of a deck's time, and its time
    ranges from 5 s to 10 s with the family and entry (rule evaluation
    differs that much), so it is not drawn: deck k takes BIG[k mod 4].
    Likewise the fifth 1024 section cycles through the families."""

    BIG = (("ws-const", 0), ("gp-periodic", 0), ("ws-periodic", 0),
           ("gp-const", 2))

    name = "sections"
    tail = 75
    min_samples = 40
    deck_s = 12.0
    kernels = ("interpreter", "blas")
    drawn = ("ws-const", "gp-const", "ws-periodic", "gp-periodic")

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = np.random.default_rng([seed, 2])
        self.tiny = tiny
        self.dealt = 0
        if tiny:
            self.min_samples = 1
        with open(REFERENCE, encoding="utf-8") as fh:
            self.reference = json.load(fh)["sigma_min"]

    def _draw(self, N: int, family: str | None = None) -> dict:
        if family is None:
            family = self.drawn[int(self.rng.integers(len(self.drawn)))]
        entry = int(self.rng.integers(len(FAMILIES[family])))
        return {"family": family, "entry": entry, "N": N}

    def deck(self) -> list:
        pair = int(self.rng.integers(len(WS_CONST)))
        reqs = [{"family": f, "entry": pair, "N": PAIR_SIZE}
                for f in ("ws-const", "ws-trajectory")]
        if self.tiny:
            return reqs + [self._draw(PAIR_SIZE, "gp-periodic")]
        k = self.dealt
        self.dealt += 1
        family, entry = self.BIG[k % len(self.BIG)]
        reqs.append({"family": family, "entry": entry, "N": 2048})
        reqs += [self._draw(1024, f) for f in self.drawn]
        reqs.append(self._draw(1024, self.drawn[k % len(self.drawn)]))
        reqs += [self._draw(256) for _ in range(12)]
        return [reqs[i] for i in self.rng.permutation(len(reqs))]

    def kind(self, req: dict) -> str:
        return f"N={req['N']}"

    def call(self, req: dict) -> dict:
        rule = section_rule(req["family"], req["entry"])
        section = st.finite_section(rule, req["N"])
        return {"sigma_min": st.smallest_singular(section)}

    def check(self, req: dict, out: dict):
        key = reference_key(req["family"], req["entry"], req["N"])
        ref, sigma = self.reference[key], out["sigma_min"]
        if abs(sigma - ref) > SECTION_RTOL * abs(ref):
            return "incorrect", f"sigma_min {sigma} against reference {ref} ({key})"
        return None

    def check_run(self, records: list) -> list:
        """ws.cj_rule and trajectory_coeffs give one sigma_min on the
        constant family."""
        const = {}
        for rec in records:
            req = rec["req"]
            if (req["family"] == "ws-const" and req["N"] == PAIR_SIZE
                    and rec["out"] is not None):
                const[req["entry"]] = rec["out"]["sigma_min"]
        found = []
        for i, rec in enumerate(records):
            req = rec["req"]
            if (req["family"] != "ws-trajectory" or rec["out"] is None
                    or req["entry"] not in const):
                continue
            a, b = rec["out"]["sigma_min"], const[req["entry"]]
            if abs(a - b) > SAME_RULE_RTOL * abs(b):
                found.append((i, ("incorrect",
                                  f"trajectory sigma_min {a} != cj_rule {b}")))
        return found

    def cli_plan(self) -> list:
        """``rieszcert section`` at N = 1024 on one entry of each constant
        family. The entries are fixed, as the time of a section moves
        with its entry, and cli_s is meant to follow the program, not
        the draw."""
        N = PAIR_SIZE if self.tiny else 1024
        plan = []
        for family, entry in (("ws-const", 0), ("gp-const", 2)):
            if family == "ws-const":
                lam, p, alpha = WS_CONST[entry]
                params = {"family": "weierstrass", "lam": lam, "p": p,
                          "alpha": alpha}
            else:
                q, alpha = GP_CONST[entry]
                params = {"family": "gp", "q": q, "alpha": alpha, "p": 3}
            plan.append({"argv": ["section", json.dumps(params), "--size", str(N)],
                         "expect": {"kind": "sigma", "value": self.reference[
                             reference_key(family, entry, N)]}})
        return plan


WORKLOADS = {cls.name: cls for cls in (Thresholds, CertifyMix, Sections)}


def check_cli(workload, expect: dict, returncode: int, stdout: str,
              rows: dict):
    """Check one call of a workload's CLI leg against the library;
    ``rows`` is the workload's ``library_rows``. Same return values as
    the workloads' ``check``."""
    if returncode in (2, 3):
        return "failed", f"exit {returncode}"
    kind = expect["kind"]
    try:
        if kind == "csv":
            if stdout.strip().split("\n")[1:] != rows[str(expect["p"])]:
                return "incorrect", "CSV rows differ from the library rows"
        elif kind == "verdict":
            verdict = json.loads(stdout)["verdict"]
            expected = workload.call(expect["req"])["verdict"]
            if verdict != expected or returncode != (0 if verdict is True else 1):
                return "incorrect", f"CLI verdict {verdict}, exit {returncode}"
        elif kind == "pass_lines":
            if returncode != 0 or stdout.count(" PASS") != expect["count"]:
                return "incorrect", "appendix-verify did not pass"
        elif kind == "sigma":
            line = next(l for l in stdout.splitlines() if l.startswith("sigma_min"))
            sigma = float(line.split()[1])
            if not math.isclose(sigma, expect["value"], rel_tol=SECTION_RTOL):
                return "incorrect", f"CLI sigma_min {sigma}"
    except (ValueError, KeyError, IndexError, StopIteration):
        return "failed", f"unreadable {kind} output (exit {returncode})"
    return None
