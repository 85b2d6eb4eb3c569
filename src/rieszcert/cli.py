"""Command-line front end.

Subcommands: ``sweep`` (threshold curves as CSV), ``certify`` (JSON
certificates for the Weierstrass and stationary-state families),
``appendix-verify`` (batch self-verification of the polydisc model
machinery), and ``section`` (finite-section singular-value experiments).

Exit codes: 0 success / verdict true, 1 verdict false, 2 usage error,
3 numerical failure.

Each command imports the modules it uses when it runs, so a Weierstrass
``certify``, ``--help`` and the usage and config errors run without
numpy; ``sweep``, ``appendix-verify``, ``section`` and a gp ``certify``
load it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .certificate import Certificate
from .config import MAX_TERMS, Settings, load_settings
from .errors import NotInG2, RieszcertError

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# the largest section size: up to about 1 s and 90 MB on one core
# for gp, 0.3 s and 40 MB for weierstrass
MAX_SECTION_SIZE = 65536


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# sweep

def _sweep_row(alpha: float, p: int, terms: int, tol: float) -> tuple:
    from . import gross_pitaevskii as gp

    try:
        r0 = gp.solve_r0(alpha, terms, tol)
        r1 = gp.solve_r1(alpha, p, terms, tol)
        r1t = gp.solve_r1_tilde(alpha, p, terms, tol)
        return (f"{_fmt(alpha)},{_fmt(r0)},{_fmt(r1)},{_fmt(r1t)}", True)
    except RieszcertError as exc:
        return (f"{_fmt(alpha)},ERROR,ERROR,ERROR  # {type(exc).__name__}",
                False)


def _grid_point(alpha_min: float, span: float, i: int, steps: int) -> float:
    """alpha_min + span * i / (steps - 1), reordered only where span * i
    overflows, so that a finite alpha-max stays a finite last point."""
    if math.isinf(span * i):
        return alpha_min + span * (i / (steps - 1))
    return alpha_min + span * i / (steps - 1)


def cmd_sweep(args, settings: Settings) -> int:
    from . import gross_pitaevskii as gp

    if args.alpha_min < 0 or args.alpha_max < args.alpha_min or args.steps < 1:
        print("sweep: need 0 <= alpha-min <= alpha-max and steps >= 1",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        for alpha in (args.alpha_min, args.alpha_max):
            gp.check_p_alpha(args.p, alpha)
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.alpha_max == args.alpha_min or args.steps == 1:
        grid = [args.alpha_min]
    else:
        span = args.alpha_max - args.alpha_min
        grid = [_grid_point(args.alpha_min, span, i, args.steps)
                for i in range(args.steps)]
    rows = [_sweep_row(a, args.p, args.terms, settings.bisection_tol)
            for a in grid]

    lines = ["alpha,r0,r1,r1_tilde"] + [row for row, _ in rows]
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all(ok for _, ok in rows) else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# certify

def _load_params(args) -> dict:
    if args.params_file:
        with open(args.params_file, "r", encoding="utf-8") as fh:
            params = json.load(fh)
    elif args.params is None:
        raise ValueError("missing parameters (positional JSON or --params-file)")
    else:
        params = json.loads(args.params)
    if not isinstance(params, dict):
        raise ValueError("parameters must be a JSON object")
    return params


def _require(params: dict, key: str, kind) -> object:
    if key not in params:
        raise ValueError(f"missing required key {key!r}")
    value = params[key]
    if isinstance(value, bool):
        raise ValueError(f"key {key!r} must be of type {kind.__name__}")
    if kind is float and isinstance(value, (int, float)):
        return float(value)
    if kind is int and isinstance(value, int):
        return value
    if kind is str and isinstance(value, str):
        return value
    raise ValueError(f"key {key!r} must be of type {kind.__name__}")


def _optional(params: dict, key: str, kind, default) -> object:
    """``_require`` for a key that may be absent; an explicit ``null``
    is still a type error."""
    return _require(params, key, kind) if key in params else default


def _certify_from_params(params: dict, terms: int) -> Certificate:
    family = _require(params, "family", str)
    if family == "weierstrass":
        from . import weierstrass as ws

        return ws.certify(ws.WeierstrassSpec(
            p=_require(params, "p", int),
            alpha=_require(params, "alpha", float),
            mu=_require(params, "mu", float),
            region=_require(params, "region", str)))
    if family == "gp":
        from . import gross_pitaevskii as gp

        return gp.certify(gp.GpSpec(
            sup_q=_require(params, "sup_q", float),
            alpha=_require(params, "alpha", float),
            p=_require(params, "p", int),
            terms=_optional(params, "terms", int, terms),
            degree=_optional(params, "degree", int, 2)))
    raise ValueError(f"unknown family {family!r} (expected weierstrass|gp)")


def cmd_certify(args, settings: Settings) -> int:
    try:
        cert = _certify_from_params(_load_params(args), args.terms)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"certify: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_out(cert.to_json() + "\n", args.out)
    return EXIT_OK if cert.verdict is True else EXIT_FALSE


# ---------------------------------------------------------------------------
# appendix-verify

def _random_coeffs(rng: np.random.Generator, d: int) -> np.ndarray:
    import numpy as np

    re = rng.uniform(-2.0, 2.0, d)
    im = rng.uniform(-2.0, 2.0, d)
    c = re + 1j * im
    mag = np.abs(c)
    return np.where(mag > 2.0, c * (2.0 / mag), c)


def _random_disc(rng: np.random.Generator, d: int, radius: float = 0.95,
                 n: int | None = None) -> np.ndarray:
    """d points uniform in the disc |z| < radius, or with ``n`` an
    (n, d) block of them, from one draw of (n, 2, d) uniforms u:
    r = radius sqrt(u_0) and angle 2 pi u_1. That is the stream of n
    draws of d points, each its d radii and then its d angles
    (``uniform(0, h)`` is 0 + h u), value for value."""
    import numpy as np

    u = rng.uniform(0.0, 1.0, (1 if n is None else n, 2, d))
    points = radius * np.sqrt(u[:, 0]) * np.exp(1j * (2.0 * np.pi * u[:, 1]))
    return points[0] if n is None else points


# kept polynomials per Schur-Cohn block of the oracle check: their forms
# at ten betas each take one eigvalsh, and the memory stays bounded
APPENDIX_BLOCK = 64


def cmd_appendix_verify(args, settings: Settings) -> int:
    import numpy as np

    from . import polydisc

    d, trials = args.d, args.trials
    if not 1 <= d <= 8:
        print("appendix-verify: d must be in 1..8", file=sys.stderr)
        return EXIT_USAGE
    if trials < 1:
        # no polynomial would be checked, and every line would PASS
        print("appendix-verify: trials must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        # np.random.default_rng would raise a ValueError traceback
        print("appendix-verify: seed must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(args.seed)
    batches = max(1, trials // 10)

    # 1. root oracle vs Schur-Cohn, with verdict invariance over betas:
    # each kept polynomial's ten forms wait for a full block
    disagreements = 0
    checked = 0
    block = []
    while checked < trials:
        coeffs = _random_coeffs(rng, d)
        rv = polydisc.in_polydisc_roots(coeffs)
        if abs(rv.margin) <= 1e-6:
            continue
        checked += 1
        block.append((coeffs, _random_disc(rng, d, 0.9, 10), rv.inside))
        if len(block) == APPENDIX_BLOCK or checked == trials:
            kept, betas, inside = (np.array(x) for x in zip(*block))
            margins = polydisc.schur_cohn_margins(kept[:, None], betas)
            agree = (margins > polydisc.MEMBERSHIP_TOL) == inside[:, None]
            disagreements += int((~agree.all(axis=1)).sum())
            block.clear()

    # 2. model identity residual on a 20 x 20 grid
    grid = np.linspace(-0.9, 0.9, 20)
    worst_model = 0.0
    for _ in range(batches):
        lams = _random_disc(rng, d)
        zs = rng.permutation(grid) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
        wsamples = rng.permutation(grid) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
        worst_model = max(worst_model, float(np.max(
            polydisc.model_residual(lams, zs[:, None], wsamples))))

    # 3. Hermitian form via the model vs the Schur-Cohn matrix
    worst_form = 0.0
    for _ in range(batches):
        lams = _random_disc(rng, d, 0.9)
        Y = polydisc.ptak_young(_random_disc(rng, d, 0.9))
        H = polydisc.schur_cohn_form(polydisc.monic_coeffs(lams), Y)
        x = _random_disc(rng, d, 1.0)
        quad = float((x.conj() @ (H @ x)).real)
        tm = polydisc.hermitian_form_tm(lams, Y, x)
        worst_form = max(worst_form, abs(quad - tm))

    # 4. realization identity over random vectors
    worst_real = 0.0
    for _ in range(batches):
        lams = _random_disc(rng, d, 0.9)
        Y = polydisc.ptak_young(_random_disc(rng, d, 0.9))
        xs = _random_disc(rng, d, 1.0, 100)
        worst_real = max(worst_real, float(np.max(
            polydisc.realization_residuals(Y, lams, xs))))

    # the disagreement count passes below 0.5, that is at 0
    report = [("oracle-agreement", float(disagreements), 0.5),
              ("model-identity", worst_model, 1e-10),
              ("form-representation", worst_form, 1e-9),
              ("realization-identity", worst_real, 1e-8)]
    lines = [f"dimension d={d}, trials={trials}, seed={args.seed}"]
    all_ok = True
    for name, residual, tol in report:
        ok = residual < tol
        all_ok &= ok
        lines.append(f"{name:24s} max residual {residual:.3e}  "
                     f"(tolerance {tol:.0e})  {'PASS' if ok else 'FAIL'}")
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_ok else EXIT_FALSE


# ---------------------------------------------------------------------------
# section

def _section_setup(params: dict, terms: int):
    family = _require(params, "family", str)
    if family == "identity":
        return (lambda j, n: 0.0), 1.0, "identity family", {}
    if family == "weierstrass":
        from . import weierstrass as ws

        spec = ws.WeierstrassSpec(mu=_require(params, "lam", float),
                                  p=_require(params, "p", int),
                                  alpha=_optional(params, "alpha", float, 0.0))
        nu = spec.nu
        # full geometric symbol: s(T) = 1 / (1 + nu), exact for constant lam
        return (ws.cj_rule(spec.mu, spec.p, spec.alpha), 1.0 / (1.0 + nu),
                f"weierstrass lam={spec.mu} p={spec.p}", {"nu": nu})
    if family == "gp":
        from . import gross_pitaevskii as gp

        spec = gp.GpSpec(sup_q=_require(params, "q", float),
                         alpha=_optional(params, "alpha", float, 0.0),
                         p=_optional(params, "p", int, 3), terms=terms)
        rule = gp.cj_rule(spec.sup_q, spec.alpha)
        margins = gp.certify_T1(spec.sup_q, spec.alpha, spec.p,
                                spec.terms).margins
        a, b, tail = margins["a"], margins["b"], margins["tail_sum"]
        try:
            structured = gp.min_quadratic(a, b)
        except NotInG2:
            # outside G_2, 1 + a z + b z^2 has a zero in the closed disc
            # (or within MEMBERSHIP_TOL of it): 0 is the floor that holds
            structured = 0.0
        floor = max(0.0, structured - tail)
        extra = {"a": a, "b": b, "perturbation_tail": tail,
                 "structured_symbol": structured}
        return rule, floor, f"gp q={spec.sup_q} p={spec.p}", extra
    raise ValueError(f"unknown family {family!r} "
                     "(expected weierstrass|gp|identity)")


def cmd_section(args, settings: Settings) -> int:
    from . import spread_toeplitz as st

    if not 1 <= args.size <= MAX_SECTION_SIZE:
        print(f"section: --size must be in 1..{MAX_SECTION_SIZE}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        params = _load_params(args)
        rule, predicted, label, extra = _section_setup(params, args.terms)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"section: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    section = st.finite_section(rule, args.size)
    sigma = st.smallest_singular(section)
    lines = [f"family            {label}",
             f"section size      {args.size}",
             f"sigma_min         {_fmt(sigma)}",
             f"predicted floor   {_fmt(predicted)}",
             f"gap               {_fmt(sigma - predicted)}"]
    for key, value in extra.items():
        lines.append(f"{key:17s} {_fmt(value)}")
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszcert",
        description="Certified invertibility and Riesz-basis thresholds "
                    "for dilated function systems.")
    parser.add_argument("--config", help="config file (key = value lines); "
                                         "defaults to $RIESZCERT_CONFIG")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="threshold curves as CSV")
    sweep.add_argument("--alpha-min", type=float, default=0.0)
    sweep.add_argument("--alpha-max", type=float, default=2.0)
    sweep.add_argument("--steps", type=int, default=21)
    sweep.add_argument("--p", type=int, default=3)
    sweep.add_argument("--terms", type=int, default=None)
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=cmd_sweep)

    certify = sub.add_parser("certify", help="JSON certificate for a family")
    certify.add_argument("params", nargs="?", default=None,
                         help="JSON parameter object")
    certify.add_argument("--params-file", default=None)
    certify.add_argument("--terms", type=int, default=None)
    certify.add_argument("--out", default=None)
    certify.set_defaults(func=cmd_certify)

    appendix = sub.add_parser("appendix-verify",
                              help="self-verification of the polydisc "
                                   "model machinery")
    appendix.add_argument("--d", type=int, default=3)
    appendix.add_argument("--trials", type=int, default=100)
    appendix.add_argument("--seed", type=int, default=0)
    appendix.add_argument("--out", default=None)
    appendix.set_defaults(func=cmd_appendix_verify)

    section = sub.add_parser("section",
                             help="finite-section singular-value experiment")
    section.add_argument("params", nargs="?", default=None,
                         help="JSON parameter object")
    section.add_argument("--params-file", default=None)
    section.add_argument("--size", type=int, default=256)
    section.add_argument("--terms", type=int, default=None)
    section.add_argument("--out", default=None)
    section.set_defaults(func=cmd_section)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    terms = getattr(args, "terms", None)
    if terms is not None and not 1 <= terms <= MAX_TERMS:
        print(f"{args.command}: --terms must be in 1..{MAX_TERMS}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        settings = load_settings(args.config)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if "terms" in vars(args) and terms is None:
        args.terms = settings.terms
    try:
        return args.func(args, settings)
    except (RieszcertError, OverflowError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
