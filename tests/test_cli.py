"""Command-line interface: formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rieszcert
from rieszcert import cli
from rieszcert import weierstrass as ws
from test_cli_golden import SWEEP_ARGS, SWEEP_CSV


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sweep_single_row(capsys):
    code, out, _ = run(capsys, "sweep", "--alpha-min", "0", "--alpha-max",
                       "0", "--steps", "1", "--p", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,r0,r1,r1_tilde"
    alpha, r0, r1, r1t = lines[1].split(",")
    assert float(alpha) == 0.0
    assert abs(float(r0) - 0.76806) < 1e-3
    assert float(r0) < float(r1) < float(r1t)


def test_sweep_deterministic_and_ordered(capsys, tmp_path):
    args = ["sweep", "--alpha-min", "0", "--alpha-max", "1", "--steps", "5",
            "--p", "3", "--terms", "300"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = [line.split(",") for line in out1.strip().split("\n")[1:]]
    alphas = [float(r[0]) for r in rows]
    assert alphas == sorted(alphas)
    for row in rows:
        assert float(row[1]) < float(row[2]) < float(row[3])

    out_file = tmp_path / "curve.csv"
    code3, _, _ = run(capsys, *args, "--out", str(out_file))
    assert code3 == 0
    data = out_file.read_bytes()
    assert data.decode() == out1
    assert b"\r" not in data


def test_sweep_row_error_marker(capsys):
    # one-term truncation makes s_alpha identically 1: no root to find
    code, out, _ = run(capsys, "sweep", "--alpha-min", "0", "--alpha-max",
                       "0", "--steps", "1", "--p", "3", "--terms", "1")
    assert code == 3
    assert "ERROR" in out


@pytest.mark.filterwarnings("error")
def test_sweep_rows_where_the_tail_ratio_overflows(capsys):
    # at terms = 1 s_alpha is identically 1 and the ratio (5/3)^alpha of
    # its tail bound overflows past alpha ~ 1389: an error row for each
    # alpha, not an OverflowError that loses the whole CSV
    code, out, err = run(capsys, "sweep", "--alpha-min", "0", "--alpha-max",
                         "2000", "--steps", "2", "--terms", "1")
    assert (code, err) == (3, "")
    assert out == ("alpha,r0,r1,r1_tilde\n"
                   "0,ERROR,ERROR,ERROR  # BracketFailure\n"
                   "2000,ERROR,ERROR,ERROR  # BracketFailure\n")


def test_sweep_row_with_no_r1_below_q_hi(capsys):
    # at terms = 8 s stays below 2 + b/2 past r0 (see the gap solvers'
    # test): an error row, not an r1 next to q = 1
    code, out, err = run(capsys, "sweep", "--alpha-max", "0", "--steps", "1",
                         "--p", "3", "--terms", "8")
    assert (code, err) == (3, "")
    assert out == ("alpha,r0,r1,r1_tilde\n"
                   "0,ERROR,ERROR,ERROR  # BracketFailure\n")


@pytest.mark.filterwarnings("error")
def test_sweep_keeps_rows_before_overflow(capsys):
    # the alpha = 1e308 row overflows; the rows before it are still written
    code, out, err = run(capsys, "sweep", "--alpha-min", "0", "--alpha-max",
                         "1e308", "--steps", "2", "--p", "3", "--terms", "300")
    assert code == 3 and err == ""
    lines = out.split("\n")
    assert lines[:2] == SWEEP_CSV.split("\n")[:2]
    assert lines[2].startswith("1e+308,ERROR,ERROR,ERROR  # ")
    assert lines[3:] == [""]


@pytest.mark.filterwarnings("error")
def test_sweep_where_the_weights_total_overflows(capsys):
    # at terms = 500 and alpha = 102.7 every weight (2l+1)^alpha is
    # finite but their total is not: an exit-3 error row, and no
    # RuntimeWarning on stderr
    code, out, err = run(capsys, "sweep", "--alpha-min", "102.7",
                         "--alpha-max", "102.7", "--steps", "1", "--p", "3")
    assert (code, err) == (3, "")
    assert out == ("alpha,r0,r1,r1_tilde\n"
                   "102.7,ERROR,ERROR,ERROR  # BracketFailure\n")


@pytest.mark.filterwarnings("error")
def test_sweep_grid_ends_at_a_finite_alpha_max(capsys):
    # span * i overflows at the last point of this grid; the point is
    # still alpha-max, not inf, and the row stays an exit-3 error row
    code, out, err = run(capsys, "sweep", "--alpha-max", "1e308",
                         "--steps", "3", "--terms", "300")
    assert code == 3 and err == ""
    lines = out.split("\n")
    assert [line.split(",")[0] for line in lines[1:4]] == [
        "0", "5e+307", "1e+308"]
    assert lines[3].startswith("1e+308,ERROR,ERROR,ERROR  # ")
    assert lines[4:] == [""]
    # where span * i stays finite, the grid keeps its floats
    for lo, hi, steps in [(0.0, 2.0, 21), (0.1, 2.3, 23), (0.3, 1.7, 7)]:
        span = hi - lo
        assert [cli._grid_point(lo, span, i, steps) for i in range(steps)] \
            == [lo + span * i / (steps - 1) for i in range(steps)]


def test_sweep_usage_error(capsys):
    code, _, err = run(capsys, "sweep", "--alpha-min", "2", "--alpha-max",
                       "1", "--steps", "3")
    assert code == 2 and "alpha" in err
    for p in ("1", "0"):
        code, out, err = run(capsys, "sweep", "--p", p, "--steps", "3")
        assert code == 2 and out == ""
        assert err == "sweep: p must be an integer >= 2\n"


def test_sweep_refuses_alpha_and_p_outside_the_family_domain(capsys):
    # the rule of GpSpec, checked before the header; alpha = 1e308 is
    # finite and stays an exit-3 row (test_sweep_keeps_rows_before_overflow)
    for argv, message in [
            (["--alpha-max", "nan"], "alpha must be finite and >= 0"),
            (["--alpha-min", "nan"], "alpha must be finite and >= 0"),
            (["--alpha-max", "inf", "--steps", "2"],
             "alpha must be finite and >= 0"),
            (["--p", "1" + "0" * 400], "p must not exceed the largest float")]:
        code, out, err = run(capsys, "sweep", *argv)
        assert (code, out, err) == (2, "", f"sweep: {message}\n"), argv


def test_certify_weierstrass_examples(capsys):
    code, out, _ = run(capsys, "certify",
                       '{"family":"weierstrass","p":2,"alpha":0,'
                       '"mu":0.4,"region":"S0"}')
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] is True and cert["kind"] == "S0"
    assert cert["mode"] == "envelope-rigorous"

    code, out, _ = run(capsys, "certify",
                       '{"family":"weierstrass","p":2,"alpha":0,'
                       '"mu":0.6,"region":"S1"}')
    assert code == 0
    assert json.loads(out)["kind"] == "S1"


def test_certify_gp_examples(capsys):
    code, out, _ = run(capsys, "certify",
                       '{"family":"gp","p":3,"alpha":0,"sup_q":0.70}')
    assert code == 0 and json.loads(out)["verdict"] is True

    code, out, _ = run(capsys, "certify",
                       '{"family":"gp","p":3,"alpha":0,"sup_q":0.95}')
    assert code == 1 and json.loads(out)["verdict"] is False


def test_certify_deterministic(capsys):
    args = ("certify", '{"family":"gp","p":3,"alpha":0.5,"sup_q":0.4}')
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# a 401-digit p: an int beyond the float range
HUGE_P = "1" + "0" * 400


@pytest.mark.filterwarnings("error")
def test_certify_schema_violations(capsys):
    for bad in ('{"family":"gp"}',
                '{"family":"unknown","p":2,"alpha":0,"mu":0.4}',
                '{"family":"weierstrass","p":2,"alpha":0,"mu":1.4,'
                '"region":"S0"}',
                'not json',
                '{"family":"gp","p":1,"alpha":0,"sup_q":0.5}',
                '{"family":"gp","p":-3,"alpha":0,"sup_q":0.5}',
                '{"family":"gp","p":3,"alpha":-5,"sup_q":0.5}',
                '{"family":"gp","p":true,"alpha":0,"sup_q":0.5}',
                '{"family":"gp","p":3,"alpha":0,"sup_q":0.5,"terms":0}',
                '{"family":"gp","p":3,"alpha":0,"sup_q":0.5,"terms":null}',
                '{"family":"gp","p":3,"alpha":0,"sup_q":0.5,"terms":1000001}',
                '{"family":"gp","p":3,"alpha":0,"sup_q":0.5,"degree":2.0}',
                '{"family":"gp","p":3,"alpha":0,"sup_q":0.5,"degree":0}',
                '{"family":"gp","p":3,"alpha":NaN,"sup_q":0.5}',
                '{"family":"weierstrass","p":2,"alpha":NaN,"mu":0.4,'
                '"region":"S0"}',
                '{"family":"gp","p":3,"alpha":0,"sup_q":0.7,"degree":700}',
                f'{{"family":"weierstrass","p":{HUGE_P},"alpha":0,'
                '"mu":0.4,"region":"S0"}',
                '5', 'null', '[1]'):
        code, out, err = run(capsys, "certify", bad)
        assert code == 2 and out == "" and err.count("\n") == 1
    for bad, message in [
            ('{"family":"gp","p":3,"alpha":NaN,"sup_q":0.5}',
             "alpha must be finite and >= 0"),
            ('{"family":"weierstrass","p":2,"alpha":Infinity,"mu":0.4,'
             '"region":"S0"}', "alpha must be finite and >= 0"),
            ('{"family":"gp","p":3,"alpha":0,"sup_q":0.5,"terms":1000001}',
             "terms must lie in 1..1000000"),
            ('{"family":"gp","p":3,"alpha":0,"sup_q":0.5,"degree":2.0}',
             "key 'degree' must be of type int"),
            ('{"family":"gp","p":3,"alpha":0,"sup_q":0.7,"degree":700}',
             "p ** degree must stay below the largest float"),
            (f'{{"family":"weierstrass","p":{HUGE_P},"alpha":0,"mu":0.4,'
             '"region":"S0"}', "p must not exceed the largest float"),
            ('5', "parameters must be a JSON object")]:
        code, _, err = run(capsys, "certify", bad)
        assert err == f"certify: invalid parameters: {message}\n"


def test_certify_params_file(capsys, tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"family": "gp", "p": 3, "alpha": 0,
                                "sup_q": 0.5}))
    code, out, _ = run(capsys, "certify", "--params-file", str(path))
    assert code == 0 and json.loads(out)["verdict"] is True


def test_appendix_verify_scalar_case(capsys):
    code, out, _ = run(capsys, "appendix-verify", "--d", "1",
                       "--trials", "40", "--seed", "3")
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        assert "PASS" in line
        residual = float(line.split("max residual")[1].split()[0])
        assert residual < 1e-12


def test_appendix_verify_deterministic(capsys):
    args = ("appendix-verify", "--d", "3", "--trials", "30", "--seed", "11")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2


def test_appendix_verify_fails_on_one_check(capsys, monkeypatch):
    monkeypatch.setattr("rieszcert.polydisc.model_residual",
                        lambda lams, z, w: 1.0)
    code, out, err = run(capsys, "appendix-verify", "--d", "2",
                         "--trials", "10")
    lines = out.strip().split("\n")[1:]
    assert code == 1 and err == ""
    assert [line.split()[0] for line in lines] == [
        "oracle-agreement", "model-identity", "form-representation",
        "realization-identity"]
    assert [line.split()[-1] for line in lines] == [
        "PASS", "FAIL", "PASS", "PASS"]
    assert "max residual 1.000e+00  (tolerance 1e-10)" in lines[1]


@pytest.mark.parametrize("d", range(1, 9))
def test_appendix_verify_form_representation_without_a_root_solve(capsys, d):
    # the form takes the drawn lambdas themselves; recovering them from
    # the roots of the coefficients cost up to 9.3e-11 here
    code, out, _ = run(capsys, "appendix-verify", "--d", str(d),
                       "--seed", "0")
    line = next(line for line in out.split("\n")
                if line.startswith("form-representation"))
    assert code == 0
    assert float(line.split("max residual")[1].split()[0]) < 1e-11


def test_appendix_verify_usage(capsys):
    code, _, err = run(capsys, "appendix-verify", "--d", "9")
    assert code == 2 and "1..8" in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_appendix_verify_refuses_fewer_than_one_trial(capsys, trials):
    # no polynomial would be checked, yet every line would read PASS
    code, out, err = run(capsys, "appendix-verify", "--d", "2",
                         "--trials", trials)
    assert code == 2 and out == ""
    assert err == "appendix-verify: trials must be >= 1\n"


@pytest.mark.parametrize("seed", ["-1", "-5"])
def test_appendix_verify_refuses_a_negative_seed(capsys, seed):
    # numpy's generator rejects it, which used to end in a traceback
    code, out, err = run(capsys, "appendix-verify", "--d", "2",
                         "--trials", "2", "--seed", seed)
    assert code == 2 and out == ""
    assert err == "appendix-verify: seed must be >= 0\n"


def test_section_identity(capsys):
    code, out, _ = run(capsys, "section", '{"family":"identity"}',
                       "--size", "12")
    assert code == 0
    assert "sigma_min         1" in out


def test_section_weierstrass(capsys):
    code, out, _ = run(capsys, "section",
                       '{"family":"weierstrass","lam":0.25,"p":2,"alpha":0}',
                       "--size", "256")
    assert code == 0
    sigma = float(out.split("sigma_min")[1].split()[0])
    predicted = float(out.split("predicted floor")[1].split()[0])
    assert predicted == pytest.approx(0.8)
    assert 0.8 - 1e-9 <= sigma <= 0.82


def test_section_gp_floor(capsys):
    code, out, _ = run(capsys, "section",
                       '{"family":"gp","q":0.5,"alpha":0,"p":3}',
                       "--size", "128")
    assert code == 0
    sigma = float(out.split("sigma_min")[1].split()[0])
    predicted = float(out.split("predicted floor")[1].split()[0])
    assert sigma >= predicted - 1e-9


def test_section_gp_outside_g2(capsys):
    # at q = 0.9, alpha = 1.5, p = 5 the pair (a, b) = (2.21, 3.80) is
    # outside G_2: the structured symbol has a zero in the disc, so its
    # infimum and the floor are 0, and the section is still computed
    code, out, err = run(capsys, "section",
                         '{"family":"gp","q":0.9,"alpha":1.5,"p":5}')
    assert (code, err) == (0, "")
    assert "structured_symbol 0\n" in out
    assert "predicted floor   0\n" in out
    assert float(out.split("sigma_min")[1].split()[0]) > 0.0


@pytest.mark.parametrize("q", ["1e-17", "1e-100", "5e-324"])
def test_tiny_nomes_are_in_domain(capsys, q):
    # below about 5.6e-17, 1 - q rounds to 1; the nome's logarithm,
    # the symbol kernels and the root oracle must still give a result
    for argv in (
            ["certify", f'{{"family":"gp","p":3,"alpha":0,"sup_q":{q}}}'],
            ["certify", f'{{"family":"gp","p":3,"alpha":0,"sup_q":{q},'
                        f'"degree":3}}'],
            ["section", f'{{"family":"gp","q":{q},"alpha":0.5}}',
             "--size", "64"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out


def test_section_size_range(capsys):
    params = '{"family":"weierstrass","lam":0.5,"p":2,"alpha":0}'
    for size in ("0", "65537"):
        code, out, err = run(capsys, "section", params, "--size", size)
        assert code == 2 and out == ""
        assert err == "section: --size must be in 1..65536\n"
    code, out, _ = run(capsys, "section", params, "--size", "8192")
    assert code == 0 and "section size      8192\n" in out
    sigma = float(out.split("sigma_min")[1].split()[0])
    assert sigma >= 2 / 3 - 1e-9


# the two large sections the CI workflow runs, and their recorded stdout
LARGE_SECTIONS = [
    ('{"family":"weierstrass","lam":0.45,"p":2}', "weierstrass"),
    ('{"family":"gp","q":0.6,"alpha":0.5}', "gp"),
    ('{"family":"weierstrass","lam":0.99,"p":2}', "weierstrass_nu099"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("params, name", LARGE_SECTIONS,
                         ids=[name for _, name in LARGE_SECTIONS])
def test_section_65536_pinned(capsys, params, name):
    # the largest section size, byte for byte as recorded in
    # tests/data/section_65536_<name>.txt
    path = Path(__file__).parent / "data" / f"section_65536_{name}.txt"
    code, out, err = run(capsys, "section", params, "--size", "65536")
    assert (code, out, err) == (0, path.read_text(encoding="utf-8"), "")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [3, 5, 7])
def test_sweep_pinned(capsys, p):
    # the 23-point threshold curve on [0, 2], byte for byte as recorded
    # in tests/data/sweep_p<p>.csv with r1 and r1_tilde as r0 plus gaps.
    # At p = 5 and 7 columns may tie, never reverse
    path = Path(__file__).parent / "data" / f"sweep_p{p}.csv"
    code, out, err = run(capsys, "sweep", "--alpha-min", "0", "--alpha-max",
                         "2", "--steps", "23", "--p", str(p))
    assert (code, out, err) == (0, path.read_text(encoding="utf-8"), "")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [5, 7])
def test_sweep_never_prints_the_thresholds_out_of_order(capsys, p):
    # with the bisected r1 and r1_tilde, sweep --p 7 --steps 5 printed
    # r1_tilde < r1 at alpha = 1 and 2 and exited 0
    code, out, err = run(capsys, "sweep", "--alpha-min", "0", "--alpha-max",
                         "2", "--steps", "5", "--p", str(p))
    assert (code, err) == (0, "")
    rows = [[float(x) for x in line.split(",")]
            for line in out.splitlines()[1:]]
    assert [row[0] for row in rows] == [0.0, 0.5, 1.0, 1.5, 2.0]
    for _, r0, r1, r1_tilde in rows:
        assert r0 <= r1 <= r1_tilde


@pytest.mark.filterwarnings("error")
def test_sweep_row_where_a_weight_overflows(capsys):
    # the mode p^2 of an odd p near 1e200 is past the float range: an
    # exit-3 RieszcertError row, as at alpha = 1e308, where r1 and
    # r1_tilde raised Python's OverflowError
    big = str(10 ** 200 + 1)
    for argv in (["--alpha-max", "0", "--steps", "1", "--p", big],
                 ["--alpha-min", "1e308", "--alpha-max", "1e308",
                  "--steps", "1", "--p", "3"]):
        code, out, err = run(capsys, "sweep", *argv)
        assert (code, err) == (3, "")
        assert out.splitlines()[1].endswith(
            ",ERROR,ERROR,ERROR  # RieszcertError")


@pytest.mark.filterwarnings("error")
def test_section_schema_violations(capsys):
    for bad in ('{"family":"weierstrass","lam":0.25,"p":1}',
                '{"family":"weierstrass","lam":0.25,"p":0}',
                '{"family":"weierstrass","lam":0.25,"p":true}',
                '{"family":"gp","q":0.5,"p":1}',
                '{"family":"gp","q":1.5}',
                '{"family":"unknown"}',
                'not json',
                '{"family":"weierstrass","lam":0.25,"p":2,"alpha":null}',
                '{"family":"gp","q":0.5,"alpha":null}',
                '{"family":"gp","q":0.5,"p":null}',
                '{"family":"gp","q":0.5,"alpha":NaN}',
                '{"family":"gp","q":0.5,"alpha":-1}',
                '{"family":"weierstrass","lam":0.25,"p":2,"alpha":-1}',
                '{"family":"weierstrass","lam":0.25,"p":2,"alpha":1e308}',
                '{"family":"weierstrass","lam":0.6,"p":2,"alpha":1}',
                f'{{"family":"gp","q":0.5,"p":{HUGE_P}}}',
                '5', '[]'):
        code, out, err = run(capsys, "section", bad, "--size", "16")
        assert code == 2 and out == "" and err.count("\n") == 1
    for bad in ('{"family":"gp","q":0.5,"alpha":NaN}',
                '{"family":"gp","q":0.5,"alpha":-1}'):
        code, _, err = run(capsys, "section", bad, "--size", "16")
        assert err == ("section: invalid parameters: "
                       "alpha must be finite and >= 0\n")
    # the section reads the same specs as certify, so it names their keys
    for bad, message in [
            ('{"family":"gp","q":1.5}', "sup_q must lie in (0, 1)"),
            ('{"family":"weierstrass","lam":0.6,"p":2,"alpha":1}',
             "mu must lie in (0, p^-alpha)"),
            (f'{{"family":"gp","q":0.5,"p":{HUGE_P}}}',
             "p must not exceed the largest float")]:
        code, _, err = run(capsys, "section", bad, "--size", "16")
        assert err == f"section: invalid parameters: {message}\n"


@pytest.mark.filterwarnings("error")
def test_gp_refuses_an_even_p(capsys):
    # the odd-mode series has no coefficient at the modes p and p^2 of
    # an even p. The certificate took the weights there all the same and
    # certified this family, which holds the constant nome 0.285: its
    # operator is not invertible (the Liouville sum of its coefficients
    # is negative)
    message = ("p must be odd: the odd-mode series has no coefficient "
               "at the modes p and p^2\n")
    for command, argv in [
            ("certify", ['{"family":"gp","p":2,"alpha":1,"sup_q":0.285}']),
            ("certify", ['{"family":"gp","p":4,"alpha":0.5,"sup_q":0.2,'
                         '"degree":3}']),
            ("section", ['{"family":"gp","q":0.2,"alpha":0.6,"p":2}',
                         "--size", "64"])]:
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (2, "")
        assert err == f"{command}: invalid parameters: {message}"
    code, out, err = run(capsys, "sweep", "--p", "2", "--steps", "3")
    assert (code, out, err) == (2, "", f"sweep: {message}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, params", [
    ("certify", '{"family":"gp","p":3,"alpha":1e308,"sup_q":0.5}'),
    ("section", '{"family":"gp","q":0.5,"alpha":1e308}'),
    ("certify", '{"family":"gp","p":3,"alpha":200,"sup_q":0.5}'),
    ("section", '{"family":"gp","q":0.5,"alpha":200}'),
])
def test_overflow_is_numerical_failure(capsys, command, params):
    code, out, err = run(capsys, command, params)
    assert code == 3 and out == ""
    # at alpha = 1e308 the weight p^(k alpha) overflows first, with the
    # threshold solvers' message; at alpha = 200 the weights fit and
    # the mode sum s_alpha overflows
    cause = ("a weight p^(k alpha)" if json.loads(params)["alpha"] > 1e300
             else "s_alpha overflows")
    assert err.startswith(f"numerical failure: RieszcertError: {cause}")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_section_inverse_overflow_is_numerical_failure(capsys, monkeypatch):
    # c_2 = 1e200: the inverse of the chain of 1 holds (-1e200)^6
    monkeypatch.setattr(ws, "cj_rule", lambda *args: (
        lambda j, n: (j == 2) * 1e200))
    code, out, err = run(capsys, "section",
                         '{"family":"weierstrass","lam":0.5,"p":2}',
                         "--size", "64")
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: InverseOverflow: ")
    assert err.count("\n") == 1


def test_config_file_terms_override(capsys, tmp_path):
    cfg = tmp_path / "rc.conf"
    cfg.write_text("terms = 1   # degenerate truncation\n")
    code, out, _ = run(capsys, "--config", str(cfg), "sweep", "--alpha-min",
                       "0", "--alpha-max", "0", "--steps", "1", "--p", "3")
    assert code == 3 and "ERROR" in out
    # explicit flag wins over the config value
    code, out, _ = run(capsys, "--config", str(cfg), "sweep", "--alpha-min",
                       "0", "--alpha-max", "0", "--steps", "1", "--p", "3",
                       "--terms", "500")
    assert code == 0 and "ERROR" not in out


def test_config_env_var(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "rc.conf"
    cfg.write_text("terms = 1\n")
    monkeypatch.setenv("RIESZCERT_CONFIG", str(cfg))
    code, out, _ = run(capsys, "sweep", "--alpha-min", "0", "--alpha-max",
                       "0", "--steps", "1", "--p", "3")
    assert code == 3 and "ERROR" in out


@pytest.mark.parametrize("argv", [
    ["sweep", "--steps", "1"],
    ["certify", '{"family":"gp","p":3,"alpha":0,"sup_q":0.7}'],
    ["section", '{"family":"gp","q":0.5,"alpha":0.5}', "--size", "16"],
], ids=["sweep", "certify", "section"])
@pytest.mark.parametrize("terms", ["0", "-3", "1000001"])
def test_terms_flag_range(capsys, argv, terms):
    code, out, err = run(capsys, *argv, "--terms", terms)
    assert code == 2 and out == ""
    assert err == f"{argv[0]}: --terms must be in 1..1000000\n"


def test_terms_flag_upper_edge(capsys):
    code, out, _ = run(capsys, "certify", "--terms", "1000000",
                       '{"family":"gp","p":3,"alpha":0,"sup_q":0.7}')
    assert code == 0 and json.loads(out)["parameters"]["terms"] == 1000000


def test_config_file_values_reach_sweep(capsys, tmp_path):
    cfg = tmp_path / "rc.conf"
    cfg.write_text("terms = 300\nbisection_tol = 1e-9\n")
    argv = [a for a in SWEEP_ARGS if a not in ("--terms", "300")]
    assert run(capsys, "--config", str(cfg), *argv) == (0, SWEEP_CSV, "")


@pytest.mark.parametrize("line, message", [
    ("terms = 0", "terms must lie in 1..1000000"),
    ("terms = -3", "terms must lie in 1..1000000"),
    ("terms = 1000001", "terms must lie in 1..1000000"),
    ("bisection_tol = -1", "bisection_tol must be finite and > 0"),
    ("bisection_tol = 0", "bisection_tol must be finite and > 0"),
    ("bisection_tol = nan", "bisection_tol must be finite and > 0"),
    ("bisection_tol = inf", "bisection_tol must be finite and > 0"),
])
def test_config_value_range(capsys, tmp_path, line, message):
    cfg = tmp_path / "rc.conf"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, "--config", str(cfg), "sweep", "--steps",
                         "1")
    assert code == 2 and out == ""
    assert err == f"config error: {cfg}: {message}\n"


@pytest.mark.parametrize("key", ["no_such_key", "angle_grid",
                                 "membership_tol", "invertibility_tol",
                                 "root_tol", "root_max_iter",
                                 "bisection_max_iter"])
def test_config_unknown_key(capsys, tmp_path, key):
    cfg = tmp_path / "rc.conf"
    cfg.write_text(f"{key} = 5\n")
    code, _, err = run(capsys, "--config", str(cfg), "sweep")
    assert code == 2 and "unknown key" in err


@pytest.mark.parametrize("text, message", [
    ("terms = 800.0\n", "1: terms must be an integer, got '800.0'"),
    ("# truncation\nterms =\n", "2: terms must be an integer, got ''"),
    ("terms = 300\r\nbisection_tol = 1e-9 1e-8\r\n",
     "2: bisection_tol must be a number, got '1e-9 1e-8'"),
    ("terms = 300\n\nterms = 400\n", "3: key 'terms' repeats line 1"),
    ("bisection_tol = 1e-9\nbisection_tol = 1e-9\n",
     "2: key 'bisection_tol' repeats line 1"),
    (b"terms = 300\n# r\xe9sum\xe9\n", "2: not UTF-8 text (invalid "
                                         "continuation byte)"),
    (b"\xff\xfeterms = 300\n", "1: not UTF-8 text (invalid start byte)"),
])
def test_config_error_names_its_line(capsys, tmp_path, text, message):
    # a malformed value, a repeated key and bytes that are not UTF-8 are
    # usage errors at their place in the file, before any command runs
    cfg = tmp_path / "rc.conf"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    else:
        cfg.write_text(text, newline="")
    code, out, err = run(capsys, "--config", str(cfg), "certify",
                         '{"family":"weierstrass","p":2,"alpha":0,'
                         '"mu":0.3,"region":"S0"}')
    assert (code, out) == (2, "")
    assert err == f"config error: {cfg}:{message}\n"


# Runs cli.main on each argv of a JSON list in one fresh interpreter and
# prints, per argv, the exit code, stdout, stderr and whether numpy has
# been imported so far. "block" first sets sys.modules["numpy"] = None,
# so that any import of numpy raises ImportError.
_CHILD = r"""
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from rieszcert import cli
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue(),
                    sys.modules.get("numpy") is not None])
print(json.dumps(results))
"""


def _run_child(mode: str, argvs: list) -> list:
    src = str(Path(rieszcert.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if k != "RIESZCERT_CONFIG"}
    env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    proc = subprocess.run([sys.executable, "-c", _CHILD, mode,
                           json.dumps(argvs)], capture_output=True,
                          text=True, env=env, stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_closed_form_commands_run_without_numpy(tmp_path):
    cfg = tmp_path / "rc.conf"
    cfg.write_text("terms = 300\nterms = 400\n")
    s0 = ('{"family":"weierstrass","p":2,"alpha":0,"mu":0.3,'
          '"region":"S0"}')
    s1 = ('{"family":"weierstrass","p":3,"alpha":0.5,"mu":0.4,'
          '"region":"S1"}')
    argvs = [["certify", s0],
             ["certify", "--terms", "300", s1],
             ["--help"],
             ["certify", '{"family": "weierstrass", "p": 2'],
             ["--config", str(cfg), "certify", s0],
             ["certify", "--terms", "0", s0],
             ["no-such-command"]]
    plain = _run_child("plain", argvs)
    assert [code for code, *_ in plain] == [0, 0, 0, 2, 2, 2, 2]
    assert plain[0][1].startswith("{") and plain[2][1].startswith("usage:")
    assert plain[4][2].startswith("config error: ")
    # the same bytes and exit codes with numpy blocked, and numpy is not
    # even loaded when it is there
    assert _run_child("block", argvs) == plain
    assert not any(loaded for *_, loaded in plain)


def test_gp_certify_loads_numpy():
    # the other side of the test above: under the same child code a
    # command that needs numpy reports it loaded, so the flag that test
    # reads cannot be false by accident
    (code, out, err, loaded), = _run_child(
        "plain", [["certify", '{"family":"gp","p":3,"alpha":0,'
                              '"sup_q":0.5}']])
    assert (code, err, loaded) == (0, "", True)
    assert json.loads(out)["kind"] == "T1"


def test_removed_flags_refused(capsys):
    for argv in (["sweep", "--seed", "0"],
                 ["certify", "--seed", "0", '{"family":"identity"}'],
                 ["section", "--seed", "0", '{"family":"identity"}'],
                 ["appendix-verify", "--terms", "5"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
