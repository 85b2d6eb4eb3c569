"""Golden CLI outputs: CSV and section text byte for byte, certificate
JSON by keys, verdict, mode and parameters exactly and margins to 1e-12
relative (so that another libm cannot fail the comparison)."""

import json

import pytest

from rieszcert import cli

SWEEP_ARGS = ["sweep", "--alpha-max", "1", "--steps", "3", "--p", "3",
              "--terms", "300"]
SWEEP_CSV = ("alpha,r0,r1,r1_tilde\n"
             "0,0.768062449,0.786462682,0.838214219\n"
             "0.5,0.452721982,0.459360167,0.513188929\n"
             "1,0.265510336,0.266650342,0.281939623\n")

CERTIFY = [
    ('{"family":"weierstrass","p":2,"alpha":0,"mu":0.4,"region":"S0"}',
     '{"kind": "S0", "verdict": true, "parameters": {"p": 2, "alpha": 0.0, '
     '"mu": 0.4, "region": "S0", "hypotheses": "sup of the indices below '
     '1/(2 p^alpha)"}, "margins": {"nu": 0.4, "coefficient_sum": '
     '0.6666666666666667, "margin": 0.33333333333333326}, "mode": '
     '"envelope-rigorous", "tool_version": "0.1.0"}'),
    ('{"family":"weierstrass","p":2,"alpha":0.5,"mu":0.5,"region":"S1"}',
     '{"kind": "S1", "verdict": true, "parameters": {"p": 2, "alpha": 0.5, '
     '"mu": 0.5, "region": "S1", "hypotheses": "p-periodic indices (lam_n = '
     'lam_{pn}) with sup below p^-alpha"}, "margins": {"nu": '
     '0.7071067811865476, "minimal_degree": 5.0, "tail_bound": '
     '0.42677669529663714, "symbol_floor": 0.5125631329235418, "margin": '
     '0.08578643762690469, "symbol_exact_at_envelope": 0.5125631329235418, '
     '"margin_exact": 0.08578643762690469}, "mode": "envelope-rigorous", '
     '"tool_version": "0.1.0"}'),
    ('{"family":"gp","p":3,"alpha":0.5,"sup_q":0.4}',
     '{"kind": "T1", "verdict": true, "parameters": {"p": 3, "alpha": 0.5, '
     '"sup_q": 0.4, "terms": 500, "structural_checks_ok": true, '
     '"hypotheses": "p-periodic nomes (q_n = q_{pn}) with sup below '
     'r1(alpha)", "note": "identifying the structured part with the '
     'dilation coefficients requires odd p"}, "margins": {"a": '
     '0.4441155916843275, "b": 0.04609208276294382, "s_value": '
     '1.8447031263264115, "s_tail_bound": 5.653932830209292e-198, '
     '"tail_margin": 0.1686025118689365, "tail_sum": 0.3544954518791402, '
     '"floor": 0.5230979637480767, "chain_margin": 0.07887852733053957, '
     '"membership_margin": 2.5870382184304472, "branch2_margin": '
     '0.2189872639509296, "basic_margin": 0.15529687367358846, '
     '"delegate_margin": 0.1686025118689365}, "mode": "envelope-rigorous", '
     '"tool_version": "0.1.0"}'),
    ('{"family":"gp","p":3,"alpha":0,"sup_q":0.7,"degree":4}',
     '{"kind": "T1", "verdict": true, "parameters": {"p": 3, "alpha": 0.0, '
     '"sup_q": 0.7, "terms": 500, "degree": 4, "experimental": true, '
     '"hypotheses": "p-periodic nomes (q_n = q_{pn}); symbol minimum '
     'evaluated at the envelope parameter only"}, "margins": {"symbol_inf": '
     '0.7525175237200123, "tail_sum": 0.45553690253324164, "margin": '
     '0.2969806211867707, "s_value": 1.853137555303818, "s_tail_bound": '
     '1.1800454981650503e-77}, "mode": "sample-heuristic", '
     '"tool_version": "0.1.0"}'),
]

SECTION = [
    ('{"family":"weierstrass","lam":0.3,"p":3,"alpha":0.5}',
     "family            weierstrass lam=0.3 p=3\n"
     "section size      128\n"
     "sigma_min         0.681469768\n"
     "predicted floor   0.658061312\n"
     "gap               0.0234084562\n"
     "nu                0.519615242\n"),
    ('{"family":"gp","q":0.6,"alpha":0.5}',
     "family            gp q=0.6 p=3\n"
     "section size      128\n"
     "sigma_min         0.465563927\n"
     "predicted floor   0\n"
     "gap               0.465563927\n"
     "a                 0.530219635\n"
     "b                 0.157103239\n"
     "perturbation_tail 0.873434703\n"
     "structured_symbol 0.626601983\n"),
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_sweep_golden(capsys):
    assert run(capsys, *SWEEP_ARGS) == (0, SWEEP_CSV)


@pytest.mark.parametrize("params, expected", CERTIFY,
                         ids=["ws-S0", "ws-S1", "gp-T1", "gp-degree4"])
def test_certify_golden(capsys, params, expected):
    code, out = run(capsys, "certify", params)
    assert code == 0
    got, want = json.loads(out), json.loads(expected)
    assert list(got) == list(want)
    for key in ("kind", "verdict", "mode", "parameters", "tool_version"):
        assert got[key] == want[key]
    assert list(got["margins"]) == list(want["margins"])
    for key, value in want["margins"].items():
        assert got["margins"][key] == pytest.approx(value, rel=1e-12, abs=0)


@pytest.mark.parametrize("params, expected", SECTION, ids=["ws", "gp"])
def test_section_golden(capsys, params, expected):
    assert run(capsys, "section", params, "--size", "128") == (0, expected)
