"""Command-line interface: formats, determinism, exit codes."""

import json

import pytest

from rieszcert import cli


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


def test_sweep_usage_error(capsys):
    code, _, err = run(capsys, "sweep", "--alpha-min", "2", "--alpha-max",
                       "1", "--steps", "3")
    assert code == 2 and "alpha" in err


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
                '{"family":"gp","p":3,"alpha":0,"sup_q":0.5,"terms":0}'):
        code, _, err = run(capsys, "certify", bad)
        assert code == 2 and err


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


def test_appendix_verify_usage(capsys):
    code, _, err = run(capsys, "appendix-verify", "--d", "9")
    assert code == 2 and "1..8" in err


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


def test_section_schema_violations(capsys):
    for bad in ('{"family":"weierstrass","lam":0.25,"p":1}',
                '{"family":"weierstrass","lam":0.25,"p":0}',
                '{"family":"weierstrass","lam":0.25,"p":true}',
                '{"family":"gp","q":0.5,"p":1}',
                '{"family":"gp","q":1.5}',
                '{"family":"unknown"}',
                'not json'):
        code, _, err = run(capsys, "section", bad, "--size", "16")
        assert code == 2 and err


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


@pytest.mark.parametrize("key", ["no_such_key", "angle_grid",
                                 "membership_tol", "invertibility_tol",
                                 "root_tol", "root_max_iter",
                                 "bisection_max_iter"])
def test_config_unknown_key(capsys, tmp_path, key):
    cfg = tmp_path / "rc.conf"
    cfg.write_text(f"{key} = 5\n")
    code, _, err = run(capsys, "--config", str(cfg), "sweep")
    assert code == 2 and "unknown key" in err


def test_removed_flags_refused(capsys):
    for argv in (["sweep", "--seed", "0"],
                 ["certify", "--seed", "0", '{"family":"identity"}'],
                 ["section", "--seed", "0", '{"family":"identity"}'],
                 ["appendix-verify", "--terms", "5"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
