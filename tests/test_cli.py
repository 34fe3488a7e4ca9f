"""CLI contract: subcommands, exit codes, output formats, determinism."""

import json

import numpy as np
import pytest

from tbgrav.base_geom import BaseGeometry
from tbgrav.cli import main
from tbgrav.spacetime import CATALOG_NAMES, catalog, print_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_rn_all_pass(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--catalog", "reissner_nordstrom",
        "--param", "M=1", "--param", "Q=0.3",
        "--alpha", "star",
        "--seed", "42",
        "--samples", "2",
    )
    assert code == 0
    reports = json.loads(out)
    assert all(r["passed"] for r in reports)
    assert {r["check"] for r in reports} >= {"theorem1_residual", "conservation"}


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--catalog", "minkowski", "--samples", "1", "--format", "csv"
    )
    assert code == 0
    assert out.startswith("check,model,seed,")


def test_verify_exit_one_on_failure(capsys):
    # impossible tier forces failures
    code, out, err = run_cli(
        capsys, "verify", "--catalog", "reissner_nordstrom", "--param", "M=1",
        "--param", "Q=0.3", "--samples", "1", "--tol-tier3", "1e-30",
    )
    assert code == 1
    assert "failed checks" in err


def test_theorem1_uniform_field(capsys):
    code, out, _ = run_cli(
        capsys,
        "theorem1",
        "--catalog", "uniform_field", "--param", "E0=0.1",
        "--alpha", "1",
        "--x", "0,0,0,0",
        "--y", "2,0,0,0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["quad_term"] == pytest.approx(-0.03, rel=1e-10)
    assert payload["r"] == 0.0
    assert abs(payload["residual"]) <= 1e-12
    assert payload["quad_closed_form"] == pytest.approx(payload["quad_term"], rel=1e-9)


def test_geodesic_straight_line_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "geodesic",
        "--catalog", "minkowski",
        "--alpha", "0",
        "--x0", "0,0,0,0",
        "--y0", "1,0,0,0",
        "--t-end", "10",
        "--samples", "11",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,x0,x1,x2,x3,y0,y1,y2,y3"
    assert len(lines) == 12
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(10.0)
    assert last[1] == pytest.approx(10.0, abs=1e-12)


def test_geodesic_zero_length_samples_initial_state(capsys):
    code, out, err = run_cli(
        capsys,
        "geodesic",
        "--catalog", "schwarzschild", "--param", "M=1",
        "--x0", "0,10,1.5707963,0",
        "--y0", "1,0,0,0.03",
        "--t-end", "0",
        "--samples", "2",
    )
    assert (code, err) == (0, "")
    rows = [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
    assert len(rows) == 2 and rows[0] == rows[1]
    assert rows[0][:5] == [0.0, 0.0, 10.0, 1.5707963, 0.0]
    assert all(np.isfinite(rows[0]))


def test_deviation_csv_has_w_columns(capsys):
    code, out, _ = run_cli(
        capsys,
        "deviation",
        "--catalog", "minkowski",
        "--alpha", "0",
        "--x0", "0,0,0,0",
        "--y0", "1,0,0,0",
        "--w0", "0,0.1,0,0",
        "--W0", "0,0.05,0,0",
        "--t-end", "2",
        "--samples", "3",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].endswith("w0,w1,w2,w3,W0,W1,W2,W3")
    last = [float(v) for v in lines[-1].split(",")]
    assert last[10] == pytest.approx(0.2)  # w1 = 0.1 + 0.05*2


def test_deviation_refuses_both_rates(capsys):
    """--W0 and --dw0 together is a usage error (exit 2), not a run that
    silently ignores --dw0."""
    code, out, err = run_cli(capsys, *_DEVIATION, "--w0", "0,0.5,0,0", "--W0", "0,0,0,0", "--dw0", "1,1,1,1")
    assert code == 2 and out == "" and err.startswith("error:") and "not both" in err


def test_efe_rn(capsys):
    code, out, _ = run_cli(
        capsys,
        "efe",
        "--catalog", "reissner_nordstrom", "--param", "M=1", "--param", "Q=0.3",
        "--alpha", "star",
        "--x", "0,5,1.2,0.5",
        "--y", "1.4,0,0,0.02",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_abs_variational"] <= 1e-9
    assert np.max(np.abs(payload["conservation_residual"])) <= 1e-7


def test_integrate_volume(capsys):
    code, out, _ = run_cli(
        capsys,
        "integrate-volume",
        "--catalog", "schwarzschild", "--param", "M=1",
        "--x", "0,10,1.5707963,0.3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ball_volume"] == pytest.approx(1.0, abs=1e-8)
    assert payload["det_residual"] <= 1e-10


def test_integrate_volume_box(capsys):
    argv = ("integrate-volume", "--catalog", "minkowski", "--x", "0,0,0,0", "--box")
    code, out, _ = run_cli(capsys, *argv, "0:1,0:1,0:1,0:2")
    assert code == 0
    payload = json.loads(out)
    # sqrt(-g) = 1 and a unit fiber ball: both integrals are the box volume
    assert payload["base_integral_const"] == pytest.approx(2.0, rel=1e-12)
    assert payload["tm_integral_const"] == pytest.approx(2.0, rel=1e-12)
    code, out, err = run_cli(capsys, *argv, "0:1,0:1,0:1,0:x")
    assert (code, out) == (2, "")
    assert err == "error: --box (hi) expects numbers, got '1,1,1,x'\n"


INSPECT_AT = {
    "minkowski": ({}, [0.1, 0.2, -0.3, 0.4]),
    "uniform_field": ({"E0": 0.1}, [0.0, 2.0, 0.5, 0.1]),
    "schwarzschild": ({"M": 1.0}, [0.0, 10.0, 1.5707963, 0.0]),
    "reissner_nordstrom": ({"M": 1.0, "Q": 0.3}, [0.0, 5.0, 1.2, 0.3]),
    "weak_field": ({"M": 1.0}, [0.0, 4.0, 3.0, 1.0]),
}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_inspect(capsys, name):
    params, x = INSPECT_AT[name]
    argv = [arg for key, value in params.items() for arg in ("--param", f"{key}={value}")]
    code, out, _ = run_cli(capsys, "inspect", "--catalog", name, *argv, "--x", ",".join(map(str, x)))
    assert code == 0
    at = json.loads(out)["at"]
    f_low = np.array(at["faraday"])
    assert np.array_equal(f_low, -f_low.T)
    assert not np.any(np.signbit(f_low[f_low == 0.0]))  # no -0.0
    assert at["det_metric"] < 0
    assert at["signature"] == [1, 3]
    assert at["ricci_scalar"] == BaseGeometry(catalog(name, params), x, 2).ricci_scalar
    if name == "schwarzschild":
        assert at["metric"][0][0] == pytest.approx(0.8)
        assert abs(at["ricci_scalar"]) <= 1e-10


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "verify", "--catalog", "nosuch")[0] == 2
    assert run_cli(capsys, "verify", "--catalog", "schwarzschild")[0] == 2  # missing M
    assert run_cli(capsys, "theorem1", "--catalog", "minkowski", "--x", "1,2", "--y", "1,0,0,0")[0] == 2
    assert run_cli(capsys, "verify", "--catalog", "minkowski", "--no-such-flag")[0] == 2
    assert run_cli(capsys, "verify")[0] == 2  # no model source


def test_samples_must_be_a_count(capsys):
    geodesic = ("geodesic", "--catalog", "minkowski", "--x0", "0,0,0,0", "--y0", "1,0,0,0", "--t-end", "1")
    deviation = ("deviation", *geodesic[1:], "--w0", "0,0.1,0,0")
    for argv in (geodesic, deviation, ("verify", "--catalog", "minkowski")):
        for samples in ("0", "-1", "-3", "2.5", "many"):
            code, out, err = run_cli(capsys, *argv, "--samples", samples)
            assert code == 2 and out == "" and "--samples" in err, (argv[0], samples)


def test_seed_must_be_a_whole_number(capsys):
    verify = ("verify", "--catalog", "minkowski", "--samples", "1")
    for seed in ("-1", "-7", "2.5", "one"):
        code, out, err = run_cli(capsys, *verify, "--seed", seed)
        assert code == 2 and out == "" and "--seed" in err, seed
    assert run_cli(capsys, *verify, "--seed", "0")[0] == 0


def test_tolerances_must_be_finite_and_non_negative(capsys):
    verify = ("verify", "--catalog", "minkowski", "--samples", "1")
    for flag in ("--tol-tier1", "--tol-tier2", "--tol-tier3"):
        for tol in ("nan", "inf", "-inf", "-1e-9", "tight"):
            code, out, err = run_cli(capsys, *verify, flag, tol)
            assert code == 2 and out == "" and flag in err, (flag, tol)
        assert run_cli(capsys, *verify, flag, "0")[0] == 0  # the residuals on Minkowski are exactly 0


def test_bad_integration_inputs_exit_two(capsys):
    geodesic = ("geodesic", "--catalog", "minkowski", "--x0", "0,0,0,0", "--y0", "1,0,0,0")
    for flags in (("--t-end", "nan"), ("--t-end", "-1"), ("--rtol", "-1"),
                  ("--atol", "nan"), ("--rtol", "0", "--atol", "0")):
        code, out, err = run_cli(capsys, *geodesic, *flags)
        assert code == 2 and out == "" and err.startswith("error:"), flags


_RN_ARGS = ("--catalog", "reissner_nordstrom", "--param", "M=1", "--param", "Q=0.3")
_ORBIT = ("--x0", "0,10,1.5,0", "--y0", "1,0.005,0,0.031", "--t-end", "1")
_DEVIATION = ("deviation", "--catalog", "schwarzschild", "--param", "M=1", *_ORBIT)


@pytest.mark.parametrize("flag, argv", [
    ("--x", ("inspect", *_RN_ARGS, "--x", "nan,5,1,1")),
    ("--x", ("theorem1", *_RN_ARGS, "--x", "inf,5,1,1", "--y", "1.4,0,0,0.02")),
    ("--y", ("theorem1", *_RN_ARGS, "--x", "0,5,1.2,0.5", "--y", "1.4,nan,0,0.02")),
    ("--y", ("efe", *_RN_ARGS, "--x", "0,5,1.2,0.5", "--y", "1.4,-inf,0,0.02")),
    ("--x", ("integrate-volume", *_RN_ARGS, "--x", "nan,5,1,1")),
    ("--box", ("integrate-volume", *_RN_ARGS, "--x", "0,10,1.5707963,0.3", "--box", "0:1,6:nan,1:2,0:1")),
    ("--x0", ("geodesic", *_RN_ARGS, "--x0", "nan,10,1.5,0", "--y0", "1,0.005,0,0.031", "--t-end", "1")),
    ("--y0", ("geodesic", *_RN_ARGS, "--x0", "0,10,1.5,0", "--y0", "1,inf,0,0.031", "--t-end", "1")),
    ("--w0", (*_DEVIATION, "--w0", "0,nan,0,0")),
    ("--W0", (*_DEVIATION, "--w0", "0,0.5,0,0", "--W0", "0,inf,0,0")),
    ("--dw0", (*_DEVIATION, "--w0", "0,0.5,0,0", "--dw0", "0,nan,0,0")),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_vector_flags_must_be_finite(capsys, flag, argv):
    """A NaN or infinite vector component is a usage error (exit 2), not a
    report of NaN, a singular evaluation or a step-size underflow."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith(f"error: {flag}") and "finite" in err


def test_bad_model_constants_exit_two(tmp_path, capsys):
    x = ("--x", "0,0.1,0,0")
    assert run_cli(capsys, "inspect", "--catalog", "uniform_field", "--param", "E0=nan", *x)[0] == 2
    assert run_cli(capsys, "inspect", "--catalog", "schwarzschild", "--param", "M=nan", *x)[0] == 2
    for alpha in ("nan", "inf", "-inf"):
        assert run_cli(capsys, "inspect", "--catalog", "minkowski", "--alpha", alpha, *x)[0] == 2
    doc = json.loads(print_model(catalog("minkowski")))
    for change in ({"c": 0}, {"k": -1}, {"c": float("nan")}, {"c": "abc"}, {"k": True}):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc | change), encoding="utf-8")
        code, out, err = run_cli(capsys, "inspect", "--model", str(path), *x)
        assert code == 2 and out == "" and err.startswith("error:"), change


def test_model_constant_too_large_for_a_float_exits_two(tmp_path, capsys):
    # valid JSON: a 401-digit c is an int that no float holds
    path = tmp_path / "model.json"
    path.write_text(json.dumps(json.loads(print_model(catalog("minkowski"))) | {"c": 10**400}), encoding="utf-8")
    code, out, err = run_cli(capsys, "inspect", "--model", str(path), "--x", "0,0.1,0,0")
    assert code == 2 and out == "" and err.startswith("error: c must be finite") and "Traceback" not in err


def test_singular_exit_three(capsys):
    # spacelike fiber vector
    code, _, err = run_cli(
        capsys, "theorem1", "--catalog", "minkowski", "--x", "0,0,0,0", "--y", "0,1,0,0"
    )
    assert code == 3
    assert "singular" in err.lower() or "timelike" in err.lower()
    # inside the horizon
    code, _, _ = run_cli(
        capsys, "inspect", "--catalog", "schwarzschild", "--param", "M=1", "--x", "0,1.5,1.5,0"
    )
    assert code == 3


def test_model_file_source(tmp_path, capsys):
    from tbgrav.spacetime import catalog, print_model

    doc = print_model(catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3}))
    path = tmp_path / "rn.json"
    path.write_text(doc, encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "theorem1", "--model", str(path), "--x", "0,5,1.2,0.5", "--y", "1.4,0,0,0"
    )
    assert code == 0
    assert abs(json.loads(out)["residual"]) <= 1e-8


def test_identical_invocation_byte_identical(capsys):
    args = ("verify", "--catalog", "minkowski", "--samples", "2", "--seed", "5")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_help_lists_flags(capsys):
    code, out, err = run_cli(capsys, "geodesic", "--help")
    assert code == 0
    text = out + err
    for flag in ("--catalog", "--model", "--x0", "--y0", "--t-end", "--samples", "--alpha"):
        assert flag in text


def test_seed_and_format_belong_to_verify_only(capsys):
    geodesic = ("geodesic", "--catalog", "minkowski", "--x0", "0,0,0,0", "--y0", "1,0,0,0")
    assert run_cli(capsys, *geodesic, "--format", "json")[0] == 2
    theorem1 = ("theorem1", "--catalog", "minkowski", "--x", "0,0,0,0", "--y", "2,0,0,0")
    assert run_cli(capsys, *theorem1, "--seed", "1")[0] == 2
