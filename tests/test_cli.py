"""CLI contract: subcommands, exit codes, output formats, determinism."""

import json

import numpy as np
import pytest

from tbgrav.base_geom import BaseGeometry
from tbgrav.cli import main
from tbgrav.spacetime import CATALOG_NAMES, catalog


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
