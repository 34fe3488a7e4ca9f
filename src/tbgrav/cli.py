"""Command-line front end.

Subcommands: inspect, verify, geodesic, deviation, theorem1, efe,
integrate-volume.  Machine-readable payload goes to stdout (JSON by default,
CSV where noted), diagnostics to stderr.  Exit codes: 0 success / all checks
passed, 1 at least one check failed, 2 usage error, 3 singular evaluation or
chart/integration failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import base_geom, bundle_geom, dynamics, tm_metric, verify
from .bundle_geom import BundleGeometry, BundlePoint
from .errors import (
    ChartError,
    ConfigError,
    EngineError,
    IntegrationError,
    ModelError,
    ParseError,
    SingularEvaluationError,
    UsageError,
)
from .spacetime import catalog, checked_alpha, load_model, signature_signs

USAGE_ERRORS = (ConfigError, ModelError, ParseError, UsageError)
SINGULAR_ERRORS = (SingularEvaluationError, ChartError, IntegrationError)


def _add_model_args(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--catalog", help="built-in model name")
    src.add_argument("--model", help="path to a model JSON document")
    p.add_argument("--param", action="append", default=[], metavar="K=V",
                   help="model parameter (repeatable)")
    p.add_argument("--alpha", default=None, help='coupling: a number or "star"')


def _count(text: str) -> int:
    """argparse type of ``--samples``: a whole number >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a count >= 1, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """argparse type of ``--seed``: a whole number >= 0, as numpy's generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a whole number >= 0, got {text!r}")
    return int(text)


def _tolerance(text: str) -> float:
    """argparse type of ``--tol-tier1/2/3``: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _add_integration_args(p: argparse.ArgumentParser):
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--samples", type=_count, default=101)
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--atol", type=float, default=1e-10)


def _vec(text: str, flag: str) -> np.ndarray:
    """The 4 finite components of a comma-separated vector flag."""
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"{flag} expects 4 comma-separated numbers, got {text!r}")
    try:
        vec = np.array([float(v) for v in parts])
    except ValueError:
        raise UsageError(f"{flag} expects numbers, got {text!r}") from None
    if not np.isfinite(vec).all():
        raise UsageError(f"{flag} expects finite numbers, got {text!r}")
    return vec


def _resolve_model(args):
    params = {}
    for item in args.param:
        if "=" not in item:
            raise UsageError(f"--param expects K=V, got {item!r}")
        key, _, value = item.partition("=")
        try:
            params[key] = float(value)
        except ValueError:
            raise UsageError(f"--param {key} expects a number, got {value!r}") from None
    if args.catalog:
        model = catalog(args.catalog, params)
    else:
        try:
            with open(args.model, "r", encoding="utf-8") as fh:
                model = load_model(fh.read())
        except OSError as err:
            raise UsageError(f"cannot read model file: {err}") from None
        if params:
            raise UsageError("--param applies to --catalog models only")
    if args.alpha is not None:
        alpha = args.alpha
        if alpha != "star":
            try:
                alpha = float(alpha)
            except ValueError:
                raise UsageError(f'--alpha expects a number or "star", got {args.alpha!r}') from None
        checked = checked_alpha(UsageError, {}, alpha, model.c, model.k)
        model = replace(model, alpha=checked, alpha_is_star=alpha == "star")
    return model


def _dump(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_inspect(args) -> int:
    model = _resolve_model(args)
    payload = {
        "name": model.name,
        "coords": list(model.coords),
        "params": model.params,
        "alpha": model.alpha,
        "c": model.c,
        "k": model.k,
    }
    if args.x is not None:
        x = _vec(args.x, "--x")
        geo = base_geom.BaseGeometry(model, x, 2)  # a batch of one point: each object's point 0 is read
        g = geo.g.values[0]
        # + 0.0: F_ji is stored as -F_ij, which makes a zero entry -0.0
        f_low = geo.faraday[0].values[0] + 0.0
        payload["at"] = {
            "x": x.tolist(),
            "metric": g.tolist(),
            "det_metric": float(np.linalg.det(g)),
            "signature": list(signature_signs(g)),
            "potential": geo.a_pot.values[0].tolist(),
            "faraday": f_low.tolist(),
            "ricci_scalar": float(geo.ricci_scalar[0]),
        }
    _dump(payload)
    return 0


def _cmd_verify(args) -> int:
    model = _resolve_model(args)
    tiers = {}
    if args.tol_tier1 is not None:
        tiers[1] = args.tol_tier1
    if args.tol_tier2 is not None:
        tiers[2] = args.tol_tier2
    if args.tol_tier3 is not None:
        tiers[3] = args.tol_tier3
    reports = verify.run_suite(model, seed=args.seed, n_points=args.samples, tiers=tiers)
    if args.format == "json":
        print(verify.reports_to_json(reports))
    else:
        print(verify.reports_to_csv(reports), end="")
    failed = [r.check for r in reports if not r.passed]
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_geodesic(args) -> int:
    model = _resolve_model(args)
    x0 = _vec(args.x0, "--x0")
    y0 = _vec(args.y0, "--y0")
    traj = dynamics.integrate_worldline(
        model, x0, y0, t_end=args.t_end, rtol=args.rtol, atol=args.atol
    )
    ts = np.linspace(0.0, args.t_end, args.samples)
    print(dynamics.trajectory_csv(traj, ts), end="")
    return 0


def _cmd_deviation(args) -> int:
    model = _resolve_model(args)
    x0 = _vec(args.x0, "--x0")
    y0 = _vec(args.y0, "--y0")
    w0 = _vec(args.w0, "--w0")
    traj = dynamics.integrate_worldline(
        model, x0, y0, t_end=args.t_end, rtol=args.rtol, atol=args.atol
    )
    kwargs = {}
    if args.W0 is not None:
        kwargs["W0"] = _vec(args.W0, "--W0")
    if args.dw0 is not None:
        kwargs["dw0"] = _vec(args.dw0, "--dw0")
    if not kwargs:
        kwargs["W0"] = np.zeros(4)
    dev = dynamics.integrate_deviation(model, traj, w0, rtol=args.rtol, atol=args.atol, **kwargs)
    ts = np.linspace(0.0, args.t_end, args.samples)
    print(dynamics.trajectory_csv(traj, ts, deviation=dev), end="")
    return 0


def _cmd_theorem1(args) -> int:
    model = _resolve_model(args)
    p = BundlePoint(_vec(args.x, "--x"), _vec(args.y, "--y"))
    dec = {key: value if key == "alpha" else float(value[0])
           for key, value in bundle_geom.ricci_decomposition(BundleGeometry(model, p)).items()}
    dec["quad_closed_form"] = 1.5 * dec["alpha"] ** 2 * dec["f_squared"]
    _dump(dec)
    return 0


def _cmd_efe(args) -> int:
    model = _resolve_model(args)
    p = BundlePoint(_vec(args.x, "--x"), _vec(args.y, "--y"))
    geo = BundleGeometry(model, p)
    ge = bundle_geom.generalized_einstein(geo)
    payload = {
        "alpha": ge["alpha"],
        "r_tilde": float(ge["r_tilde"][0]),
        "variational": ge["variational"][0].tolist(),
        "assembled": ge["assembled"][0].tolist(),
        "difference": float(ge["difference"][0]),
        "max_abs_variational": float(ge["max_abs_variational"][0]),
        "conservation_residual": verify.conservation_residual(geo.base)[0].tolist(),
    }
    _dump(payload)
    return 0


def _cmd_integrate_volume(args) -> int:
    model = _resolve_model(args)
    x = _vec(args.x, "--x")
    ball, ys, w, n_shifted = tm_metric.fiber_rule(model, x, tm_metric.FIBER_NODES)
    payload = {
        "x": x.tolist(),
        "ball_bound": tm_metric.BALL_BOUND,
        "ball_volume": float(np.sum(w)),
        "det_fiber_metric": float(np.linalg.det(ball.v)),
        "det_metric": float(np.linalg.det(ball.g)),
        "det_residual": float(abs(np.linalg.det(ball.v) + np.linalg.det(ball.g))),
        "quadrature": {"nodes": len(ys), "null_cone_shifted": n_shifted},
    }
    if args.box:
        lo, hi = zip(*(span.partition(":")[::2] for span in args.box.split(",")))
        box = list(zip(_vec(",".join(lo), "--box (lo)"), _vec(",".join(hi), "--box (hi)")))
        payload["tm_integral_const"], payload["base_integral_const"] = tm_metric.box_integrals(
            model, box, lambda x_, ys: np.ones(len(ys)), lambda x_: 1.0)
    _dump(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbgrav",
        description="Tangent-bundle gravity + electromagnetism verification engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="print model data and fields at a point")
    _add_model_args(p)
    p.add_argument("--x", help="evaluation point, 4 comma-separated numbers")
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser("verify", help="run the residual check suite")
    _add_model_args(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--samples", type=_count, default=5, help="points per suite")
    p.add_argument("--tol-tier1", type=_tolerance, default=None, help="first-derivative tolerance")
    p.add_argument("--tol-tier2", type=_tolerance, default=None, help="curvature tolerance")
    p.add_argument("--tol-tier3", type=_tolerance, default=None, help="third-derivative tolerance")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("geodesic", help="integrate a charged-particle worldline (CSV)")
    _add_model_args(p)
    p.add_argument("--x0", required=True)
    p.add_argument("--y0", required=True)
    _add_integration_args(p)
    p.set_defaults(fn=_cmd_geodesic)

    p = sub.add_parser("deviation", help="integrate worldline + deviation field (CSV)")
    _add_model_args(p)
    p.add_argument("--x0", required=True)
    p.add_argument("--y0", required=True)
    p.add_argument("--w0", required=True)
    p.add_argument("--W0", default=None, help="covariant initial rate")
    p.add_argument("--dw0", default=None, help="coordinate initial rate")
    _add_integration_args(p)
    p.set_defaults(fn=_cmd_deviation)

    p = sub.add_parser("theorem1", help="scalar-curvature split at a bundle point")
    _add_model_args(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(fn=_cmd_theorem1)

    p = sub.add_parser("efe", help="generalized Einstein tensor at a bundle point")
    _add_model_args(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(fn=_cmd_efe)

    p = sub.add_parser("integrate-volume", help="fiber-ball volume and metric determinants")
    _add_model_args(p)
    p.add_argument("--x", required=True)
    p.add_argument("--box", default=None, help="4 comma-separated lo:hi spans for a box integral")
    p.set_defaults(fn=_cmd_integrate_volume)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return args.fn(args)
    except USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        if isinstance(err, ParseError):
            print(f"  at bytes {err.span}", file=sys.stderr)
        return 2
    except SINGULAR_ERRORS as err:
        print(f"singular evaluation: {err}", file=sys.stderr)
        return 3
    except EngineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
