"""Print one ``name digest`` line per tbgrav output, to compare two source trees.

    PYTHONPATH=<tree>/src python3 tools/output_digest.py > <tree>.digest
    diff parent.digest change.digest

The artifacts are the outputs a change that only rearranges computation must
leave byte for byte as they were:

- stdout and exit code of ``tbgrav verify`` on the charged black hole
  (seed 42, 5 samples) as JSON and as CSV;
- the same for ``verify --alpha star --samples 5`` on each of the five
  catalog models and on ``tools/dense_model.json`` (a model whose jets are
  dense, so that its zero masks differ from point to point), at seeds 42
  and 7;
- the ``max_residual`` of each ``verify.run_suite`` check (same model, seed and
  samples) as ``float.hex``;
- stdout and exit code of ``inspect``, ``theorem1``, ``efe``, ``geodesic``,
  ``deviation`` and ``integrate-volume``, of ``integrate-volume`` on
  ``tools/dense_model.json`` (whose fiber metric is not diagonal, so the
  line pins the ball's change of variables), and of ``inspect`` on each of
  the five catalog models at its base point in ``POINTS``;
- SHA-256 of the bytes of ``worldline_rhs``, ``classical_lorentz_rhs`` and
  ``connection_and_tidal_values`` on the five catalog models at alpha 0 and
  0.5, three seeded points each, and on the charged black hole in ingoing
  Eddington-Finkelstein coordinates (``rn_ingoing_ef``, loaded from its model
  document), whose metric has off-diagonal entries and a zero diagonal one;
- on the jet route, at the same points: SHA-256 of the order, variable count
  and coefficient bytes (at the array's lowest order) of every jet of ``BaseGeometry(model, x, 4)``'s
  ``ginv``, ``gamma``, ``riemann``, ``ricci``, ``einstein_maxwell`` and
  ``sqrt_minus_det``, and of
  ``BundleGeometry``'s ``n_conn``, ``berwald`` and ``tidal`` at alpha 0 and
  0.5, with the bytes of its ``b_hessian`` and the ``float.hex`` of its
  ``div_term``, ``quad_term`` and ``d_ricci_scalar`` (a tree whose joint
  space keeps other monomials digests other coefficient rows here;
  ``tools/held_coefficients.py`` compares the coefficients both keep);
- the integrator's right-hand-side call count (every call of the ``rhs``
  handed to ``dynamics._integrate``, one that raises included) and the error
  text of the Schwarzschild plunge from r = 3, which ends in a step-size
  underflow;
- the ``float.hex`` of ``neighbor_oracle`` at eps = 1e-4 and 5e-5 on
  Schwarzschild (alpha 0) and the charged black hole (alpha 0.5), on the
  deviation benchmark's orbit to t = 10 with the centres of its seeded
  deviation data; the ratio of the two is the benchmark's gate.

It lives outside the package so that importing ``tbgrav`` stays as it was.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from tbgrav import base_geom, bundle_geom, cli, dynamics, verify
from tbgrav.base_geom import BaseGeometry
from tbgrav.bundle_geom import BundleGeometry
from tbgrav.errors import IntegrationError
from tbgrav.spacetime import CATALOG_NAMES, catalog, load_model

RN = ["--catalog", "reissner_nordstrom", "--param", "M=1", "--param", "Q=0.3"]
X_RN, Y_RN = ["--x", "0,5,1.2,0.5"], ["--y", "1.4,0,0,0.02"]
ORBIT = ["--x0", "0,10,1.5707963,0", "--y0", "1,0.005,0,0.031"]
COMMANDS = {
    "verify.json": ["verify", *RN, "--alpha", "star", "--seed", "42", "--samples", "5", "--format", "json"],
    "verify.csv": ["verify", *RN, "--alpha", "star", "--seed", "42", "--samples", "5", "--format", "csv"],
    "inspect": ["inspect", *RN, *X_RN],
    "theorem1": ["theorem1", *RN, "--alpha", "star", *X_RN, *Y_RN],
    "efe": ["efe", *RN, "--alpha", "star", *X_RN, *Y_RN],
    "geodesic": ["geodesic", *RN, "--alpha", "0.5", *ORBIT, "--t-end", "20"],
    "deviation": ["deviation", "--catalog", "schwarzschild", "--param", "M=1", "--alpha", "0", *ORBIT,
                  "--w0", "0,0.5,0.3,0", "--W0", "0,0,0,0.01"],
    "integrate-volume": ["integrate-volume", *RN, "--x", "0,10,1.5707963,0.3", "--box", "0:1,6:7,1:2,0:1"],
    "integrate-volume.dense": ["integrate-volume", "--model", str(Path(__file__).with_name("dense_model.json")),
                               "--x", "0.1,0.2,-0.3,0.4", "--box", "0:0.2,0:0.2,-0.2:0,0:0.2"],
}
PARAMS = {"uniform_field": {"E0": 0.1}, "schwarzschild": {"M": 1.0},
          "reissner_nordstrom": {"M": 1.0, "Q": 0.3}, "weak_field": {"M": 1.0}}
# a base point per model and one timelike fiber vector for all of them
POINTS = {"minkowski": [0.1, 0.2, -0.3, 0.4], "uniform_field": [0.0, 2.0, 0.5, 0.1],
          "schwarzschild": [0.1, 7.0, 1.1, 0.4], "reissner_nordstrom": [0.0, 5.0, 1.2, 0.3],
          "weak_field": [0.0, 4.0, 3.0, 1.0], "rn_ingoing_ef": [0.0, 5.0, 1.2, 0.3]}
Y = np.array([1.5, 0.1, 0.02, 0.03])
# ds^2 = f dv^2 - 2 dv dr - r^2 dOmega^2, f = 1 - 2M/r + Q^2/r^2, A = (Q/r) dv
RN_INGOING_EF = json.dumps({
    "name": "rn_ingoing_ef", "coords": ["v", "r", "theta", "phi"], "params": {"M": 1.0, "Q": 0.3},
    "metric": [["1 - 2*M/r + Q^2/r^2", "-1", "0", "0"], ["-1", "0", "0", "0"],
               ["0", "0", "-r^2", "0"], ["0", "0", "0", "-r^2*sin(theta)^2"]],
    "potential": ["Q/r", "0", "0", "0"],
    "chart_guard": "r + sin(theta) - sqrt(r^2 + sin(theta)^2)",
})
PLUNGE_X0, PLUNGE_Y0 = [0.0, 3.0, math.pi / 2, 0.0], [2.0, -0.5, 0.0, 0.0]
ORACLE_X0, ORACLE_Y0 = [0.0, 10.0, math.pi / 2, 0.0], [1.0, 0.005, 0.0, 0.98 * math.sqrt(1e-3)]
ORACLE_W0, ORACLE_BIG_W0 = [0.0, 0.5, 0.3, 0.0], [0.0, 0.0, 0.0, 0.01]
BASE_JETS = ("g", "ginv", "a_pot", "gamma", "riemann", "ricci", "einstein_maxwell", "sqrt_minus_det")
BUNDLE_JETS = ("n_conn", "berwald", "tidal", "norm2", "norm", "inv_norm", "b_trace2", "b_scalar")


def sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def inspect_argv(name: str) -> list[str]:
    params = [arg for key, value in PARAMS.get(name, {}).items() for arg in ("--param", f"{key}={value}")]
    return ["inspect", "--catalog", name, *params, "--x", ",".join(map(str, POINTS[name]))]


def command_lines():
    commands = COMMANDS | {f"inspect.{name}": inspect_argv(name) for name in CATALOG_NAMES}
    for name, argv in commands.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        yield f"cli.{name}", f"exit={code} {sha(out.getvalue())}"


def verify_lines():
    models = {name: ["--catalog", name, *(arg for key, value in PARAMS.get(name, {}).items()
                                          for arg in ("--param", f"{key}={value}"))] for name in CATALOG_NAMES}
    models["dense"] = ["--model", str(Path(__file__).with_name("dense_model.json"))]
    for name, source in models.items():
        for seed in (42, 7):
            for fmt in ("json", "csv"):
                out = io.StringIO()
                argv = ["verify", *source, "--alpha", "star", "--samples", "5", "--seed", str(seed), "--format", fmt]
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                yield f"verify.{name}.seed{seed}.{fmt}", f"exit={code} {sha(out.getvalue())}"


def residual_lines():
    model = catalog("reissner_nordstrom", PARAMS["reissner_nordstrom"])
    for report in verify.run_suite(model, seed=42, n_points=5):
        yield f"max_residual.{report.check}", float(report.max_residual).hex()


def seeded_points(names=CATALOG_NAMES, seed=7):
    rng = np.random.default_rng(seed)
    return {name: [np.array(POINTS[name]) + rng.uniform(-0.05, 0.05, 4) for _ in range(3)] for name in names}


def rhs_lines():
    models = {name: catalog(name, PARAMS.get(name)) for name in CATALOG_NAMES}
    models["rn_ingoing_ef"] = load_model(RN_INGOING_EF)
    points = seeded_points() | seeded_points(["rn_ingoing_ef"], seed=8)
    for name, model in models.items():
        for alpha in (0.0, 0.5):
            digests = {"worldline_rhs": hashlib.sha256(), "classical_lorentz_rhs": hashlib.sha256(),
                       "connection_and_tidal_values": hashlib.sha256()}
            for x in points[name]:
                digests["worldline_rhs"].update(dynamics.worldline_rhs(model, x, Y, alpha=alpha).tobytes())
                digests["classical_lorentz_rhs"].update(base_geom.classical_lorentz_rhs(model, x, Y, alpha).tobytes())
                for part in bundle_geom.connection_and_tidal_values(model, x, Y, alpha):
                    digests["connection_and_tidal_values"].update(part.tobytes())
            for fn, digest in digests.items():
                yield f"{fn}.{name}.alpha{alpha}", digest.hexdigest()


def jet_bytes(arr) -> bytes:
    """Order, variable count and coefficient bytes of every jet of a jet
    array (of a batch of one point), each at the array's lowest order.  A
    ``JetArray`` holds one order; the object arrays of jets of older trees
    held the diagonal zeros of r^i_jkl and F_ij one order above the other
    entries, which every consumer truncated away."""
    jets = list(arr.flat)
    order = min(j.order for j in jets)
    return b"".join(bytes([order, j.nvars]) + j.truncate(order).c.tobytes() for j in jets)


def jet_route_lines():
    for name, points in seeded_points().items():
        model = catalog(name, PARAMS.get(name))
        digests = {attr: hashlib.sha256() for attr in BASE_JETS}
        for x in points:
            base = BaseGeometry(model, x, 4)
            for attr in BASE_JETS:
                digests[attr].update(jet_bytes(getattr(base, attr)))
        for attr, digest in digests.items():
            yield f"BaseGeometry.{attr}.{name}", digest.hexdigest()
        for alpha in (0.0, 0.5):
            digests = {attr: hashlib.sha256() for attr in (*BUNDLE_JETS, "b_hessian")}
            scalars = {attr: [] for attr in ("div_term", "quad_term", "d_ricci_scalar")}
            for x in points:
                geo = BundleGeometry(model, (x, Y), alpha=alpha)
                for attr in BUNDLE_JETS:
                    digests[attr].update(jet_bytes(getattr(geo, attr)))
                digests["b_hessian"].update(geo.b_hessian.tobytes())
                for attr, values in scalars.items():
                    values.append(float(getattr(geo, attr)[0]).hex())
            for attr, digest in digests.items():
                yield f"BundleGeometry.{attr}.{name}.alpha{alpha}", digest.hexdigest()
            for attr, values in scalars.items():
                yield f"BundleGeometry.{attr}.{name}.alpha{alpha}", " ".join(values)


def plunge_lines():
    calls = [0]
    integrate = dynamics._integrate

    def counted(rhs, *args, **kwargs):
        def counted_rhs(t, state):
            calls[0] += 1
            return rhs(t, state)

        return integrate(counted_rhs, *args, **kwargs)

    dynamics._integrate = counted
    try:
        dynamics.integrate_worldline(catalog("schwarzschild", {"M": 1.0}), PLUNGE_X0, PLUNGE_Y0,
                                     alpha=0.0, t_end=50.0)
        outcome = "finished"
    except IntegrationError as err:
        outcome = repr(str(err))
    finally:
        dynamics._integrate = integrate
    yield "plunge.rhs_calls", str(calls[0])
    yield "plunge.outcome", outcome


def oracle_lines():
    for name, alpha in (("schwarzschild", 0.0), ("reissner_nordstrom", 0.5)):
        model = catalog(name, PARAMS[name])
        for eps in (1e-4, 5e-5):
            err = dynamics.neighbor_oracle(model, ORACLE_X0, ORACLE_Y0, w0=ORACLE_W0, W0=ORACLE_BIG_W0, eps=eps,
                                           alpha=alpha, t_end=10.0)
            yield f"neighbor_oracle.{name}.eps{eps!r}", err.hex()


def main() -> None:
    for lines in (command_lines, verify_lines, residual_lines, rhs_lines, jet_route_lines, plunge_lines, oracle_lines):
        for name, digest in lines():
            print(name, digest, flush=True)


if __name__ == "__main__":
    main()
