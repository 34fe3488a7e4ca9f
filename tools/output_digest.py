"""Print one ``name digest`` line per tbgrav output, to compare two source trees.

    PYTHONPATH=<tree>/src python3 tools/output_digest.py > <tree>.digest
    diff parent.digest change.digest

The artifacts are the outputs a change that only rearranges computation must
leave byte for byte as they were:

- stdout and exit code of ``tbgrav verify`` on the charged black hole
  (seed 42, 5 samples) as JSON and as CSV;
- the ``max_residual`` of each ``verify.run_suite`` check (same model, seed and
  samples) as ``float.hex``;
- stdout and exit code of ``inspect``, ``theorem1``, ``efe``, ``geodesic``,
  ``deviation`` and ``integrate-volume``;
- SHA-256 of the bytes of ``worldline_rhs``, ``classical_lorentz_rhs`` and
  ``connection_and_tidal_values`` on the five catalog models at alpha 0 and
  0.5, three seeded points each;
- the right-hand-side call count and error text of the Schwarzschild plunge
  from r = 3, which ends in a step-size underflow.

It lives outside the package so that importing ``tbgrav`` stays as it was.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math

import numpy as np

from tbgrav import base_geom, bundle_geom, cli, dynamics, verify
from tbgrav.errors import IntegrationError
from tbgrav.spacetime import CATALOG_NAMES, catalog

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
}
PARAMS = {"uniform_field": {"E0": 0.1}, "schwarzschild": {"M": 1.0},
          "reissner_nordstrom": {"M": 1.0, "Q": 0.3}, "weak_field": {"M": 1.0}}
# a base point per model and one timelike fiber vector for all of them
POINTS = {"minkowski": [0.1, 0.2, -0.3, 0.4], "uniform_field": [0.0, 2.0, 0.5, 0.1],
          "schwarzschild": [0.1, 7.0, 1.1, 0.4], "reissner_nordstrom": [0.0, 5.0, 1.2, 0.3],
          "weak_field": [0.0, 4.0, 3.0, 1.0]}
Y = np.array([1.5, 0.1, 0.02, 0.03])
PLUNGE_X0, PLUNGE_Y0 = [0.0, 3.0, math.pi / 2, 0.0], [2.0, -0.5, 0.0, 0.0]


def sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def command_lines():
    for name, argv in COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        yield f"cli.{name}", f"exit={code} {sha(out.getvalue())}"


def residual_lines():
    model = catalog("reissner_nordstrom", PARAMS["reissner_nordstrom"])
    for report in verify.run_suite(model, seed=42, n_points=5):
        yield f"max_residual.{report.check}", float(report.max_residual).hex()


def rhs_lines():
    rng = np.random.default_rng(7)
    for name in CATALOG_NAMES:
        model = catalog(name, PARAMS.get(name))
        points = [np.array(POINTS[name]) + rng.uniform(-0.05, 0.05, 4) for _ in range(3)]
        for alpha in (0.0, 0.5):
            digests = {"worldline_rhs": hashlib.sha256(), "classical_lorentz_rhs": hashlib.sha256(),
                       "connection_and_tidal_values": hashlib.sha256()}
            for x in points:
                digests["worldline_rhs"].update(dynamics.worldline_rhs(model, x, Y, alpha=alpha).tobytes())
                digests["classical_lorentz_rhs"].update(base_geom.classical_lorentz_rhs(model, x, Y, alpha).tobytes())
                for part in bundle_geom.connection_and_tidal_values(model, x, Y, alpha):
                    digests["connection_and_tidal_values"].update(part.tobytes())
            for fn, digest in digests.items():
                yield f"{fn}.{name}.alpha{alpha}", digest.hexdigest()


def plunge_lines():
    calls = [0]
    rhs = dynamics.worldline_rhs

    def counted(*args, **kwargs):
        calls[0] += 1
        return rhs(*args, **kwargs)

    dynamics.worldline_rhs = counted
    try:
        dynamics.integrate_worldline(catalog("schwarzschild", {"M": 1.0}), PLUNGE_X0, PLUNGE_Y0,
                                     alpha=0.0, t_end=50.0)
        outcome = "finished"
    except IntegrationError as err:
        outcome = repr(str(err))
    finally:
        dynamics.worldline_rhs = rhs
    yield "plunge.rhs_calls", str(calls[0])
    yield "plunge.outcome", outcome


def main() -> None:
    for lines in (command_lines, residual_lines, rhs_lines, plunge_lines):
        for name, digest in lines():
            print(name, digest, flush=True)


if __name__ == "__main__":
    main()
