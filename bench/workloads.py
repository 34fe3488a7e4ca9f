"""Workloads of the tbgrav benchmark: seeded inputs, timed operations, output gates.

A workload builds its models once (``setup``) and then hands out cycles of
operations (``cycle``).  Each cycle is drawn from its own generator, derived
from the benchmark seed and the cycle index, so the same seed gives the same
inputs.  An operation is one or more timed calls into ``tbgrav`` plus a gate
that inspects their results outside the timed region.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Op:
    """One gated operation: ``calls`` are timed one by one under ``kind``;
    ``check`` sees their results and returns (attempted, failed)."""

    kind: str
    calls: tuple[Callable[[], object], ...]
    check: Callable[[list], tuple[int, int]]


def _passes(ok: bool) -> tuple[int, int]:
    return 1, 0 if ok else 1


def _warm_jet_spaces(tb, orders, nvars) -> None:
    """Build the lazily cached jet multiplication and shift tables."""
    for n in nvars:
        for order in orders:
            space = tb.jets.jet_space(order, n)
            if order >= 1:
                for var in range(n):
                    space.shift_table(var)


def _schwarzschild(tb):
    return tb.catalog("schwarzschild", {"M": 1.0})


def _reissner_nordstrom(tb):
    return tb.catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})


class Workload:
    name: str
    why: str
    # end-to-end figure -> operation kinds whose medians it averages
    named: dict[str, tuple[str, ...]]
    # the figure that also gets a tail percentile
    tail_of: str | None = None
    # cycles run by the traced pass (fixed, so its counts are exact)
    traced_cycles: int = 1
    # whether the first operation is run twice and must give the same output
    repeat_first: bool = False

    def setup(self, tb):
        raise NotImplementedError

    def cycle(self, tb, ctx, rng) -> list[Op]:
        raise NotImplementedError

    def layer_extras(self, results: list[tuple[str, list]]) -> dict:
        """Per-layer figures read from the traced pass's outputs."""
        return {}


# -- verify_rn --------------------------------------------------------------------------

VERIFY_ARGV = [
    "verify", "--catalog", "reissner_nordstrom", "--param", "M=1", "--param", "Q=0.3",
    "--alpha", "star", "--samples", "5", "--format", "json",
]
VERIFY_SAMPLES = 5
_SKIPPED = re.compile(r"(\d+) point\(s\) skipped")


def run_cli(cli, argv) -> tuple[int, str]:
    """In-process ``tbgrav`` command with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def verify_counts(code: int, payload: str) -> tuple[int, int, dict]:
    """Gate one verify suite: an operation is a requested (check, point) pair.

    A pair fails when its check did not pass or when its point was skipped.
    Returns (attempted, failed, totals) where totals holds the evaluated,
    skipped and failed-check counts.
    """
    try:
        reports = json.loads(payload)
    except json.JSONDecodeError:
        return VERIFY_SAMPLES, VERIFY_SAMPLES, {"evaluated": 0, "skipped": 0, "checks_failed": 1}
    attempted = failed = evaluated = skipped_total = checks_failed = 0
    for report in reports:
        if "skipped" in report:
            skipped = int(report["skipped"])
        else:
            match = _SKIPPED.search(report.get("notes", ""))
            skipped = int(match.group(1)) if match else 0
        done = len(report["residuals"])
        requested = max(done + skipped, 1)
        attempted += requested
        evaluated += done
        skipped_total += skipped
        if report["passed"]:
            failed += skipped
        else:
            failed += requested
            checks_failed += 1
    if code != 0 and failed == 0:
        attempted, failed = attempted + 1, 1
    totals = {"evaluated": evaluated, "skipped": skipped_total, "checks_failed": checks_failed}
    return attempted, failed, totals


class VerifyRN(Workload):
    name = "verify_rn"
    why = (
        "tbgrav verify on the charged black hole: order-4 curvature ladder, generalized Einstein "
        "tensor, order-3 divergence and fiber quadrature; no integrator"
    )
    named = {"verify_suite_s": ("suite",)}
    repeat_first = True

    def setup(self, tb):
        _warm_jet_spaces(tb, range(5), (4, 8))
        _reissner_nordstrom(tb)
        return importlib.import_module(tb.__name__ + ".cli")

    def cycle(self, tb, ctx, rng):
        argv = VERIFY_ARGV + ["--seed", str(int(rng.integers(0, 2**31)))]

        def check(results):
            attempted, failed, _ = verify_counts(*results[0])
            return attempted, failed

        return [Op("suite", (lambda: run_cli(ctx, argv),), check)]

    def layer_extras(self, results):
        totals = Counter()
        for _, (outcome,) in results:
            totals.update(verify_counts(*outcome)[2])
        return {f"verify.{k}": v for k, v in totals.items()}


# -- orbits -----------------------------------------------------------------------------

ORBIT_T_END = 100.0
CLASSICAL_T_END = 10.0
NORM_DRIFT_TOL = 1e-8
CLASSICAL_GAP_TOL = 1e-8


def near_circular(rng, r_mid: float = 10.0):
    """Equatorial start near a circular orbit of the M=1 hole at r ~ r_mid."""
    r0 = r_mid + rng.uniform(-0.5, 0.5)
    omega = math.sqrt(1.0 / r0**3)
    x0 = np.array([0.0, r0, math.pi / 2, 0.0])
    y0 = np.array([1.0, rng.uniform(-0.005, 0.005), rng.uniform(-2e-4, 2e-4),
                   rng.uniform(0.97, 0.99) * omega])
    return x0, y0


class Orbits(Workload):
    name = "orbits"
    why = (
        "bound worldlines to t=100 (Schwarzschild and RN) plus RN compare_classical: many cheap "
        "RHS calls on order-0/1 4-variable jets, no BundleGeometry"
    )
    named = {
        "worldline_s": ("worldline.schwarzschild", "worldline.rn"),
        "classical_s": ("classical.rn",),
    }
    tail_of = "worldline_s"
    traced_cycles = 2

    def setup(self, tb):
        _warm_jet_spaces(tb, range(2), (4,))
        schw, rn = _schwarzschild(tb), _reissner_nordstrom(tb)
        x0, y0 = near_circular(np.random.default_rng(0))
        for model in (schw, rn):
            tb.dynamics.worldline_rhs(model, x0, y0, alpha=0.5)
        return schw, rn

    def cycle(self, tb, ctx, rng):
        schw, rn = ctx
        dyn = tb.dynamics
        ops = []
        for kind, model, alpha in (("worldline.schwarzschild", schw, 0.0), ("worldline.rn", rn, 0.5)):
            x0, y0 = near_circular(rng)

            def call(model=model, alpha=alpha, x0=x0, y0=y0):
                return dyn.integrate_worldline(model, x0, y0, alpha=alpha, t_end=ORBIT_T_END)

            def check(results, model=model):
                traj = results[0]
                reached = abs(traj.t_end - ORBIT_T_END) < 1e-9
                return _passes(reached and dyn.norm_drift(model, traj) <= NORM_DRIFT_TOL)

            ops.append(Op(kind, (call,), check))
        x0, y0 = near_circular(rng)
        ops.append(Op(
            "classical.rn",
            (lambda: dyn.compare_classical(rn, x0, y0, alpha=0.5, t_end=CLASSICAL_T_END),),
            lambda results: _passes(results[0] <= CLASSICAL_GAP_TOL),
        ))
        return ops


# -- deviation --------------------------------------------------------------------------

ORACLE_T_END = 10.0
ORACLE_EPS = 1e-4
ORACLE_RATIO = (1.7, 2.3)
# the perturbed near-circular orbit at r=10 of the dynamics tests
DEVIATION_X0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
DEVIATION_Y0 = np.array([1.0, 0.005, 0.0, 0.98 * math.sqrt(1e-3)])


class Deviation(Workload):
    name = "deviation"
    why = (
        "neighbor_oracle (eps and eps/2) and integrate_deviation to t=10: an order-2 8-variable "
        "BundleGeometry and a dense-output sample on every RHS call"
    )
    named = {
        "oracle_s": ("oracle.schwarzschild", "oracle.rn"),
        "deviation_s": ("deviation.schwarzschild", "deviation.rn"),
    }

    def setup(self, tb):
        _warm_jet_spaces(tb, range(3), (4, 8))
        models = {"schwarzschild": (_schwarzschild(tb), 0.0), "rn": (_reissner_nordstrom(tb), 0.5)}
        for model, alpha in models.values():
            tb.BundleGeometry(model, tb.BundlePoint(DEVIATION_X0, DEVIATION_Y0), order=2, alpha=alpha).tidal
        return {"models": models, "bases": {}}

    def cycle(self, tb, ctx, rng):
        # The base orbit is fixed and the seed draws the deviation data, so the
        # step counts, and with them the cost, barely depend on the seed.
        dyn = tb.dynamics
        ops = []
        for label, (model, alpha) in ctx["models"].items():
            w0 = np.array([0.0, rng.uniform(0.4, 0.6), rng.uniform(0.2, 0.4), 0.0])
            big_w0 = np.array([0.0, 0.0, 0.0, rng.uniform(0.008, 0.012)])

            def oracle(eps, model=model, alpha=alpha, w0=w0, big_w0=big_w0):
                return lambda: dyn.neighbor_oracle(
                    model, DEVIATION_X0, DEVIATION_Y0, w0=w0, W0=big_w0, eps=eps, alpha=alpha,
                    t_end=ORACLE_T_END,
                )

            def ratio_check(results):
                e1, e2 = results
                return _passes(e2 > 0 and ORACLE_RATIO[0] <= e1 / e2 <= ORACLE_RATIO[1])

            ops.append(Op(f"oracle.{label}", (oracle(ORACLE_EPS), oracle(ORACLE_EPS / 2)), ratio_check))

            # the stored base worldline is integrated once, outside the timed calls
            if label not in ctx["bases"]:
                ctx["bases"][label] = dyn.integrate_worldline(
                    model, DEVIATION_X0, DEVIATION_Y0, alpha=alpha, t_end=ORACLE_T_END
                )
            base = ctx["bases"][label]
            dw0 = 0.2 * w0
            dbig_w0 = 0.1 * big_w0

            def deviation(model=model, alpha=alpha, base=base, w0=dw0, big_w0=dbig_w0):
                return dyn.integrate_deviation(model, base, w0, W0=big_w0, alpha=alpha)

            def deviation_check(results, base=base):
                dev = results[0]
                reached = abs(dev.t_end - base.t_end) < 1e-9
                return _passes(reached and bool(np.all(np.isfinite(dev.states))))

            ops.append(Op(f"deviation.{label}", (deviation,), deviation_check))
        # the cheap deviations first, so a run that ends mid-cycle still times both models
        return sorted(ops, key=lambda op: not op.kind.startswith("deviation."))


# -- plunge -----------------------------------------------------------------------------

PLUNGE_T_END = 50.0
PLUNGE_X0 = np.array([0.0, 3.0, math.pi / 2, 0.0])
PLUNGE_Y0 = np.array([2.0, -0.5, 0.0, 0.0])


class Plunge(Workload):
    name = "plunge"
    why = (
        "near-radial Schwarzschild infall from r=3 (seeded azimuth) that must end in IntegrationError: "
        "the integrator's rejection, retry and step-underflow path"
    )
    named = {"chart_exit_s": ("plunge",)}

    def setup(self, tb):
        _warm_jet_spaces(tb, range(2), (4,))
        schw = _schwarzschild(tb)
        tb.dynamics.worldline_rhs(schw, PLUNGE_X0, PLUNGE_Y0)
        return schw

    def cycle(self, tb, ctx, rng):
        # The seed rotates the infall about the axis.  By symmetry the step
        # sequence, and so the cost, does not depend on the angle (kept below
        # the start radius, which sets the first step).  The start radius is
        # fixed because the cost is chaotic in it (24k to 39k RHS calls over
        # r in [3, 4]), which one or two infalls a run cannot average out.
        schw = ctx
        x0 = PLUNGE_X0 + np.array([0.0, 0.0, 0.0, rng.uniform(0.0, 2.5)])

        def call():
            try:
                tb.dynamics.integrate_worldline(schw, x0, PLUNGE_Y0, alpha=0.0, t_end=PLUNGE_T_END)
            except tb.IntegrationError as err:
                return err.with_traceback(None)  # keep no frames (and their arrays) alive
            return None

        return [Op("plunge", (call,), lambda results: _passes(isinstance(results[0], tb.IntegrationError)))]


WORKLOADS = {w.name: w for w in (VerifyRN(), Orbits(), Deviation(), Plunge())}
