"""Print the integrator's counts for every integration of one benchmark cycle.

    PYTHONPATH=<tree>/src python3 tools/integrator_stats.py [--seed N]

Runs the first cycle (``np.random.default_rng([N, 0])``, as ``bench/run.py``
draws it; N defaults to 1) of the ``orbits``, ``deviation`` and ``plunge``
workloads of ``bench/workloads.py`` with ``dynamics._integrate`` wrapped, and
prints one JSON line per integration:

- ``workload`` and ``op``: the workload and its operation kind (``base.*``
  for a deviation's stored base worldline, integrated outside the timed
  calls), ``t_end`` and ``end``: the time asked for and the end reached, or
  the ``IntegrationError`` text;
- ``n_rhs``, ``n_steps``, ``n_rejected``, ``n_singular_retries`` and ``h_min``:
  the ``Trajectory``'s counts.  The plunge returns none, so its counts are
  read from the calls of its right-hand side and its guard (which runs once
  per accepted step), and ``h_min`` from the accepted times; the same reading
  is checked against the counts of every guarded integration that returns.

It lives outside the package so that importing ``tbgrav`` stays as it was.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

import tbgrav as tb
from tbgrav import dynamics

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from bench.workloads import WORKLOADS  # noqa: E402  (the benchmark's own inputs)

FIELDS = ("n_rhs", "n_steps", "n_rejected", "n_singular_retries", "h_min")


class Reading:
    """The counts of one guarded integration, read from its calls: each
    attempted step makes up to six RHS calls after the first call and the
    start rule's probe, and ends in a raising call (a singular retry), the
    guard (accepted) or a seventh call, or the end, after six (rejected)."""

    def __init__(self, t_end: float):
        self.ahead = 2 if t_end > 0 else 1  # the first call and the probe
        self.n_rhs = self.n_steps = self.n_rejected = self.n_singular_retries = self.run = 0
        self.t, self.h_min = 0.0, math.inf

    def call(self, ok: bool) -> None:
        if self.ahead:
            self.ahead -= 1
            self.n_rhs += ok
            return
        if self.run == 6:
            self.n_rejected, self.run = self.n_rejected + 1, 0
        if ok:
            self.n_rhs, self.run = self.n_rhs + 1, self.run + 1
        else:
            self.n_singular_retries, self.run = self.n_singular_retries + 1, 0

    def accept(self, t: float) -> None:
        self.n_steps, self.run = self.n_steps + 1, 0
        self.h_min, self.t = min(self.h_min, t - self.t), t

    def counts(self) -> dict:
        rejected = self.n_rejected + (self.run == 6)
        return {"n_rhs": self.n_rhs, "n_steps": self.n_steps, "n_rejected": rejected,
                "n_singular_retries": self.n_singular_retries, "h_min": self.h_min}


def recorded(integrate, lines: list, label: list):
    """``integrate`` (``dynamics._integrate``) appending one line per
    integration to ``lines``, under the operation kind ``label[0]``."""

    def wrapped(rhs, y0, t_end, rtol, atol, guard=None):
        line = {"op": label[0], "t_end": t_end}
        reading = Reading(t_end)

        def counted_rhs(t, y):
            try:
                f = rhs(t, y)
            except Exception:
                reading.call(False)
                raise
            reading.call(True)
            return f

        def counted_guard(t, y):
            reading.accept(t)
            guard(t, y)

        try:
            traj = integrate(counted_rhs, y0, t_end, rtol, atol, None if guard is None else counted_guard)
        except tb.IntegrationError as err:
            lines.append({**line, "end": str(err), **reading.counts()})
            raise
        counts = {name: getattr(traj, name) for name in FIELDS}
        read = reading.counts()
        if guard is not None and not (math.isclose(read.pop("h_min"), traj.h_min, rel_tol=1e-9)
                                      and read == {name: counts[name] for name in read}):
            raise RuntimeError(f"the calls read {reading.counts()}, the trajectory has {counts}")
        lines.append({**line, "end": traj.t_end, **counts})
        return traj

    return wrapped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    integrate = dynamics._integrate
    for name in ("orbits", "deviation", "plunge"):
        workload, lines, label = WORKLOADS[name], [], ["base"]
        dynamics._integrate = recorded(integrate, lines, label)
        try:
            ctx = workload.setup(tb)
            # the deviation cycle integrates its base worldlines, one per model, as it is built
            ops = workload.cycle(tb, ctx, np.random.default_rng([args.seed, 0]))
            for line, model in zip(lines, ctx["models"] if name == "deviation" else ()):
                line["op"] += "." + model
            for op in ops:
                label[0] = op.kind
                for call in op.calls:
                    call()
        finally:
            dynamics._integrate = integrate
        for line in lines:
            print(json.dumps({"workload": name, **line}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
