"""Print the work and time of the masked jet kernel on one verification suite.

    PYTHONPATH=<tree>/src python3 tools/jet_kernel_stats.py [MODEL.json]

Runs ``verify.run_suite`` (seed 7, 5 points) on the model document given, or
else on the Reissner-Nordström model (M = 1, Q = 0.3, alpha*), with
``jet_arrays._coefficients`` wrapped: once as the process's first suite
(``first``: the tapes are compiled and the kernel's plans built) and then
REPEATS times more (``again``: timings are the median of those runs).
``Tape.jets`` and the dense row product ``jets.mul_rows`` (the tapes'
products and Horner steps) are counted too.
``tools/dense_model.json`` is a model whose jets are dense: every metric and
potential entry depends on the four coordinates.  Each line gives

- ``calls``: kernel calls, and ``points_per_call``: the points of a batch
  each call serves, on average (1 on a tree without a point axis);
- ``terms``: their live terms (neither factor zero at every point of the
  call), and ``products``: each live term times its call's live table
  pairs, for one point; ``max_products``: the most of one call;
- ``built`` and ``hits``: calls that built a plan, and calls that ran a kept
  one (a plan of a call with an inf or NaN, or one larger than
  ``jet_arrays._PLAN_BYTES``, is built and not kept);
- ``kept``, ``plan_kib`` and ``key_kib``: the plans kept after the suite,
  the bytes of their index arrays and of their keys;
- ``build_ms``, ``run_ms`` and ``kernel_ms``: time spent building plans, the
  rest of the kernel's time, and their sum;
- ``tape_runs``: ``Tape.jets`` runs (one per point on a tree whose tapes
  run point by point, one per batch since they take one);
- ``row_calls`` and ``row_points_per_call``: ``jets.mul_rows`` calls and
  the points each serves, on average;
- ``suite_ms``: the suite's wall time less the time this tool spends counting;
- ``peak_rss_mb``: the process's peak resident set size so far.

On a tree without kernel plans the plan columns read ``-`` and ``run_ms`` is
the whole kernel; on one without ``jets.mul_rows`` (its tapes ran on ``Jet``
operators) the row columns read ``-``.  Timings depend on the host; the counts depend only on the
source.  It lives outside the package so that importing ``tbgrav`` stays as
it was.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time

import numpy as np

from tbgrav import exprlang, jet_arrays, jets, load_model, verify
from tbgrav.spacetime import catalog

SEED, POINTS, REPEATS = 7, 5, 5
FIELDS = ("calls", "points_per_call", "terms", "products", "max_products", "built", "hits", "kept", "plan_kib",
          "key_kib", "build_ms", "run_ms", "kernel_ms", "tape_runs", "row_calls", "row_points_per_call", "suite_ms",
          "peak_rss_mb")
TIMES = ("build_ms", "run_ms", "kernel_ms", "suite_ms")
PLANNED = hasattr(jet_arrays, "_plans")
ROWS = hasattr(jets, "mul_rows")


def live_work(space, a, b, ta, tb) -> tuple[int, int, int]:
    """(points, live terms, live products) of one kernel call, from the
    operands' masks over its points.  The operands are (points, rows, S), or
    (rows, S) on a tree whose kernel serves one point per call."""
    a, b = (x.reshape((-1,) + x.shape[-2:]) for x in (a, b))
    terms = int(np.count_nonzero(a.any(axis=(0, 2))[ta] & b.any(axis=(0, 2))[tb]))
    ia, ib, _ = space._mul_table
    products = terms * int(np.count_nonzero(a.any(axis=(0, 1))[ia] & b.any(axis=(0, 1))[ib]))
    return max(len(a), len(b)), terms, products


def instrument(stats: dict) -> None:
    """Wrap the kernel (and its plan builder) to add to ``stats``."""
    kernel = jet_arrays._coefficients

    def counted(space, a, b, ta, tb):
        start = time.perf_counter()
        out = kernel(space, a, b, ta, tb)
        middle = time.perf_counter()
        points, terms, products = live_work(space, a, b, ta, tb)
        stats["calls"] += 1
        stats["points"] += points
        stats["terms"] += terms
        stats["products"] += products
        stats["max_products"] = max(stats["max_products"], products)
        stats["kernel_s"] += middle - start
        stats["count_s"] += time.perf_counter() - middle
        return out

    jet_arrays._coefficients = counted
    if PLANNED:
        build = jet_arrays._plan

        def timed(space, ta, tb, masks):
            start = time.perf_counter()
            plan = build(space, ta, tb, masks)
            stats["build_s"] += time.perf_counter() - start
            stats["built"] += 1
            return plan

        jet_arrays._plan = timed
    tape_jets = exprlang.Tape.jets

    def run(tape, x, order):
        stats["tape_runs"] += 1
        return tape_jets(tape, x, order)

    exprlang.Tape.jets = run
    if ROWS:  # the row product is looked up in jets (Horner steps, powers) and in exprlang's operation table
        mul = jets.mul_rows

        def row_product(space, a, b):
            stats["row_calls"] += 1
            stats["row_points"] += max(len(a), len(b))
            return mul(space, a, b)

        jets.mul_rows = exprlang.mul_rows = exprlang._JET_OPS["*"] = row_product


def one_suite(model, stats: dict) -> dict:
    """The line's figures for one suite."""
    stats.update(dict.fromkeys(("calls", "points", "terms", "products", "max_products", "built", "tape_runs",
                                "row_calls", "row_points"), 0))
    stats.update(dict.fromkeys(("kernel_s", "count_s", "build_s"), 0.0))
    start = time.perf_counter()
    verify.run_suite(model, seed=SEED, n_points=POINTS)
    wall = time.perf_counter() - start
    line = {name: stats[name] for name in ("calls", "terms", "products", "max_products", "tape_runs")}
    line["points_per_call"] = stats["points"] / max(stats["calls"], 1)
    if ROWS:
        line.update(row_calls=stats["row_calls"], row_points_per_call=stats["row_points"] / max(stats["row_calls"], 1))
    line.update(suite_ms=(wall - stats["count_s"]) * 1e3, kernel_ms=stats["kernel_s"] * 1e3,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if PLANNED:
        plans = jet_arrays._plans
        line.update(built=stats["built"], hits=stats["calls"] - stats["built"], kept=len(plans),
                    plan_kib=sum(x.nbytes for plan in plans.values() for x in plan) / 1024,
                    key_kib=sum(len(x) for key in plans for x in key if isinstance(x, bytes)) / 1024,
                    build_ms=stats["build_s"] * 1e3, run_ms=(stats["kernel_s"] - stats["build_s"]) * 1e3)
    else:
        line.update(run_ms=line["kernel_ms"])
    return line


def show(label: str, line: dict) -> None:
    cells = [label]
    for name in FIELDS:
        value = line.get(name)
        cells.append("-" if value is None else f"{value:.1f}" if isinstance(value, float) else str(value))
    print(" ".join(cells), flush=True)


def main() -> None:
    if len(sys.argv) > 1:
        with open(sys.argv[1]) as handle:
            model = load_model(handle.read())
    else:
        model = catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})
    stats: dict = {}
    instrument(stats)
    print("pass " + " ".join(FIELDS))
    show("first", one_suite(model, stats))
    runs = [one_suite(model, stats) for _ in range(REPEATS)]
    again = dict(runs[-1])
    again.update({name: statistics.median(run[name] for run in runs) for name in TIMES if name in again})
    show("again", again)


if __name__ == "__main__":
    main()
