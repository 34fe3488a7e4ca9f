"""tbgrav benchmark: run one seeded workload and report its metrics.

    python3 bench/run.py --workload orbits --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's operations run back to back (one caller, one
thread, a closed loop) for ``--seconds`` seconds, untraced, and the end-to-end
metrics are reported.  With ``--trace 1`` a fixed number of cycles runs once
untraced and once under the layer tracer, and the per-layer metrics of the
traced pass are reported; fixed work makes its call counts exact for a seed.

Every operation's outputs are gated outside the timed region.  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the full report (provenance,
per-kind timings, named figures).  Spans of a traced run are written to
``bench/out/``.  The package is imported from the checkout's ``src``.
"""

import os

# pin BLAS and OpenMP pools to one thread before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from layers import PER_LAYER  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 9
# The host's speed drifts by tens of percent over tens of seconds (wall and
# CPU time alike).  A fixed reference kernel, run between operations, slows
# with it; times scaled by NOMINAL_REFERENCE_S / (reference time) are
# "nominal seconds", the time on a host where the kernel takes 7 ms.
REFERENCE_LOOPS = 2500
NOMINAL_REFERENCE_S = 0.007
PROBE_INTERVAL_S = 0.5


class BenchError(Exception):
    """The benchmark cannot run here (for example, no sources to import)."""


# -- set-up -----------------------------------------------------------------------------


def import_tbgrav():
    """Import ``tbgrav`` afresh from the checkout's ``src``."""
    package = SRC / "tbgrav"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no tbgrav sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "tbgrav" or m.startswith("tbgrav.")]:
        del sys.modules[name]
    tb = importlib.import_module("tbgrav")
    if Path(tb.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported tbgrav from {tb.__file__}, not from {package}")
    return tb


def set_up(workload, repeats: int = SETUP_REPEATS):
    """Import, model construction and first-call warm-up, timed ``repeats`` times.

    Returns the last import, its workload context and the set-up times in wall
    and in nominal seconds (scaled by the reference kernel run on either side).
    """
    wall, nominal = [], []
    host = HostSpeed()
    before = host.sample()
    for _ in range(repeats):
        gc.collect()  # drop the previous import before timing the next
        start = time.perf_counter()
        tb = import_tbgrav()
        ctx = workload.setup(tb)
        wall.append(time.perf_counter() - start)
        after = host.sample()
        nominal.append(wall[-1] * NOMINAL_REFERENCE_S / ((before + after) / 2))
        before = after
    return tb, ctx, {"wall": wall, "nominal": nominal}


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(tb, seed: int) -> dict:
    return {
        "tbgrav_file": tb.__file__,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# -- running ----------------------------------------------------------------------------


def reference_kernel() -> float:
    """Fixed interpreter and small-array work that does not touch tbgrav."""
    a = np.arange(16.0).reshape(4, 4)
    acc = 0.0
    for i in range(REFERENCE_LOOPS):
        b = a * 1.0001 + i
        acc += float(b[1, 2]) + math.sqrt(i)
    return acc


class HostSpeed:
    """Reference kernel times, taken on demand and, inside the context, also
    every PROBE_INTERVAL_S of wall time from a SIGALRM handler, so that long
    operations are scaled by the host speed during them.  ``stolen`` is the
    wall time spent in the handler, which callers take out of their timings.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0
        self._busy = False

    def sample(self) -> float:
        self._busy = True
        try:
            start = time.perf_counter()
            reference_kernel()
            self.samples.append(time.perf_counter() - start)
        finally:
            self._busy = False
        return self.samples[-1]

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        start = time.perf_counter()
        self.sample()
        self.stolen += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = defaultdict(list)  # wall seconds per call
        self.nominal: dict[str, list[float]] = defaultdict(list)  # the same, in nominal seconds
        self.reference: list[float] = []
        self.weights: Counter = Counter()  # calls per kind in one cycle
        self.cycles = 0
        self.first = None  # (op, results) of the first operation
        self.results: list[tuple[str, list]] = []


def run_ops(workload, tb, ctx, seed, deadline=None, cycles=None, tracer=None, keep=False) -> Tally:
    """Run cycles until ``deadline`` (at least one whole cycle) or for ``cycles`` cycles.

    After the first cycle, an operation starts only if its kind's median time
    lets it end by the deadline.  Only the calls are timed and traced; building inputs and gating are not.
    In a timed run the reference kernel also runs between operations and
    during them, and each call is recorded in nominal seconds as well, scaled
    by the median reference time from just before to just after its operation.
    """
    tally = Tally()
    probe = HostSpeed() if deadline is not None else None
    if probe:
        tally.reference = probe.samples
    with probe or contextlib.nullcontext():
        if probe:
            probe.sample()
        _run_cycles(workload, tb, ctx, seed, tally, deadline, cycles, tracer, keep, probe)
    return tally


def _run_cycles(workload, tb, ctx, seed, tally, deadline, cycles, tracer, keep, probe) -> None:
    while cycles is None or tally.cycles < cycles:
        gc.collect()  # every cycle starts from the same heap state, untimed
        ops = workload.cycle(tb, ctx, np.random.default_rng([seed, tally.cycles]))
        if tally.cycles == 0:
            tally.weights = Counter({op.kind: 0 for op in ops})
            for op in ops:
                tally.weights[op.kind] += len(op.calls)
        for op in ops:
            if deadline is not None and tally.cycles > 0:
                # start only what is expected to end by the deadline
                expected = len(op.calls) * statistics.median(tally.samples[op.kind])
                if time.perf_counter() + expected > deadline:
                    return
            results, times, crashed = [], [], False
            first_sample = len(probe.samples) - 1 if probe else 0
            if tracer is not None:
                tracer.on = True
            for call in op.calls:
                stolen = probe.stolen if probe else 0.0
                start = time.perf_counter()
                try:
                    results.append(call() if tracer is None else tracer.operation(op.kind, call))
                except Exception as err:  # a failing operation is counted, not fatal
                    results.append(err)
                    crashed = True
                times.append(time.perf_counter() - start - ((probe.stolen - stolen) if probe else 0.0))
            if tracer is not None:
                tracer.on = False
            tally.samples[op.kind].extend(times)
            if probe:
                probe.sample()
                scale = NOMINAL_REFERENCE_S / statistics.median(probe.samples[first_sample:])
                tally.nominal[op.kind].extend(t * scale for t in times)
            attempted, failed = (1, 1) if crashed else op.check(results)
            tally.attempted += attempted
            tally.failed += failed
            if tally.first is None:
                tally.first = (op, results)
            if keep:
                tally.results.append((op.kind, results))
        tally.cycles += 1


def repeat_check(tally: Tally, results) -> tuple[int, int]:
    """The first operation, run again on the same inputs, must give the same output."""
    return 1, 0 if tally.first[1] == results else 1


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def summarize(workload, tally: Tally) -> dict:
    """Per-kind medians; the cycle cost and named figures in nominal seconds."""
    wall = {kind: statistics.median(v) for kind, v in tally.samples.items()}
    nominal = {kind: statistics.median(v) for kind, v in tally.nominal.items()}
    report = {
        "cycle_s": sum(w * nominal[k] for k, w in tally.weights.items()),
        "cycle_wall_s": sum(w * wall[k] for k, w in tally.weights.items()),
        "reference_s": statistics.median(tally.reference),
        "kinds": {k: {"median_wall_s": wall[k], "median_s": nominal[k], "samples": len(v)}
                  for k, v in tally.samples.items()},
        "named": {name: statistics.fmean(nominal[k] for k in kinds)
                  for name, kinds in workload.named.items() if all(k in nominal for k in kinds)},
        "cycles": tally.cycles,
        "fail_ratio": tally.failed / max(tally.attempted, 1),
    }
    if workload.tail_of:
        pooled = [s for k in workload.named[workload.tail_of] for s in tally.nominal[k]]
        report["named"][workload.tail_of + ".tail"] = tail(pooled)
    return report


def measure(workload, tb, ctx, seed: int, seconds: float):
    """Untraced, time-bounded run: end-to-end figures."""
    tally = run_ops(workload, tb, ctx, seed, deadline=time.perf_counter() + seconds)
    if workload.repeat_first:
        op, _ = tally.first
        attempted, failed = repeat_check(tally, [call() for call in op.calls])
        tally.attempted += attempted
        tally.failed += failed
    return tally, summarize(workload, tally)


def measure_traced(workload, tb, ctx, seed: int):
    """Fixed cycles untraced, then the same cycles traced: per-layer figures."""
    cycles = workload.traced_cycles
    untraced = run_ops(workload, tb, ctx, seed, cycles=cycles)
    tracer = Tracer()
    tracer.install(tb)
    try:
        traced = run_ops(workload, tb, ctx, seed, cycles=cycles, tracer=tracer, keep=True)
    finally:
        tracer.uninstall()
    tally = Tally()
    tally.attempted = untraced.attempted + traced.attempted
    tally.failed = untraced.failed + traced.failed
    if workload.repeat_first:
        attempted, failed = repeat_check(untraced, traced.first[1])
        tally.attempted += attempted
        tally.failed += failed
    wall = {name: sum(sum(v) for v in t.samples.values()) for name, t in (("untraced", untraced), ("traced", traced))}
    extras = workload.layer_extras(traced.results)
    extras["trace.overhead"] = wall["traced"] / wall["untraced"]
    metrics = {name: {"value": fn(tracer, extras), "unit": unit} for name, unit, _, fn in PER_LAYER}
    report = {"wall_s": wall, "cycles": cycles, "spans": len(tracer.spans), "dropped_spans": tracer.dropped_spans,
              "fail_ratio": tally.failed / max(tally.attempted, 1)}
    return tally, tracer, metrics, report


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for span_id, parent, root, label, start, end in tracer.spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "root": root, "name": label,
                                 "start": start, "end": end}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        tb, ctx, setup_times = set_up(workload)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(tb, args.seed), "setup_s_samples": setup_times}
    if args.trace:
        tally, tracer, metrics, details = measure_traced(workload, tb, ctx, args.seed)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        write_spans(tracer, spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        tally, details = measure(workload, tb, ctx, args.seed, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "cycle_s": {"value": details["cycle_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times["nominal"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    report.update(details)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
