"""Print one line per generated float kernel of the five catalog models.

    PYTHONPATH=<tree>/src python3 tools/kernel_stats.py

For the worldline kernel (``base_geom._write_spray``) and the deviation kernel
(``bundle_geom._write_deviation``) of each catalog model, without the field
and, where the model has a potential, with it, the line gives

- ``statements``: the statements written into the kernel's body;
- ``parts``: the functions the body is compiled as (one unless it is longer
  than ``exprlang.KERNEL_BLOCK`` statements);
- ``series_calls``: the calls of a ``jets`` series function left in the body,
  each of which builds a list on every call;
- ``compile_ms``: the time CPython takes to compile and define the written
  body (``_KernelWriter.compile``), not the time taken to write it;
- ``us_per_call`` and ``us_iqr``: the median and the interquartile range,
  in microseconds per call, of ``REPEATS`` timings of the kernel at the
  model's base point of ``output_digest.py`` and the digest's fiber vector,
  as the one list s = (x, y) both kernels take, with the worldline kernel's
  couplings (alpha, 0) and the deviation kernel's alpha.  The repeats of the
  spray and deviation kernels of one model and field switch are interleaved,
  so a slow spell of a shared host falls on both, and the median of many
  leaves out its outliers where a best-of-few would not.

Timings depend on the host; the counts depend only on the source.  It lives
outside the package so that importing ``tbgrav`` stays as it was.
"""

from __future__ import annotations

import re
import time
import timeit

import numpy as np

from output_digest import PARAMS, POINTS, Y  # the digest's models, base points and fiber vector
from tbgrav import base_geom, bundle_geom, exprlang
from tbgrav.spacetime import CATALOG_NAMES, catalog

ALPHA = 0.5
REPEATS = 21  # timings per kernel, each of about 20 ms
SERIES_CALL = re.compile(r"\b\w+_series\(")


def written(write, model, alpha):
    """A fresh kernel from ``write`` by ``base_geom.field_kernel`` at the
    coupling alpha (a writer of its own, so not the tape's cached kernel),
    whether the potential entered it, the statements of its body and the
    seconds its compilation took."""
    record = {}
    compile_body = exprlang._KernelWriter.compile

    def timed(self, args, flat, label):
        start = time.perf_counter()
        kernel = compile_body(self, args, flat, label)
        record.update(lines=list(self.lines), seconds=time.perf_counter() - start)
        return kernel

    def fresh(metric, potential):
        record["field"] = potential is not None
        return write(metric, potential)

    exprlang._KernelWriter.compile = timed
    try:
        kernel, _ = base_geom.field_kernel(model, fresh, alpha)
    finally:
        exprlang._KernelWriter.compile = compile_body
    return kernel, record["field"], record["lines"], record["seconds"]


def us_per_call(calls) -> list[tuple[float, float]]:
    """(median, interquartile range) in microseconds per call of each call's
    ``REPEATS`` timings, the calls timed in turn within each repeat."""
    timers = [timeit.Timer(call) for call in calls]
    numbers = [max(1, timer.autorange()[0] // 10) for timer in timers]
    samples = [[] for _ in calls]
    for _ in range(REPEATS):
        for timer, number, sample in zip(timers, numbers, samples):
            sample.append(timer.timeit(number) / number * 1e6)
    return [(float(np.median(sample)), float(np.subtract(*np.percentile(sample, [75, 25])))) for sample in samples]


def main() -> None:
    print("model kernel field statements parts series_calls compile_ms us_per_call us_iqr")
    for name in CATALOG_NAMES:
        model = catalog(name, PARAMS.get(name))
        s = base_geom.fiber_state(POINTS[name], Y)
        for alpha in (0.0, ALPHA):
            rows = []
            for label, write, extra in (("spray", base_geom._write_spray, (alpha, 0.0)),
                                        ("deviation", bundle_geom._write_deviation, (alpha,))):
                kernel, field, lines, seconds = written(write, model, alpha)
                parts = sum(1 for key in kernel.__globals__ if re.fullmatch(r"part\d+", key)) or 1
                series = sum(len(SERIES_CALL.findall(line)) for line in lines)
                rows.append((f"{name} {label} {int(field)} {len(lines)} {parts} {series} {seconds * 1e3:.1f}",
                             lambda kernel=kernel, extra=extra: kernel(s, *extra)))
            if alpha and not field:
                continue  # the potential folds to 0: the same kernels as at alpha 0
            for (row, _), (median, iqr) in zip(rows, us_per_call([call for _, call in rows])):
                print(f"{row} {median:.2f} {iqr:.2f}", flush=True)


if __name__ == "__main__":
    main()
