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
- ``us_per_call``: the best of three timings of the kernel at the model's
  base point of ``output_digest.py`` and the digest's fiber vector, as the
  one list s = (x, y) both kernels take, with the worldline kernel's
  couplings (alpha, 0) and the deviation kernel's coef = -alpha/2, in
  microseconds per call.

Timings depend on the host; the counts depend only on the source.  It lives
outside the package so that importing ``tbgrav`` stays as it was.
"""

from __future__ import annotations

import re
import time
import timeit

from output_digest import PARAMS, POINTS, Y  # the digest's models, base points and fiber vector
from tbgrav import base_geom, bundle_geom, exprlang
from tbgrav.spacetime import CATALOG_NAMES, catalog

ALPHA = 0.5
SERIES_CALL = re.compile(r"\b\w+_series\(")


def written(write, model, potential):
    """A fresh kernel from ``write`` (not the tape's cached one), the statements
    of its body and the seconds its compilation took."""
    record = {}
    compile_body = exprlang._KernelWriter.compile

    def timed(self, args, flat, label):
        start = time.perf_counter()
        kernel = compile_body(self, args, flat, label)
        record.update(lines=list(self.lines), seconds=time.perf_counter() - start)
        return kernel

    exprlang._KernelWriter.compile = timed
    try:
        kernel = write(model.metric_tape, potential)
    finally:
        exprlang._KernelWriter.compile = compile_body
    return kernel, record["lines"], record["seconds"]


def us_per_call(call) -> float:
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    return min(timer.repeat(3, number)) / number * 1e6


def main() -> None:
    print("model kernel field statements parts series_calls compile_ms us_per_call")
    for name in CATALOG_NAMES:
        model = catalog(name, PARAMS.get(name))
        s = base_geom.fiber_state(POINTS[name], Y)
        fields = (False, True) if base_geom.has_field(model, ALPHA) else (False,)
        for label, write, extra in (("spray", base_geom._write_spray, (ALPHA, 0.0)),
                                    ("deviation", bundle_geom._write_deviation, (-0.5 * ALPHA,))):
            for field in fields:
                kernel, lines, seconds = written(write, model, model.potential_tape if field else None)
                parts = sum(1 for key in kernel.__globals__ if re.fullmatch(r"part\d+", key)) or 1
                series = sum(len(SERIES_CALL.findall(line)) for line in lines)
                cost = us_per_call(lambda: kernel(s, *extra))
                print(f"{name} {label} {int(field)} {len(lines)} {parts} {series} {seconds * 1e3:.1f} {cost:.1f}",
                      flush=True)


if __name__ == "__main__":
    main()
