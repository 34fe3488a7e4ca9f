"""Print each ``src/tbgrav`` module's line count and ``compile()`` memory peak.

    python3 tools/compile_peaks.py

One ``module lines peak_MiB`` line per module, largest peak first, then the
totals.  The peak is tracemalloc's highest traced allocation while CPython
compiles the module's source, as an import does when no bytecode is cached
(``PYTHONDONTWRITEBYTECODE=1``).  Under that setting every fresh import pays
it, so the largest module's peak sets a floor under the benchmark's
``peak_rss_mb`` and the sum of the compile times is most of ``setup_s``.
The numbers depend only on the source and the Python version.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tbgrav"


def compile_peak(path: Path) -> int:
    """Peak traced bytes of compiling the file's source once."""
    source = path.read_bytes()
    tracemalloc.start()
    compile(source, str(path), "exec", dont_inherit=True)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def main() -> None:
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        rows.append((path.name, len(path.read_text().splitlines()), compile_peak(path)))
    rows.sort(key=lambda row: -row[2])
    for name, lines, peak in rows:
        print(f"{name} {lines} {peak / 2**20:.2f}")
    print(f"total {sum(row[1] for row in rows)} max {max(row[2] for row in rows) / 2**20:.2f}")


if __name__ == "__main__":
    main()
