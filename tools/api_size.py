"""Print the size of tbgrav's source and public surface, to compare two trees.

    python3 tools/api_size.py [<tree>]      (default: this checkout)

Prints the line count of each module of ``<tree>/src/tbgrav`` and their total
(as ``wc -l`` counts them), the number of optional parameters (the defaults
and keyword-only defaults of every ``def`` and ``lambda``), and the names the
package's ``__init__`` imports, which are its exports.  It reads the source
only, so any checkout (a ``git archive`` of another commit, say) can be
measured without importing it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

tree = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
package = tree / "src" / "tbgrav"
total = optional = 0
for path in sorted(package.glob("*.py")):
    source = path.read_bytes()
    lines = source.count(b"\n")
    total += lines
    print(f"{lines:6d} {path.name}")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            optional += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
print(f"{total:6d} total")
print(f"optional parameters: {optional}")
init = ast.parse((package / "__init__.py").read_bytes())
exports = sorted(a.asname or a.name for n in init.body if isinstance(n, ast.ImportFrom) for a in n.names)
print(f"exports ({len(exports)}): {' '.join(exports)}")
