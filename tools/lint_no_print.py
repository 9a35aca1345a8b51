"""Static lint: no bare ``print()`` in library code under ``src/repro``.

PR 8 gave the repo structured logging (:mod:`repro.obs.log`) and spans
(:mod:`repro.obs.trace`); library modules must use those — a stray
``print`` in the serving or training path corrupts machine-read stdout
(benchmark JSON, rendered artifacts) and bypasses every sink.  This
lint walks every module under the source root and flags ``print(...)``
calls, with two deliberate escapes:

* **CLI modules** — files named ``cli.py`` or ``__main__.py`` exist to
  talk to a human on stdout;
* the marker comment ``# lint: allow-print`` on the line (or the line
  above), for the rare justified exception — the marker forces the
  author to say so out loud.

Docstring examples that *mention* ``print`` are never flagged: the walk
is over AST call nodes, not text.

Usage::

    python tools/lint_no_print.py [src-root]

Exits non-zero listing every violation (CI runs this next to the
atomic-write lint).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Files whose whole purpose is stdout (argparse CLIs).
ALLOWED_FILENAMES = {"cli.py", "__main__.py"}

#: Marker comment that declares one print as intentional.
ALLOW_MARKER = "# lint: allow-print"


def _print_calls(tree: ast.AST):
    """Yield line numbers of ``print(...)`` calls."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield node.lineno


def lint_file(path: Path, rel: str) -> list:
    """Every unmarked bare print in one library module."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    problems = []
    for lineno in _print_calls(ast.parse(source, filename=str(path))):
        window = lines[max(0, lineno - 2) : lineno]
        if any(ALLOW_MARKER in line for line in window):
            continue
        problems.append(
            f"{rel}:{lineno}: bare print() in library code — use "
            f"repro.obs.log.get_logger(...) (or mark the line "
            f"'{ALLOW_MARKER}' if stdout really is the interface)"
        )
    return problems


def main(argv) -> int:
    """Lint every module under ``<src-root>/repro``; 0 = clean."""
    root = Path(argv[1]) if len(argv) > 1 else Path("src")
    package = root / "repro"
    if not package.is_dir():
        print(f"error: {package} is not a directory")
        return 2
    problems = []
    checked = 0
    for path in sorted(package.rglob("*.py")):
        if path.name in ALLOWED_FILENAMES:
            continue
        checked += 1
        rel = str(path.relative_to(root))
        problems.extend(lint_file(path, rel))
    for problem in problems:
        print(problem)
    if problems:
        print(f"\n{len(problems)} bare-print violation(s)")
        return 1
    print(f"no-print lint: {checked} library modules clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
