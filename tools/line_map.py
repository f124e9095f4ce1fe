"""Print the executable lines of ``src/shadowspec`` that no test reaches.

Runs ``pytest tests/`` in this process under ``sys.settrace`` and compares
the lines that ran with each module's executable lines, read from its
compiled code objects (``co_lines()``, nested code included).  Prints one
line per module with its unreached line numbers, then the total.

    python tools/line_map.py [extra pytest arguments]

Standard library only, apart from pytest itself.  Tracing slows the suite
about threefold, so tests with wall-clock bounds can fail under it; the map
is printed whatever pytest's exit code is.
"""

from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "shadowspec")


def executable_lines(path: str) -> set:
    """Line numbers that carry bytecode in the module at ``path``."""
    with open(path, encoding="utf-8") as handle:
        code = compile(handle.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line is not None)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(lines) -> str:
    out, run = [], []
    for line in sorted(lines):
        if run and line != run[-1] + 1:
            out.append(run)
            run = []
        run.append(line)
    if run:
        out.append(run)
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}"
                     for r in out)


def main(argv: list) -> int:
    import pytest

    reached = {}

    def local(frame, event, arg):
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        reached.setdefault(path, set()).add(frame.f_lineno)
        return local

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests/", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        missed = executable_lines(path) - reached.get(path, set())
        total += len(missed)
        print(f"{name}: {len(missed)}" + (f"  {_ranges(missed)}" if missed else ""))
    print(f"total unreached: {total} (pytest exit code {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
