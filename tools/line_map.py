"""Map what in ``src/shadowspec`` tests reach, and what shipped runs reach.

Two sections, both always printed:

1. Lines no test reaches.  Runs ``pytest tests/`` in this process under
   ``sys.settrace`` and compares the lines that ran with each module's
   executable lines, read from its compiled code objects (``co_lines()``,
   nested code included).  One line per module with its unreached line
   numbers, then the total.
2. Functions no shipped run reaches.  Runs the CLI run and then the CLI
   replay of every config in ``configs/``, writing to a temporary directory,
   under a call tracer, and lists per module the named functions (methods and
   nested functions included) whose code never started.  Each of them
   should be a documented entry point in README's table, or kept for a
   stated reason (a test oracle, an error path, a value-type method).

    python tools/line_map.py [extra pytest arguments]

Standard library only, apart from pytest itself.  Tracing slows the suite
about threefold, so tests with wall-clock bounds can fail under it; the map
is printed whatever pytest's exit code is.
"""

from __future__ import annotations

import inspect
import os
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "shadowspec")
CONFIGS = os.path.join(ROOT, "configs")


def _code_objects(path: str):
    """Every code object compiled from the module at ``path``."""
    with open(path, encoding="utf-8") as handle:
        stack = [compile(handle.read(), path, "exec")]
    while stack:
        co = stack.pop()
        yield co
        stack.extend(c for c in co.co_consts if inspect.iscode(c))


def executable_lines(path: str) -> set:
    """Line numbers that carry bytecode in the module at ``path``."""
    return {line for co in _code_objects(path)
            for _, _, line in co.co_lines() if line is not None}


def _is_function(co) -> bool:
    # named functions and methods; not module or class bodies, lambdas or
    # comprehensions, which run or not with the code around them
    return bool(co.co_flags & inspect.CO_OPTIMIZED) \
        and not co.co_name.startswith("<")


def unreached_functions(directory: str, run) -> dict:
    """{module file name: qualified names of functions ``run()`` never calls}.

    Only the ``.py`` files directly in ``directory`` are mapped.  A function
    is keyed by its name and first line, which a decorator does not move.
    """
    reached = set()
    prefix = os.path.join(directory, "")

    def tracer(frame, event, arg):
        co = frame.f_code
        if co.co_filename.startswith(prefix):
            reached.add((co.co_filename, co.co_firstlineno, co.co_name))
        return None

    outer = sys.gettrace(), threading.gettrace()  # the line map's, if any
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])

    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(directory, name)
        out[name] = sorted(
            (co.co_firstlineno, getattr(co, "co_qualname", co.co_name))
            for co in _code_objects(path)
            if _is_function(co)
            and (path, co.co_firstlineno, co.co_name) not in reached)
    return out


def run_configs() -> None:
    """The CLI run and replay of every shipped config, into a scratch directory."""
    from shadowspec.cli import main as cli
    from shadowspec.config import parse_config

    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(os.listdir(CONFIGS)):
            if not name.endswith(".cfg"):
                continue
            path = os.path.join(CONFIGS, name)
            with open(path, encoding="utf-8") as handle:
                kind = parse_config(handle.read()).check["kind"]
            report = os.path.join(scratch, name + ".jsonl")
            cli([kind, "--config", path, "--out", report])
            cli(["replay", report, "--out", report + ".verdicts"])


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

    print("lines no test reaches:")
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        missed = executable_lines(path) - reached.get(path, set())
        total += len(missed)
        print(f"{name}: {len(missed)}" + (f"  {_ranges(missed)}" if missed else ""))
    print(f"total unreached: {total} (pytest exit code {int(status)})")

    print("functions no shipped config's run or replay reaches:")
    unreached = unreached_functions(PACKAGE, run_configs)
    for name, functions in unreached.items():
        print(f"{name}: {len(functions)}"
              + "".join(f"\n  {line} {qualname}" for line, qualname in functions))
    print(f"total unreached functions: "
          f"{sum(len(f) for f in unreached.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
