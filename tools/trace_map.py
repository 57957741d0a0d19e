"""List the package's statements that a run never reaches.

Runs a module or a script in this process, under ``sys.settrace`` and
``threading.settrace``, and records the lines executed in frames whose file
lies under ``src/l1sample/``.  Then it prints ``file:line: statement`` for
every statement of those files that no traced frame reached.  Docstrings,
``def`` and ``class`` headers, imports and ``try`` headers are left out; a
statement counts as reached when any line of it ran (for a compound
statement, any line of its body too).  Run from the repository root:

    PYTHONPATH=src python tools/trace_map.py -m pytest -q tests
    PYTHONPATH=src python tools/trace_map.py tools/dump_outputs.py
    PYTHONPATH=src python tools/trace_map.py perfbench/run.py --workload rates-chebyshev --seed 1 --seconds 1 --trace 0

The last is the workload traffic map: one round of a benchmark workload
(phase-table, rates-chebyshev or torus2d-fit in turn).

Only this process is traced.  Runs in subprocesses are not: the test of the
installed console script, or a run of ``python -m l1sample.cli``, counts for
nothing here, so a statement only such a run reaches is listed.

The exit code is the run's own (a failing test suite still prints its map).
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import runpy
import sys
import threading

from line_count import docstrings  # tools/, this script's directory, is on the path

_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "l1sample"

# statements whose own line says nothing about the code that ran
_LEFT_OUT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
             ast.Try)


def unreached(path: pathlib.Path, executed: set) -> list:
    """(line, first source line) of each statement of ``path`` of which no
    line is in ``executed``."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    skip = docstrings(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _LEFT_OUT) or node in skip:
            continue
        if not executed.intersection(range(node.lineno, node.end_lineno + 1)):
            out.append((node.lineno, lines[node.lineno - 1].strip()))
    return sorted(out)


def trace(run, root: pathlib.Path) -> tuple:
    """Call ``run()`` under the tracer; return the exit code it raises (0 if
    none) and {file path: executed lines} for the files under ``root``."""
    prefix = str(root.resolve()) + os.sep
    inside = {}  # co_filename -> absolute path under root, or None
    executed = {}

    def local(frame, event, arg):
        if event == "line":
            executed[inside[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = os.path.abspath(name)
            inside[name] = path if path.startswith(prefix) else None
            executed.setdefault(inside[name], set())
        return local if inside[name] else None

    previous, previous_thread = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run()
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.settrace(previous)
        threading.settrace(previous_thread)
    executed.pop(None, None)
    return (0 if code is None else code if isinstance(code, int) else 1), executed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-m", dest="module", nargs=argparse.REMAINDER,
                        help="run a module as __main__, with the arguments that follow")
    parser.add_argument("script", nargs=argparse.REMAINDER,
                        help="or run a script, with the arguments that follow")
    opts = parser.parse_args(argv)
    if opts.module:
        sys.argv = list(opts.module)
        sys.path[0] = os.getcwd()
        code, executed = trace(lambda: runpy.run_module(
            opts.module[0], run_name="__main__", alter_sys=True), _ROOT)
    elif opts.script:
        sys.argv = list(opts.script)
        sys.path[0] = os.path.dirname(os.path.abspath(opts.script[0]))
        code, executed = trace(lambda: runpy.run_path(opts.script[0], run_name="__main__"),
                               _ROOT)
    else:
        parser.error("give a script or -m MODULE")
    cwd = pathlib.Path.cwd()
    total = 0
    for path in sorted(_ROOT.rglob("*.py")):
        shown = path.relative_to(cwd) if path.is_relative_to(cwd) else path
        for line, statement in unreached(path, executed.get(str(path), set())):
            print(f"{shown}:{line}: {statement}")
            total += 1
    print(f"{total} statements unreached", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
