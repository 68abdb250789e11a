"""Line coverage of ``src/stimex`` under the Tier-1 suite, checked against a list.

Runs the Tier-1 suite in this process with ``pytest.main``, with a fixed
Hypothesis seed and no example database so that every run reaches the same
lines, under a ``sys.settrace`` hook that records the line events of frames
whose code lives in ``src/stimex``.  A line is unexecuted when it belongs to a
function body (the lines of its code object's ``co_lines()``, less the ``def``
line, which runs in the enclosing scope) and no call of that function ran it.

The unexecuted lines must be exactly those listed in ``tools/linecov.json``: a
JSON list of ``{"file", "function", "line", "reason"}`` objects, where
``file`` is the path from the repository root, ``function`` the code's
qualified name, ``line`` the line's text stripped of surrounding blanks and
``reason`` one line on why no test can run it.  Entries carry no line numbers,
so edits elsewhere in a file leave the list as it is.

    python3 tools/linecov.py

Exits 0 when pytest passes and the unexecuted lines are the listed ones, and 1
otherwise, naming each line that differs.
"""

from __future__ import annotations

import collections
import inspect
import json
import os
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stimex"
LISTED = Path(__file__).with_name("linecov.json")
PYTEST_ARGS = ["-q", "--continue-on-collection-errors", "--hypothesis-seed=0"]


def _functions(code: types.CodeType):
    """``code`` if it is a function's, and every function code nested in it."""
    if code.co_flags & inspect.CO_NEWLOCALS:  # module and class bodies are not functions
        yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _functions(const)


class _Lines(set):
    """The lines one function ran, and the local trace function that adds them.
    One per function, not a closure per call: a closure that returns itself is a
    reference cycle, and the suite checks that its calls leave no cyclic garbage."""

    def __call__(self, frame, event, arg):
        if event == "line":
            self.add(frame.f_lineno)
        return self


class _NoExampleDatabase:
    """A pytest plugin: Hypothesis neither replays nor saves examples.  It imports
    Hypothesis once pytest runs, so that pytest can still rewrite its asserts."""

    @staticmethod
    def pytest_configure(config):
        import hypothesis

        hypothesis.settings.register_profile("linecov", database=None)
        hypothesis.settings.load_profile("linecov")


def run_traced() -> tuple[int, dict]:
    """pytest's exit status, and the lines run per ``(file, qualname, first line)``."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran = collections.defaultdict(_Lines)

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            return ran[code.co_filename, code.co_qualname, code.co_firstlineno]
        return None

    sys.settrace(trace)
    try:
        status = pytest.main(PYTEST_ARGS, plugins=[_NoExampleDatabase()])
    finally:
        sys.settrace(None)
    return status, ran


def unexecuted(ran: dict) -> list[tuple[str, int, str, str]]:
    """``(file, line number, function, stripped text)`` of each function-body line
    of ``src/stimex`` that ``ran`` does not hold."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for code in _functions(compile(source, str(path), "exec")):
            body = {line for *_, line in code.co_lines() if line is not None}
            body -= {code.co_firstlineno}
            body -= ran.get((str(path), code.co_qualname, code.co_firstlineno), set())
            file = path.relative_to(ROOT).as_posix()
            out += [(file, n, code.co_qualname, text[n - 1].strip()) for n in sorted(body)]
    return out


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    status, ran = run_traced()
    print(f"linecov: traced Tier-1 took {time.perf_counter() - started:.1f} s")
    if status != 0:
        print(f"linecov: pytest exited {int(status)}")
        return 1
    listed = json.loads(LISTED.read_text(encoding="utf-8"))
    unexplained = [e for e in listed if not str(e.get("reason") or "").strip()]
    for entry in unexplained:
        print(f"linecov: {LISTED.name} entry without a reason: {entry}")
    lines = unexecuted(ran)
    found = collections.Counter((file, func, text) for file, _, func, text in lines)
    known = collections.Counter((e["file"], e["function"], e["line"]) for e in listed)
    for file, n, func, text in lines:
        if found[file, func, text] > known[file, func, text]:
            print(f"linecov: not run and not listed: {file}:{n} in {func}: {text}")
    for file, func, text in (known - found).elements():
        print(f"linecov: listed but run, or gone: {file} in {func}: {text}")
    if unexplained or found != known:
        return 1
    print(f"linecov: {len(lines)} unexecuted line(s) in src/stimex, as listed in {LISTED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
