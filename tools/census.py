"""Reachability census: list the ``src/repro`` functions no run reaches.

Runs the non-test CI steps: every gate (``tools/gate.py``: each quick
entry with its checks, bands and the fluid probe), ``python3 -m pytest
bench``, the experiment CLI (``--list`` and a quick ``--json`` save),
every script in ``examples/`` and the dashboard self-check,
with a ``sys.setprofile`` hook in each interpreter they start.  Then it
prints every function defined under ``src/repro`` that none of them
called, one ``package: N`` line per package, and the total.  Tests are
deliberately not run: a function only tests reach is a deletion
candidate.

Usage (from the repository root; takes tens of minutes)::

    python3 tools/census.py
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: installed in every interpreter the runs start: records the code
#: objects of all Python calls, written out when the interpreter exits
HOOK = '''
import atexit, os, sys, threading
_seen = set()
def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)
sys.setprofile(_hook)
threading.setprofile(_hook)
@atexit.register
def _dump():
    sys.setprofile(None)
    rows = {f"{os.path.realpath(c.co_filename)}:{c.co_firstlineno}"
            for c in _seen}
    with open(os.path.join(%r, f"reached-{os.getpid()}.txt"), "w") as f:
        f.write("\\n".join(sorted(rows)))
'''


def defined():
    """{"path:first line": "module:qualname"} of every def in src/repro."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = path.relative_to(SRC).with_suffix("").as_posix()

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # a decorated function's code starts at its decorator
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    name = prefix + child.name
                    found[f"{path.resolve()}:{first}"] = f"{module}:{name}"
                    walk(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return found


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(HOOK % tmp)
        env = dict(os.environ, PYTHONPATH=f"{tmp}{os.pathsep}{SRC}",
                   PYTHONHASHSEED="0", REPRO_JOBS="1")
        runs = [["tools/gate.py"], ["-m", "pytest", "-q", "bench"],
                ["-m", "repro.experiments", "--list"],
                ["-m", "repro.experiments", "--quick", "table1", "fig09",
                 "fig15", "--json", str(Path(tmp, "cli"))]]
        runs += [[str(p.relative_to(ROOT))]
                 for p in sorted((ROOT / "examples").glob("*.py"))]
        runs.append(["tools/dashboard.py", "--check",
                     "--out", str(Path(tmp, "dashboard.html")),
                     "--save-bundle", str(Path(tmp, "dashboard.json"))])
        for args in runs:
            print("census: running", " ".join(args), flush=True)
            proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                print(f"census: {' '.join(args)} failed", file=sys.stderr)
                return 1
        reached = set()
        for dump in Path(tmp).glob("reached-*.txt"):
            reached.update(dump.read_text().split("\n"))
    functions = defined()
    unreached = sorted(functions[key] for key in set(functions) - reached)
    for name in unreached:
        print(name)
    per_package = Counter(name.split("/")[1].split(":")[0]
                          for name in unreached)
    for package, count in sorted(per_package.items(),
                                 key=lambda item: (-item[1], item[0])):
        print(f"{package}: {count}")
    print(f"{len(unreached)} of {len(functions)} functions unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
