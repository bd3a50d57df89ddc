import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import simflow


def _callables():
    """Every function and class defined in a simflow module, with the
    methods of those classes, as (qualified name, object)."""
    for info in pkgutil.iter_modules(simflow.__path__):
        module = importlib.import_module(f"simflow.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def _takes(obj, param):
    try:
        return param in inspect.signature(obj).parameters
    except (TypeError, ValueError):
        return False


def test_only_subset_profile_takes_jobs():
    exported = [getattr(simflow, name) for name in dir(simflow) if not name.startswith("_")]
    assert [obj for obj in exported if callable(obj) and _takes(obj, "jobs")] == [
        simflow.subset_profile
    ]
    with_jobs = sorted(name for name, obj in _callables() if _takes(obj, "jobs"))
    assert with_jobs == ["simflow.homology.subset_profile"]


def test_import_defers_the_oracles_and_builds_no_parser():
    """sympy alone would add hundreds of ms and many MB to every process
    that imports simflow; the paper suite loads when `verify` runs, and
    the CLI's parsers are built on first use."""
    probe = (
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import simflow, simflow.cli\n"
        "deferred = {'sympy', 'networkx', 'hypothesis', 'simflow.verify'}\n"
        "print(sorted(deferred & set(sys.modules)), built)\n"
    )
    # the child imports the same simflow as this process
    src = str(Path(simflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "[] []\n"


SRC = Path(simflow.__file__).resolve().parent
ROOT = SRC.parents[1]

# Top-level names that no command reaches, each with why it stays: the
# perfbench file that reads it by name, or the paper answer it gives.
UNREACHED_ALLOWED = {
    "RankOracle": "perfbench/spans.py",
    "circuits": "perfbench/spans.py",
    "enumerate_kernel_mod_q": "perfbench/spans.py",
    "count_nz_group_flows_2r": "the paper's count of nowhere-zero Z_2^r flows",
}


def _unreached(allowed):
    """Top-level functions and classes of `src/simflow` outside verify.py
    and fixtures.py that nothing but verify.py, the exports and the tests
    reaches.

    A top-level statement reaches each name it mentions. Reading starts
    at what runs without being called: module-level statements, decorated
    functions (the CLI's commands), the fixtures and the names in
    `allowed`. verify.py and __init__.py are not read. Names are matched
    as strings, so a name reached in one module counts in every other."""
    defined, mentions, todo = set(), {}, list(allowed)
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("verify.py", "__init__.py"):
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = f"{path.name}:{stmt.lineno}"
                todo.append(owner)
            else:
                owner = stmt.name
                if path.name == "fixtures.py" or (
                    isinstance(stmt, ast.FunctionDef) and stmt.decorator_list
                ):
                    todo.append(owner)
                else:
                    defined.add(owner)
            names = mentions.setdefault(owner, set())
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(mentions.get(name, ()))
    return defined - reached


def test_no_library_code_serves_only_verify_or_the_tests():
    """A second route that only recomputes an answer belongs in verify.py
    or the tests. Every allow-list entry must still be needed, and one
    kept for perfbench must be named in that file."""
    assert sorted(_unreached(UNREACHED_ALLOWED)) == []
    assert sorted(set(UNREACHED_ALLOWED) - _unreached(())) == []
    for name, reason in UNREACHED_ALLOWED.items():
        if reason.startswith("perfbench/"):
            assert name in (ROOT / reason).read_text(encoding="utf-8"), name
