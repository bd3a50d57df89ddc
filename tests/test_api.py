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
