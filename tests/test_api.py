import importlib
import inspect
import pkgutil

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
