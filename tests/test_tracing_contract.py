"""The benchmark's traced run (perfbench/spans.py) rebinds simflow
functions by name. A rename or a dropped import in simflow breaks only
that run, so this test holds every traced name to the code."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    missing = []
    for name, owner, attr, users in spans.TRACED:
        if not hasattr(owner, attr):
            missing.append(f"{name}: {owner.__name__}.{attr}")
            continue
        for user in users:
            if getattr(user, attr, None) is not getattr(owner, attr):
                missing.append(f"{name}: {user.__name__}.{attr}")
    for name, cls, attr in spans.TRACED_METHODS:
        if not callable(getattr(cls, attr, None)):
            missing.append(f"{name}: {cls.__name__}.{attr}")
    assert missing == []
