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



def test_the_rest_of_what_the_benchmark_reads():
    """perfbench/run.py and workloads.py also read a swept profile's
    components, histogram and torsion period and pass `jobs=` to
    `subset_profile`; spans.py wraps `RankOracle.rank`."""
    from simflow import RankOracle, subset_profile
    from simflow.fixtures import rp2

    delta = rp2()
    profile = subset_profile(delta, jobs=None)
    assert subset_profile(delta, jobs=2) is profile
    assert [len(comp) for comp in profile.components] == [10]
    assert sum(profile.histogram.values()) == 1 << 10
    assert profile.torsion_period() == 2
    assert callable(RankOracle.rank)
