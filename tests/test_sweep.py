"""The incremental subset sweep against the per-mask reference sweep in
sweep_oracle.py, on random pure complexes and on torsion-bearing ones."""

from collections import Counter
from itertools import combinations

import pytest

from simflow.complexes import build_complex, restrict_columns, subdivide_facet
from simflow.fixtures import _RP2_FACES
from simflow.homology import _component_sweep, subset_profile
from simflow.linalg import snf_diagonal
from sweep_oracle import oracle_profile, per_mask_sweep

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(
    max_examples=60, deadline=None, database=None, derandomize=True
)


def _assert_matches_oracle(delta):
    profile = subset_profile(delta)
    assert profile.histogram == oracle_profile(delta)
    if len(delta.facets) <= 10:
        direct = Counter()
        for mask in range(1 << len(delta.facets)):
            rows = [list(r) for r in restrict_columns(delta, mask).matrix.data]
            diag = snf_diagonal(rows)
            direct[mask.bit_count(), len(diag), tuple(m for m in diag if m > 1)] += 1
        assert profile.histogram == direct


@st.composite
def pure_complexes(draw):
    """One to three blocks of random facets of one dimension on disjoint
    vertex sets, at most 12 facets in all."""
    d = draw(st.integers(0, 3))
    facets = []
    offset = 0
    for _ in range(draw(st.integers(1, 3))):
        room = 12 - len(facets)
        if room <= 0:
            break
        nverts = draw(st.integers(d + 1, d + 4))
        pool = list(combinations(range(offset, offset + nverts), d + 1))
        facets += draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=room, unique=True)
        )
        offset += nverts
    return build_complex(facets)


RP2_EXTRAS = [f for f in combinations(range(6), 3) if f not in _RP2_FACES]


@st.composite
def torsion_complexes(draw):
    """RP^2 (six vertices, ten triangles), possibly with one facet refined
    by a stellar subdivision, plus a few of the ten triangles it lacks,
    and possibly a disjoint second block."""
    triangles = st.sampled_from(RP2_EXTRAS)
    refine = draw(st.one_of(st.none(), st.integers(0, 9)))
    extras = draw(st.lists(triangles, max_size=2 - (refine is not None), unique=True))
    delta = build_complex(list(_RP2_FACES) + extras)
    if refine is not None:
        delta = subdivide_facet(delta, refine)
    if draw(st.booleans()):
        block = draw(st.lists(triangles, min_size=1, max_size=4, unique=True))
        shifted = [tuple(v + 10 for v in f) for f in block]
        delta = build_complex(list(delta.facets) + shifted)
    return delta


@SETTINGS
@hypothesis.given(
    st.integers(1, 5).flatmap(
        lambda nrows: st.lists(
            st.lists(st.integers(-4, 4), min_size=nrows, max_size=nrows),
            min_size=1,
            max_size=8,
        )
    )
)
def test_component_sweep_on_integer_columns(cols):
    """Entries beyond +-1 drive the gcd steps and the non-unit pivots that
    boundary maps of small complexes rarely reach."""
    want_ranks, want_torsions = per_mask_sweep(cols)
    assert _component_sweep(cols) == Counter(
        (mask.bit_count(), want_ranks[mask], want_torsions.get(mask, ()))
        for mask in range(len(want_ranks))
    )


@SETTINGS
@hypothesis.given(pure_complexes())
def test_sweep_matches_per_mask_oracle(delta):
    _assert_matches_oracle(delta)


@hypothesis.settings(SETTINGS, max_examples=15)
@hypothesis.given(torsion_complexes())
def test_sweep_matches_per_mask_oracle_with_torsion(delta):
    assert subset_profile(delta).torsion_period() > 1
    _assert_matches_oracle(delta)
