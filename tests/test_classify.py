import numpy as np
import pytest
from hypothesis import given, strategies as st

from collabsim.classify import (
    CollabKind,
    TypeCounts,
    birc_share,
    classify,
    kind_index,
)
from collabsim.corpus import PublicationRecord

from oracle import kind_of

_CODES = [f"{a}{b}" for a in "ABCDEF" for b in "ABCDEF"]


def _record(k):
    return PublicationRecord("r", 2010, frozenset({"S"}), frozenset(_CODES[:k]))


def test_domestic():
    assert classify(_record(1)).kind is CollabKind.DOMESTIC


def test_bilateral():
    assert classify(_record(2)).kind is CollabKind.BILATERAL


def test_multilateral():
    assert classify(_record(3)).kind is CollabKind.MULTILATERAL


def test_mega_threshold():
    assert classify(_record(21), mega_threshold=20).kind is CollabKind.MEGA
    assert classify(_record(20), mega_threshold=20).kind is CollabKind.MEGA
    assert classify(_record(21)).kind is CollabKind.MULTILATERAL
    assert classify(_record(19), mega_threshold=20).kind is CollabKind.MULTILATERAL


def test_mega_threshold_lower_bound():
    with pytest.raises(ValueError):
        classify(_record(3), mega_threshold=2)


@pytest.mark.parametrize("threshold", [None, 3, 20, 30])
def test_classify_total_over_cardinalities(threshold):
    for k in range(1, 31):
        ctype = classify(_record(k), mega_threshold=threshold)
        assert ctype.country_count == k
        if k == 1:
            assert ctype.kind is CollabKind.DOMESTIC
        elif k == 2:
            assert ctype.kind is CollabKind.BILATERAL
        elif threshold is not None and k >= threshold:
            assert ctype.kind is CollabKind.MEGA
        else:
            assert ctype.kind is CollabKind.MULTILATERAL


@given(st.integers(1, 20), st.integers(2000, 2020), st.integers(2000, 2020))
def test_classify_depends_only_on_cardinality(k, year_a, year_b):
    a = PublicationRecord("a", year_a, frozenset({"X"}), frozenset(_CODES[:k]))
    b = PublicationRecord("b", year_b, frozenset({"Y", "Z"}), frozenset(_CODES[-k:]))
    assert classify(a).kind == classify(b).kind


def test_exactly_one_class():
    kinds = {classify(_record(k)).kind for k in (1, 2, 3, 9)}
    assert kinds == {CollabKind.DOMESTIC, CollabKind.BILATERAL, CollabKind.MULTILATERAL}
    assert classify(_record(2)).is_international
    assert not classify(_record(1)).is_international


# --- kind_index, the one kind rule ---------------------------------------

_ORACLE_INDEX = {"domestic": 0, "birc": 1, "mirc": 2, "mega": 3}


@pytest.mark.parametrize("mega_threshold", [None, 3, 5, 20])
def test_kind_index_matches_oracle(mega_threshold):
    ks = range(1, 46)
    expected = [_ORACLE_INDEX[kind_of(k, mega_threshold)] for k in ks]
    assert [kind_index(k, mega_threshold) for k in ks] == expected
    assert all(type(kind_index(k, mega_threshold)) is int for k in ks)
    array = kind_index(np.arange(1, 46), mega_threshold)
    assert array.dtype.kind == "i"
    assert array.tolist() == expected


# --- TypeCounts ---------------------------------------------------------

def test_type_counts_add_and_merge():
    a = TypeCounts()
    a.add(CollabKind.DOMESTIC)
    a.add(CollabKind.BILATERAL)
    a.add(CollabKind.BILATERAL)
    b = TypeCounts()
    b.add(CollabKind.MULTILATERAL)
    b.add(CollabKind.BILATERAL)
    merged = a + b
    assert merged.n_domestic == 1
    assert merged.n_bilateral == 3
    assert merged.n_multilateral == 1
    assert merged.n_international == 4
    assert merged.n_total == 5


def test_type_counts_merge_adds_every_field():
    a = TypeCounts(1, 2, 3, 4)
    assert a + TypeCounts(10, 20, 30, 40) == TypeCounts(11, 22, 33, 44)


def test_merge_identity_and_commutativity():
    a = TypeCounts(n_domestic=2, n_bilateral=1)
    empty = TypeCounts()
    assert a + empty == a
    b = TypeCounts(n_multilateral=4)
    assert a + b == b + a


# --- birc_share ---------------------------------------------------------

def test_birc_share_examples():
    assert birc_share(TypeCounts(n_bilateral=46, n_multilateral=54)) == pytest.approx(0.46, abs=1e-12)
    assert birc_share(TypeCounts()) is None
    assert birc_share(TypeCounts(n_domestic=5)) is None
    assert birc_share(TypeCounts(n_bilateral=10)) == 1.0


def test_birc_share_includes_mega_in_denominator():
    counts = TypeCounts(n_bilateral=1, n_multilateral=1, n_mega=2)
    assert birc_share(counts) == pytest.approx(0.25)


@given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
def test_birc_share_range_and_monotonicity(nb, nm, ng):
    counts = TypeCounts(n_bilateral=nb, n_multilateral=nm, n_mega=ng)
    share = birc_share(counts)
    if nb + nm + ng == 0:
        assert share is None
    else:
        assert 0.0 <= share <= 1.0
        bigger = birc_share(TypeCounts(n_bilateral=nb + 1, n_multilateral=nm, n_mega=ng))
        assert bigger >= share
