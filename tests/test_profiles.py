import pickle
import random
import string
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from collabsim import profiles
from collabsim.aggregates import RegionYearCounts
from collabsim.classify import classify
from collabsim.corpus import PublicationRecord, RegionMap
from collabsim.profiles import (
    BIRC,
    DOMESTIC,
    FLUSH_PAIRS,
    INTERNATIONAL,
    MIRC,
    PARTNER_SPACE,
    SUBJECT_SPACE,
    BuildConfig,
    CountryProfileSet,
    Profile,
    ProfileFold,
    accumulate,
    build_profiles,
    dump_rows,
    merge_tables,
)

from oracle import recount, recount_regions, random_records


def _rec(rid, subjects, countries, year=2010):
    return PublicationRecord(rid, year, frozenset(subjects), frozenset(countries))


def test_accumulate_bilateral():
    table = {}
    rec = _rec("p", {"PHYS"}, {"NL", "ES"})
    accumulate(table, rec, classify(rec))
    nl, es = table["NL"], table["ES"]
    assert nl.disciplinary[BIRC].counts == {"PHYS": 1}
    assert nl.disciplinary[INTERNATIONAL].counts == {"PHYS": 1}
    assert nl.partner[BIRC].counts == {"ES": 1}
    assert es.disciplinary[BIRC].counts == {"PHYS": 1}
    assert es.partner[BIRC].counts == {"NL": 1}
    assert nl.pub_counts.n_bilateral == 1


def test_accumulate_domestic_multi_subject():
    table = {}
    rec = _rec("p", {"PHYS", "CHEM"}, {"NL"})
    accumulate(table, rec, classify(rec))
    nl = table["NL"]
    assert nl.disciplinary[DOMESTIC].counts == {"PHYS": 1, "CHEM": 1}
    assert nl.disciplinary[INTERNATIONAL].is_empty
    assert all(p.is_empty for p in nl.partner.values())


def test_accumulate_multilateral_partner_increments():
    table = {}
    rec = _rec("p", {"BIO"}, {"NL", "ES", "ZA"})
    accumulate(table, rec, classify(rec))
    total_partner_increments = 0
    for code in ("NL", "ES", "ZA"):
        ps = table[code]
        assert ps.disciplinary[MIRC].counts == {"BIO": 1}
        assert ps.partner[MIRC].total == 2
        assert code not in ps.partner[MIRC].counts
        total_partner_increments += ps.partner[MIRC].total
    assert total_partner_increments == 3 * 2  # k * (k - 1)


@given(st.integers(2, 8))
def test_partner_increment_count_law(k):
    codes = [f"{c}A" for c in "ABCDEFGH"][:k]
    table = {}
    rec = _rec("p", {"S"}, codes)
    accumulate(table, rec, classify(rec))
    assert sum(ps.partner[INTERNATIONAL].total for ps in table.values()) == k * (k - 1)


# --- Profile ------------------------------------------------------------

def test_profile_no_zero_counts_and_total():
    p = Profile(SUBJECT_SPACE)
    p.increment("A", 0)
    assert p.is_empty
    p.increment("A", 2)
    p.increment("B")
    assert p.counts == {"A": 2, "B": 1}
    assert p.total == 3
    with pytest.raises(ValueError):
        p.increment("A", -1)


def test_profile_namespace_mismatch():
    with pytest.raises(ValueError, match="namespace"):
        Profile(SUBJECT_SPACE, {"A": 1}) + Profile(PARTNER_SPACE, {"A": 1})


_profiles = st.dictionaries(
    st.sampled_from([f"d{i}" for i in range(6)]),
    st.integers(1, 40), max_size=5,
).map(lambda d: Profile(SUBJECT_SPACE, d))


@given(_profiles, _profiles, _profiles)
def test_profile_merge_laws(a, b, c):
    empty = Profile(SUBJECT_SPACE)
    assert (a + empty).counts == a.counts
    assert (a + b).counts == (b + a).counts
    assert ((a + b) + c).counts == (a + (b + c)).counts


# --- CountryProfileSet merge --------------------------------------------

def _sets_for(records):
    shard = {}
    for rec in records:
        accumulate(shard, rec, classify(rec))
    return shard


def test_merge_identity():
    table = _sets_for([_rec("p", {"A"}, {"NL", "ES"})])
    nl = table["NL"]
    merged = nl + CountryProfileSet.empty("NL")
    assert merged.disciplinary == nl.disciplinary
    assert merged.partner == nl.partner
    assert merged.pub_counts == nl.pub_counts


def test_merge_country_mismatch():
    with pytest.raises(ValueError, match="merge"):
        CountryProfileSet.empty("NL") + CountryProfileSet.empty("ES")


@settings(max_examples=25)
@given(st.integers(0, 10_000), st.integers(1, 60))
def test_merge_commutes_on_random_tables(seed, n):
    rng = random.Random(seed)
    records = random_records(rng, n)
    half = n // 2
    a, b = _sets_for(records[:half]), _sets_for(records[half:])
    ab, ba = merge_tables(a, b), merge_tables(b, a)
    assert set(ab) == set(ba)
    for country in ab:
        assert ab[country].disciplinary == ba[country].disciplinary
        assert ab[country].partner == ba[country].partner
        assert ab[country].pub_counts == ba[country].pub_counts


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_merge_associativity_on_random_tables(seed):
    rng = random.Random(seed)
    records = random_records(rng, 45)
    a, b, c = (_sets_for(records[i::3]) for i in range(3))
    left = merge_tables(merge_tables(a, b), c)
    right = merge_tables(a, merge_tables(b, c))
    assert set(left) == set(right)
    for country in left:
        assert left[country].disciplinary == right[country].disciplinary
        assert left[country].partner == right[country].partner
        assert left[country].pub_counts == right[country].pub_counts


def test_merge_tables_empty_identity():
    table = _sets_for([_rec("p", {"A"}, {"NL"})])
    assert merge_tables(table, {}) == table
    assert merge_tables({}, table) == table


def _tables_equal(a, b):
    if set(a) != set(b):
        return False
    for country in a:
        x, y = a[country], b[country]
        if (x.disciplinary != y.disciplinary or x.partner != y.partner
                or x.pub_counts != y.pub_counts):
            return False
    return True


def test_sharded_build_equals_single_pass():
    rng = random.Random(99)
    records = random_records(rng, 100)
    whole = build_profiles(records)
    shards = [[], [], [], []]
    for rec in records:
        shards[rng.randrange(4)].append(rec)
    merged = {}
    for shard in shards:
        merged = merge_tables(merged, build_profiles(shard))
    assert _tables_equal(whole, merged)


def _pair_work(records):
    return sum(len(r.countries) * (len(r.countries) + len(r.subjects))
               for r in records)


def test_build_matches_naive_recount():
    rng = random.Random(7)
    records = random_records(rng, 2500, max_countries=7)
    assert _pair_work(records) > 3 * FLUSH_PAIRS  # several fold flushes
    for config in (BuildConfig(), BuildConfig(mega_threshold=3),
                   BuildConfig(year_min=2010, year_max=2014, mega_threshold=5)):
        table = build_profiles(records, config)
        _assert_matches_recount(table, recount(
            records, config.mega_threshold, config.year_min, config.year_max))


def _assert_matches_recount(table, reference):
    assert set(table) == set(reference)
    for country, ps in table.items():
        ref = reference[country]
        for family in ps.disciplinary:
            assert ps.disciplinary[family].counts == dict(ref["disc"][family])
        for family in ps.partner:
            assert ps.partner[family].counts == dict(ref["part"][family])
        assert ps.pub_counts.n_domestic == ref["n"]["domestic"]
        assert ps.pub_counts.n_bilateral == ref["n"]["birc"]
        assert ps.pub_counts.n_multilateral == ref["n"]["mirc"]
        assert ps.pub_counts.n_mega == ref["n"]["mega"]


# --- ProfileFold against the per-record path ------------------------------

def _per_record(records, mega_threshold=None, region_map=None, mode="dedup"):
    table, counts = {}, RegionYearCounts(mode)
    for rec in records:
        ctype = classify(rec, mega_threshold)
        accumulate(table, rec, ctype)
        counts.add(rec, ctype, region_map)
    return table, counts


def _folded(records, mega_threshold=None, region_map=None, mode="dedup"):
    fold = ProfileFold(mega_threshold, region_map, mode)
    for rec in records:
        fold.add(rec)
    return fold.table(), fold.region_counts()


# AA, AB and AC unmapped (UNKNOWN region), the rest split over two regions
_PARTIAL_MAP = RegionMap({c: ("North" if i % 2 else "South")
                          for i, c in enumerate(a + b for a in "ABC" for b in "ABCDEF")
                          if i >= 3})


@pytest.mark.parametrize("mega_threshold", [None, 3, 5])
@pytest.mark.parametrize("mode", ["dedup", "country"])
@pytest.mark.parametrize("region_map", [None, _PARTIAL_MAP], ids=["no-map", "map"])
def test_fold_matches_per_record_path(mega_threshold, mode, region_map):
    rng = random.Random(11)
    records = random_records(rng, 1800, n_countries=14, max_countries=8,
                             max_subjects=4, years=(2005, 2020))
    assert _pair_work(records) > 3 * FLUSH_PAIRS
    reference = _per_record(records, mega_threshold, region_map, mode)
    folded = _folded(records, mega_threshold, region_map, mode)
    assert folded == reference
    # and both agree with the independent oracle
    _assert_matches_recount(folded[0], recount(records, mega_threshold))
    mapped = region_map.entries if region_map else {}
    assert folded[1].counts == recount_regions(
        records, lambda c: mapped.get(c, "UNKNOWN"), mode == "country",
        mega_threshold)
    # shards folded separately merge to the serial result
    shards = [_folded(records[i::3], mega_threshold, region_map, mode)
              for i in range(3)]
    assert reduce(merge_tables, [t for t, _ in shards]) == reference[0]
    assert reduce(RegionYearCounts.merge, [c for _, c in shards]) == reference[1]


def test_fold_record_larger_than_flush():
    codes = [a + b for a in string.ascii_uppercase for b in string.ascii_uppercase]
    big = _rec("big", {"S1", "S2", "S3"}, codes[:130])
    assert _pair_work([big]) > FLUSH_PAIRS
    records = [_rec("a", {"S1"}, codes[:2]), big, _rec("b", {"S2"}, codes[5:9]),
               _rec("c", {"S3"}, codes[200:201], year=2011)]
    assert _folded(records, 20) == _per_record(records, 20)


def test_fold_takes_any_year():
    records = [_rec("a", {"A"}, {"NL", "ES"}, year=-40),
               _rec("b", {"A"}, {"NL"}, year=10**12)]
    assert build_profiles(records) == _per_record(records)[0]


def test_fold_keeps_classify_checks():
    with pytest.raises(ValueError, match="mega_threshold"):
        ProfileFold(mega_threshold=2)
    with pytest.raises(ValueError, match="counting mode"):
        ProfileFold(region_counting="per-capita")
    with pytest.raises(ValueError, match="no countries"):
        ProfileFold().add(_rec("p", {"A"}, set()))


def test_decomposition_invariants_hold_after_build():
    rng = random.Random(21)
    table = build_profiles(random_records(rng, 300))
    assert table
    for ps in table.values():
        assert ps.decomposition_ok()
        for profile in list(ps.disciplinary.values()) + list(ps.partner.values()):
            assert all(isinstance(n, int) and n > 0 for n in profile.counts.values())


def test_build_empty_stream():
    assert build_profiles([]) == {}


def test_build_single_domestic_record():
    table = build_profiles([_rec("p", {"A"}, {"NL"})])
    assert set(table) == {"NL"}
    nl = table["NL"]
    assert nl.disciplinary[DOMESTIC].counts == {"A": 1}
    assert nl.disciplinary[INTERNATIONAL].is_empty
    assert nl.pub_counts.n_total == 1


def test_build_applies_year_filter():
    records = [_rec("a", {"A"}, {"NL"}, year=2005),
               _rec("b", {"A"}, {"NL"}, year=2010)]
    table = build_profiles(records, BuildConfig(year_min=2008, year_max=2017))
    assert table["NL"].pub_counts.n_total == 1


def test_build_mega_threshold_splits_mirc():
    codes = [f"A{c}" for c in "ABCDEFGHIJKLMNOPQRSTU"]  # 21 countries
    records = [_rec("m", {"S"}, codes), _rec("t", {"S"}, codes[:3])]
    table = build_profiles(records, BuildConfig(mega_threshold=20))
    ps = table["AA"]
    assert ps.pub_counts.n_mega == 1
    assert ps.pub_counts.n_multilateral == 1
    assert ps.disciplinary[MIRC].counts == {"S": 1}
    assert ps.disciplinary["mega"].counts == {"S": 1}
    assert ps.decomposition_ok()


def test_dump_rows_sorted_and_complete():
    table = build_profiles([_rec("p", {"B", "A"}, {"NL", "ES"})])
    rows = list(dump_rows(table))
    assert rows == sorted(rows)
    assert ("ES", "disciplinary", "birc", "A", 1) in rows
    assert ("NL", "partner", "international", "ES", 1) in rows

    table = build_profiles(random_records(random.Random(11), 300),
                           BuildConfig(mega_threshold=3))
    rows = list(dump_rows(table))
    assert rows == sorted(rows)
    assert any(family == "mega" for _, _, family, _, _ in rows)
    assert len(rows) == sum(len(p.counts) for ps in table.values()
                            for p in (*ps.disciplinary.values(),
                                      *ps.partner.values()))


# --- ProfileFold.merge: the combiner of a sharded fold --------------------

def _fold_of(records, mega_threshold, region_map, mode):
    fold = ProfileFold(mega_threshold, region_map, mode)
    for rec in records:
        fold.add(rec)
    return fold


def _read(fold):
    return fold.table(), fold.region_counts()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 400), st.integers(0, 400),
       st.sampled_from([None, 3, 5]), st.sampled_from(["dedup", "country"]),
       st.sampled_from([None, _PARTIAL_MAP]))
def test_fold_merge_laws(seed, cut1, cut2, mega, mode, region_map):
    """Folds of consecutive parts merge, in either grouping, to the fold of
    the whole and to the oracle's recount; the empty fold is the identity."""
    records = random_records(random.Random(seed), 400, n_countries=14,
                             max_countries=8, max_subjects=4,
                             years=(2005, 2020))
    i, j = sorted((cut1, cut2))
    parts = records[:i], records[i:j], records[j:]

    def folds():
        return [_fold_of(part, mega, region_map, mode) for part in parts]

    a, b, c = folds()
    left = _read(a.merge(b).merge(c))
    a, b, c = folds()
    assert _read(a.merge(b.merge(c))) == left
    assert _read(_fold_of(records, mega, region_map, mode)) == left
    empty = ProfileFold(mega, region_map, mode)
    assert _read(empty.merge(_fold_of(records, mega, region_map, mode))) == left
    whole = _fold_of(records, mega, region_map, mode)
    assert _read(whole.merge(ProfileFold(mega, region_map, mode))) == left
    _assert_matches_recount(left[0], recount(records, mega))
    mapped = region_map.entries if region_map else {}
    assert left[1].counts == recount_regions(
        records, lambda code: mapped.get(code, "UNKNOWN"), mode == "country",
        mega)


def test_fold_merge_needs_the_same_settings():
    for other in (ProfileFold(3), ProfileFold(region_map=_PARTIAL_MAP),
                  ProfileFold(region_counting="country")):
        with pytest.raises(ValueError, match="different settings"):
            ProfileFold().merge(other)


def test_fold_pickles_without_pending_records():
    records = random_records(random.Random(5), 50, max_countries=5)
    fold = _fold_of(records, 3, _PARTIAL_MAP, "dedup")
    assert fold._cs  # rows still pending
    clone = pickle.loads(pickle.dumps(fold))
    assert (clone._y, clone._cs, clone._ss, clone._pending) == ([], [], [], 0)
    assert _read(clone) == _read(fold)


# --- the set-level fold: rows that share their code sets ------------------

def _shared_set_records(rng, n, flush_pairs):
    """Records whose country and subject sets come from small pools: a row
    takes a pool's set object itself or an equal set built anew, in either
    insertion order; one record alone exceeds ``flush_pairs``."""
    countries = [a + b for a in "ABC" for b in "ABCDEF"]
    subjects = [f"S{i}" for i in range(9)]

    def pool(codes, max_size):
        return [frozenset(rng.sample(codes, rng.randint(1, max_size)))
                for _ in range(10)]

    def pick(sets):
        chosen = rng.choice(sets)
        if rng.random() < 0.5:
            return chosen
        return frozenset(sorted(chosen, reverse=rng.random() < 0.5))

    c_pool, s_pool = pool(countries, 8), pool(subjects, 4)
    records = [PublicationRecord(f"r{i}", rng.randint(2005, 2012),
                                 pick(s_pool), pick(c_pool))
               for i in range(n)]
    big = _rec("big", subjects, countries)
    assert _pair_work([big]) > flush_pairs
    records.insert(rng.randrange(n), big)
    return records


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([None, 3, 5]),
       st.sampled_from(["dedup", "country"]),
       st.sampled_from([None, _PARTIAL_MAP]))
def test_set_level_fold_matches_per_record_path(seed, mega, mode, region_map):
    """Interning each distinct set once per flush gives the per-record
    counts, the oracle's recount and the countries in order of first
    appearance, also over three merged shards."""
    records = _shared_set_records(random.Random(seed), 300, 64)
    reference = _per_record(records, mega, region_map, mode)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(profiles, "FLUSH_PAIRS", 64)
        folded = _read(_fold_of(records, mega, region_map, mode))
        merged = _read(reduce(ProfileFold.merge, [
            _fold_of(part, mega, region_map, mode)
            for part in (records[:90], records[90:200], records[200:])]))
    assert folded == reference and merged == reference
    assert list(folded[0]) == list(merged[0]) == list(reference[0])
    _assert_matches_recount(folded[0], recount(records, mega))
    mapped = region_map.entries if region_map else {}
    assert folded[1].counts == recount_regions(
        records, lambda code: mapped.get(code, "UNKNOWN"), mode == "country",
        mega)
