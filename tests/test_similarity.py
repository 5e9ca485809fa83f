import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from collabsim.corpus import PublicationRecord, RegionMap
from collabsim.profiles import ProfileTable, build_profiles
from collabsim.similarity import (
    INDICATORS,
    WorldBaseline,
    _exact,
    cosine,
    deviation,
    five_indicators,
    table_reports,
    world_baseline,
)

from oracle import cosine_ref, five_sims_ref, random_records


def test_cosine_identity():
    assert cosine({"a": 2, "b": 1}, {"a": 2, "b": 1}) == 1.0


def test_cosine_disjoint_supports():
    assert cosine({"a": 3}, {"b": 5}) == 0.0


def test_cosine_half_overlap():
    # dot = 1, norms sqrt(2) * sqrt(2) -> 0.5
    assert cosine({"s1": 1, "s2": 1}, {"s2": 1, "s3": 1}) == pytest.approx(0.5, abs=1e-15)


def test_cosine_scale_invariance():
    assert cosine({"s1": 3, "s2": 3}, {"s1": 1, "s2": 1}) == 1.0


def test_cosine_zero_profile_undefined():
    assert cosine({}, {"a": 1}) is None
    assert cosine({"a": 1}, {}) is None


_counts = st.dictionaries(
    st.sampled_from([f"k{i}" for i in range(7)]),
    st.integers(1, 1000), min_size=1, max_size=6,
)


@given(_counts, _counts)
def test_cosine_symmetry_and_range(a, b):
    left = cosine(a, b)
    right = cosine(b, a)
    assert left == right
    assert -1e-12 <= left <= 1.0 + 1e-12
    assert left == pytest.approx(cosine_ref(a, b), abs=1e-12)


@given(_counts)
def test_cosine_self_similarity(a):
    assert cosine(a, a) == pytest.approx(1.0, abs=1e-12)


@given(_counts, _counts, st.integers(2, 9))
def test_cosine_positive_scaling(a, b, c):
    scaled = {k: c * v for k, v in a.items()}
    assert cosine(scaled, b) == pytest.approx(cosine(a, b), abs=1e-12)


@given(_counts, _counts, st.integers(1, 5))
def test_cosine_proportional_addition(a, b, m):
    # folding in m more copies of a profile proportional to a leaves the
    # similarity against any fixed b unchanged
    grown = dict(a)
    for _ in range(m):
        grown = {k: grown[k] + v for k, v in a.items()}
    assert cosine(grown, b) == pytest.approx(cosine(a, b), abs=1e-12)


# --- five_indicators ------------------------------------------------------

def _rec(rid, subjects, countries, year=2010):
    return PublicationRecord(rid, year, frozenset(subjects), frozenset(countries))


def _toy_table():
    records = [
        _rec("d1", {"PHYS"}, {"NL"}),
        _rec("d2", {"PHYS"}, {"NL"}),
        _rec("b1", {"PHYS"}, {"NL", "XA"}),
        _rec("m1", {"CHEM"}, {"NL", "XB", "XC"}),
    ]
    return build_profiles(records)


def test_five_indicators_toy_country():
    report = five_indicators(_toy_table()["NL"])
    assert report.sim_dom_birc == 1.0
    assert report.sim_dom_mirc == 0.0
    assert report.sim_birc_mirc_disc == 0.0
    # dom {PHYS:2} vs int {PHYS:1, CHEM:1}: 2 / (2 * sqrt(2))
    assert report.sim_dom_int == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    # partner profiles {XA:1} vs {XB:1, XC:1} are disjoint
    assert report.sim_birc_mirc_partner == 0.0
    assert (report.n_pub_total, report.n_dom, report.n_birc, report.n_mirc) == (4, 2, 1, 1)


def test_five_indicators_domestic_only_country():
    table = build_profiles([_rec("d", {"A"}, {"NL"})])
    report = five_indicators(table["NL"])
    for name in INDICATORS:
        assert report.indicator(name) is None


def test_five_indicators_region_lookup():
    table = _toy_table()
    rmap = RegionMap({"NL": "Europe & Central Asia"})
    assert five_indicators(table["NL"], rmap).region == "Europe & Central Asia"
    assert five_indicators(table["XA"], rmap).region == "UNKNOWN"
    assert five_indicators(table["NL"]).region == "UNKNOWN"


def test_proportional_birc_mirc_profiles_give_one():
    records = [
        _rec("b1", {"A"}, {"NL", "XA"}), _rec("b2", {"A"}, {"NL", "XA"}),
        _rec("b3", {"B"}, {"NL", "XA"}), _rec("b4", {"B"}, {"NL", "XA"}),
        _rec("m1", {"A"}, {"NL", "XB", "XC"}), _rec("m2", {"B"}, {"NL", "XB", "XC"}),
    ]
    report = five_indicators(build_profiles(records)["NL"])
    # birc {A:2, B:2} and mirc {A:1, B:1} are proportional
    assert report.sim_birc_mirc_disc == 1.0


def test_relabeling_dimensions_preserves_indicators():
    rng = random.Random(13)
    records = random_records(rng, 120)
    mapping = {f"S{i}": f"T{(i * 3) % 8}x{i}" for i in range(8)}
    relabeled = [PublicationRecord(r.id, r.year,
                                   frozenset(mapping[s] for s in r.subjects),
                                   r.countries)
                 for r in records]
    before = {c: five_indicators(ps) for c, ps in build_profiles(records).items()}
    after = {c: five_indicators(ps) for c, ps in build_profiles(relabeled).items()}
    assert set(before) == set(after)
    for country in before:
        for name in INDICATORS:
            x, y = before[country].indicator(name), after[country].indicator(name)
            if x is None:
                assert y is None
            else:
                assert y == pytest.approx(x, abs=1e-12)


# --- world baseline and deviations ----------------------------------------

def _report(country, region="R", n_pub=10, **sims):
    from collabsim.similarity import CountrySimilarityReport
    values = {name: None for name in INDICATORS}
    values.update(sims)
    return CountrySimilarityReport(
        country=country, region=region, n_pub_total=n_pub, n_dom=n_pub,
        n_birc=0, n_mirc=0, n_mega=0, **values)


def test_world_baseline_mean():
    reports = [_report("A", sim_dom_int=0.4), _report("B", sim_dom_int=0.6)]
    baseline = world_baseline(reports)
    assert baseline.means["sim_dom_int"] == pytest.approx(0.5)
    assert baseline.eligible["sim_dom_int"] == 2
    assert baseline.means["sim_dom_birc"] is None
    assert baseline.eligible["sim_dom_birc"] == 0


def test_world_baseline_skips_undefined():
    reports = [_report("A", sim_dom_int=0.7), _report("B")]
    baseline = world_baseline(reports)
    assert baseline.means["sim_dom_int"] == pytest.approx(0.7)
    assert baseline.eligible["sim_dom_int"] == 1


def test_world_baseline_empty():
    baseline = world_baseline([])
    assert all(v is None for v in baseline.means.values())


def test_world_baseline_min_pubs_floor():
    reports = [_report("A", n_pub=1, sim_dom_int=0.0),
               _report("B", n_pub=100, sim_dom_int=0.8)]
    baseline = world_baseline(reports, min_pubs=10)
    assert baseline.means["sim_dom_int"] == pytest.approx(0.8)
    assert baseline.eligible["sim_dom_int"] == 1
    assert world_baseline(reports, min_pubs=1).means["sim_dom_int"] == pytest.approx(0.4)


def test_deviation_labels():
    baseline = WorldBaseline(
        means={name: 0.8 for name in INDICATORS},
        eligible={name: 2 for name in INDICATORS}, min_pubs=1)
    above = deviation(_report("A", sim_dom_int=0.9), baseline)["sim_dom_int"]
    assert above.label == "above"
    assert above.delta == pytest.approx(0.1)
    at = deviation(_report("A", sim_dom_int=0.8), baseline)["sim_dom_int"]
    assert at.label == "at"
    assert at.delta == 0.0
    below = deviation(_report("A", sim_dom_int=0.5), baseline)["sim_dom_int"]
    assert below.label == "below"
    undefined = deviation(_report("A"), baseline)["sim_dom_int"]
    assert undefined.label == "undefined"
    assert undefined.delta is None


def test_deviation_undefined_baseline():
    baseline = world_baseline([])
    labels = deviation(_report("A", sim_dom_int=0.9), baseline)
    assert labels["sim_dom_int"].label == "undefined"


# --- table_reports: the indicators from a ProfileTable's count arrays -----

_NAMES = ("NL", "ES", "ZA", "BE", "AR")  # interned out of sorted order


def _table(disc, partner):
    """A ProfileTable over ``disc[kind, country, subject]`` and
    ``partner[kind, country, partner]`` (diagonal: the publication counts)."""
    n_c, n_s = disc.shape[1:]
    return ProfileTable(disc.copy(), partner.copy(), list(_NAMES[:n_c]),
                        [f"S{j}" for j in range(n_s)])


@st.composite
def _count_arrays(draw):
    """Small count arrays: families drawn empty, the mega kind on or off,
    rows scaled from another row, and wide rows of counts near 2**31."""
    n_c = draw(st.integers(1, 4))
    big = draw(st.booleans())
    n_s = draw(st.integers(8, 40) if big else st.integers(1, 6))
    counts = (st.integers(2**31 - 64, 2**31 + 64) | st.just(0) if big
              else st.integers(0, 4))
    disc = draw(arrays(np.int64, (4, n_c, n_s), elements=counts))
    partner = draw(arrays(np.int64, (4, n_c, n_c), elements=counts))
    partner[0] *= np.eye(n_c, dtype=np.int64)  # no domestic partners
    mega = draw(st.booleans())
    for kind in range(4):
        if (kind == 3 and not mega) or draw(st.booleans()):
            disc[kind] = 0
        if (kind == 3 and not mega) or draw(st.booleans()):
            partner[kind] *= np.eye(n_c, dtype=np.int64)
    for i in range(n_c):
        if draw(st.booleans()):  # birc proportional to mirc
            disc[1, i] = draw(st.integers(1, 3)) * disc[2, i]
            partner[1, i] = draw(st.integers(1, 3)) * partner[2, i]
        if draw(st.booleans()):  # domestic proportional to international
            disc[0, i] = draw(st.integers(1, 3)) * disc[1:, i].sum(axis=0)
    return disc, partner


@settings(max_examples=150, deadline=None)
@given(_count_arrays())
def test_table_reports_equal_five_indicators_and_the_oracle(arrays_):
    table = _table(*arrays_)
    reports = table_reports(table)
    assert [r.country for r in reports] == sorted(table)
    for report in reports:
        ps = table[report.country]
        assert report == five_indicators(ps)
        reference = five_sims_ref({"disc": ps.disciplinary, "part": ps.partner})
        for name in INDICATORS:
            value = report.indicator(name)
            assert (value is None) == (reference[name] is None)
            if value is not None:
                assert value == pytest.approx(reference[name], rel=1e-12)
                assert value <= 1.0


def test_table_reports_give_exactly_one_for_proportional_rows():
    base = np.array([3, 0, 7, 1, 2], dtype=np.int64)
    disc = np.stack([6 * base, 2 * base, base, base])[:, None, :]
    partner = np.zeros((4, 1, 1), dtype=np.int64)
    (report,) = table_reports(_table(disc, partner))
    assert (report.sim_dom_int, report.sim_dom_birc, report.sim_dom_mirc,
            report.sim_birc_mirc_disc) == (1.0, 1.0, 1.0, 1.0)
    assert report.sim_birc_mirc_partner is None  # a one-country table


def test_table_reports_fall_back_to_python_ints():
    """Counts near 2**31 in a wide row would wrap an int64 dot product."""
    width = 32
    row = 2**31 - np.arange(width, dtype=np.int64)
    disc = np.stack([row, row[::-1], row, 0 * row])[:, None, :]
    disc[1, 0, 0] = 1
    partner = np.zeros((4, 1, 1), dtype=np.int64)
    dom, birc = disc[0, 0].tolist(), disc[1, 0].tolist()
    dot = sum(a * b for a, b in zip(dom, birc))
    assert int((disc[0, 0] * disc[1, 0]).sum()) != dot  # int64 wraps
    assert _exact(disc[0], disc[1])[0].dtype == object
    (report,) = table_reports(_table(disc, partner))
    assert report.sim_dom_birc == min(
        dot / math.sqrt(sum(a * a for a in dom) * sum(b * b for b in birc)), 1.0)
    assert report.sim_dom_mirc == 1.0
    assert report == five_indicators(_table(disc, partner)["NL"])


def test_table_reports_on_the_fold_match_five_indicators():
    records = random_records(random.Random(21), 400, n_countries=12,
                             max_countries=7)
    table = build_profiles(records)
    rmap = RegionMap({"AA": "North", "AB": "South"})
    assert table_reports(table, rmap) == [
        five_indicators(table[c], rmap) for c in sorted(table)]
