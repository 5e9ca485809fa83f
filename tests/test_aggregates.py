import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from collabsim.aggregates import (
    CAGR,
    LOGLINEAR,
    RegionYearCounts,
    birc_share_points,
    boxplot_stats,
    growth_rate,
    growth_table,
    region_boxplot,
    scatter_dataset,
    threshold_flags,
)
from collabsim.classify import TypeCounts, classify
from collabsim.corpus import PublicationRecord, RegionMap
from collabsim.profiles import CountryProfileSet
from collabsim.similarity import CountrySimilarityReport, INDICATORS

from oracle import quantile_type7


def _pairs(values):
    return [(f"C{i}", v) for i, v in enumerate(values)]


# --- boxplots -------------------------------------------------------------

def test_boxplot_four_values():
    stats = boxplot_stats(_pairs([0.2, 0.4, 0.6, 0.8]))
    assert stats.median == pytest.approx(0.5, abs=1e-15)
    assert stats.q1 == pytest.approx(0.35, abs=1e-15)
    assert stats.q3 == pytest.approx(0.65, abs=1e-15)
    assert stats.minimum == 0.2
    assert stats.maximum == 0.8
    assert stats.n == 4
    assert stats.outliers == ()


def test_boxplot_single_value_degenerate():
    stats = boxplot_stats(_pairs([0.7]))
    assert (stats.minimum, stats.q1, stats.median, stats.q3, stats.maximum) \
        == (0.7, 0.7, 0.7, 0.7, 0.7)


@settings(max_examples=200)
@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=40),
       st.randoms(use_true_random=False))
def test_boxplot_matches_reference_and_order_insensitive(values, rng):
    stats = boxplot_stats(_pairs(values))
    assert stats.q1 == pytest.approx(quantile_type7(values, 0.25), abs=1e-12)
    assert stats.median == pytest.approx(quantile_type7(values, 0.50), abs=1e-12)
    assert stats.q3 == pytest.approx(quantile_type7(values, 0.75), abs=1e-12)
    shuffled = _pairs(values)
    rng.shuffle(shuffled)
    other = boxplot_stats(shuffled)
    assert (other.q1, other.median, other.q3) == (stats.q1, stats.median, stats.q3)
    assert sorted(v for _, v in other.outliers) == sorted(v for _, v in stats.outliers)


def test_boxplot_outliers_beyond_fences():
    values = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.99]
    stats = boxplot_stats(_pairs(values))
    q1 = quantile_type7(values, 0.25)
    q3 = quantile_type7(values, 0.75)
    fence = q3 + 1.5 * (q3 - q1)
    assert 0.99 > fence
    assert stats.outliers == (("C7", 0.99),)
    assert stats.maximum == 0.99


def test_region_boxplot_grouping_and_undefined():
    rmap = RegionMap({"AA": "North", "AB": "North", "AC": "South"})
    values = [("AA", 0.2), ("AB", 0.4), ("AC", None), ("ZZ", 0.9)]
    grouped = region_boxplot(values, rmap)
    assert set(grouped.per_region) == {"North", "UNKNOWN"}
    assert grouped.per_region["North"].n == 2
    assert grouped.n_undefined == 1
    assert grouped.empty_regions == ("South",)


def test_region_boxplot_rejects_out_of_range():
    with pytest.raises(ValueError, match="range"):
        region_boxplot([("AA", 5.0)], RegionMap({"AA": "North"}))


# --- growth rates -----------------------------------------------------------

@pytest.mark.parametrize("method", [CAGR, LOGLINEAR])
def test_growth_constant_series_is_zero(method):
    result = growth_rate({2000: 100, 2001: 100, 2002: 100}, method)
    assert result.rate == pytest.approx(0.0, abs=1e-12)
    assert result.year_span == (2000, 2002)


@pytest.mark.parametrize("method", [CAGR, LOGLINEAR])
def test_growth_doubling_is_hundred_percent(method):
    result = growth_rate({2000: 100, 2001: 200}, method)
    assert result.rate_pct == pytest.approx(100.0, abs=1e-9)


@pytest.mark.parametrize("method", [CAGR, LOGLINEAR])
def test_growth_recovers_geometric_series(method):
    # constructed 11.4 %/year series over the 37-year span
    counts = {year: 100.0 * 1.114 ** (year - 1980) for year in range(1980, 2018)}
    result = growth_rate(counts, method)
    assert result.rate_pct == pytest.approx(11.4, abs=0.05)
    assert result.year_span == (1980, 2017)


def test_growth_methods_agree_on_geometric():
    counts = {year: 7.0 * 1.031 ** (year - 2000) for year in range(2000, 2018)}
    cagr = growth_rate(counts, CAGR).rate
    loglin = growth_rate(counts, LOGLINEAR).rate
    assert loglin == pytest.approx(cagr, rel=1e-9)


def test_growth_skips_zero_years():
    counts = {2000: 0, 2001: 100, 2003: 0, 2005: 200}
    result = growth_rate(counts, CAGR)
    assert result.year_span == (2001, 2005)
    assert result.rate == pytest.approx(2.0 ** 0.25 - 1.0)


def test_growth_undefined_with_fewer_than_two_years():
    assert growth_rate({2000: 100}, CAGR) is None
    assert growth_rate({2000: 0, 2001: 0}, LOGLINEAR) is None
    assert growth_rate({}, CAGR) is None


def test_growth_unknown_method():
    with pytest.raises(ValueError, match="method"):
        growth_rate({2000: 1, 2001: 2}, "linear")


@settings(max_examples=60)
@given(st.dictionaries(st.integers(1980, 2020), st.integers(1, 10_000),
                       min_size=2, max_size=15),
       st.integers(2, 50),
       st.sampled_from([CAGR, LOGLINEAR]))
def test_growth_scale_invariance(counts, factor, method):
    base = growth_rate(counts, method)
    scaled = growth_rate({y: factor * n for y, n in counts.items()}, method)
    assert scaled.rate == pytest.approx(base.rate, rel=1e-9, abs=1e-12)


# --- region-year counting ---------------------------------------------------

def _rec(rid, countries, year):
    return PublicationRecord(rid, year, frozenset({"S"}), frozenset(countries))


def test_region_counts_dedup_vs_country_mode():
    rmap = RegionMap({"AA": "North", "AB": "North", "AC": "South"})
    rec = _rec("p", {"AA", "AB", "AC"}, 2010)
    ctype = classify(rec)

    dedup = RegionYearCounts(mode="dedup")
    dedup.add(rec, ctype, rmap)
    assert dedup.annual("North", ctype.kind) == {2010: 1}
    assert dedup.annual("South", ctype.kind) == {2010: 1}

    summed = RegionYearCounts(mode="country")
    summed.add(rec, ctype, rmap)
    assert summed.annual("North", ctype.kind) == {2010: 2}
    assert summed.annual("South", ctype.kind) == {2010: 1}


def test_region_counts_merge_and_growth_table():
    rmap = RegionMap({"AA": "North", "AB": "North"})
    a = RegionYearCounts()
    b = RegionYearCounts()
    for year, target in ((2000, a), (2001, b), (2001, b)):
        rec = _rec(f"p{year}", {"AA", "AB"}, year)
        target.add(rec, classify(rec), rmap)
    merged = a + b
    assert merged.annual("North", classify(_rec("x", {"AA", "AB"}, 2000)).kind) \
        == {2000: 1, 2001: 2}
    table = growth_table(merged, CAGR)
    assert len(table) == 1
    entry = table[0]
    assert entry.region == "North"
    assert entry.collab_type == "bilateral"
    assert entry.rate == pytest.approx(1.0)


def test_region_counts_mode_mismatch():
    with pytest.raises(ValueError):
        RegionYearCounts(mode="dedup") + RegionYearCounts(mode="country")
    with pytest.raises(ValueError):
        RegionYearCounts(mode="per-capita")


# --- threshold flags ---------------------------------------------------------

def test_threshold_flags_examples():
    flags = threshold_flags([("A", 0.45), ("B", 0.55)], 0.5)
    assert flags.flagged == (("A", 0.45),)
    assert threshold_flags([("A", 0.50)], 0.5).flagged == ()  # strict inequality
    flags = threshold_flags([("A", None)], 0.5)
    assert flags.flagged == ()
    assert flags.n_undefined == 1


@given(st.lists(st.tuples(st.text("ABC", min_size=1, max_size=2),
                          st.one_of(st.none(), st.floats(0, 1, allow_nan=False))),
                max_size=20))
def test_threshold_flags_extremes(values):
    assert threshold_flags(values, 0.0).flagged == ()
    defined = sorted((c, v) for c, v in values if v is not None)
    assert list(threshold_flags(values, 1.0 + 1e-9).flagged) == defined


def test_threshold_flags_matches_manual_filter():
    rng = random.Random(3)
    values = [(f"C{i}", round(rng.random(), 3)) for i in range(50)]
    flags = threshold_flags(values, 0.5)
    manual = sorted((c, v) for c, v in values if v < 0.5)
    assert list(flags.flagged) == manual


# --- scatter datasets ---------------------------------------------------------

def _report(country, region="R", n_dom=5, n_birc=3, n_mirc=2, n_mega=0, **sims):
    values = {name: None for name in INDICATORS}
    values.update(sims)
    total = n_dom + n_birc + n_mirc + n_mega
    return CountrySimilarityReport(
        country=country, region=region, n_pub_total=total, n_dom=n_dom,
        n_birc=n_birc, n_mirc=n_mirc, n_mega=n_mega, **values)


def test_scatter_international_share_vs_similarity():
    reports = [
        _report("AA", sim_dom_int=0.9),
        _report("AB", region="Other", sim_dom_int=0.8),
        _report("AC", n_dom=10, n_birc=0, n_mirc=0),  # no similarity defined
        _report("AD", region="Other", n_dom=2, n_birc=1, n_mirc=0, n_mega=1,
                sim_dom_int=0.5),
        _report("AE", n_dom=0, n_birc=0, n_mirc=0, sim_dom_int=0.4),  # no output
    ]
    points, dropped = scatter_dataset(reports, x="international_share",
                                      y="sim_dom_int", size="n_pub_total")
    assert dropped == 2
    assert [p.country for p in points] == ["AA", "AB", "AD"]
    assert points[0].x == pytest.approx(0.5)
    assert points[0].size == 10
    assert points[2].x == pytest.approx(0.5)  # (birc + mirc + mega) / total

    only_r, _ = scatter_dataset(reports, x="international_share",
                                y="sim_dom_int", region="R")
    assert [p.country for p in only_r] == ["AA"]


def test_scatter_birc_mirc_configuration():
    reports = [
        _report("AA", sim_birc_mirc_disc=0.7, sim_birc_mirc_partner=0.6),
        _report("AB", n_mirc=0, sim_birc_mirc_disc=None),  # dropped
        _report("AC", n_mega=4, sim_birc_mirc_disc=0.5, sim_birc_mirc_partner=0.4),
    ]
    points, dropped = scatter_dataset(reports, x="sim_birc_mirc_disc",
                                      y="sim_birc_mirc_partner", size="n_int")
    assert dropped == 1
    assert points[0].size == 5  # n_birc + n_mirc
    assert (points[0].x, points[0].y) == (0.7, 0.6)
    assert points[1].size == 9  # n_birc + n_mirc + n_mega


def test_scatter_unknown_selector_lists_names():
    with pytest.raises(ValueError) as err:
        scatter_dataset([], x="nope", y="sim_dom_int")
    assert "international_share" in str(err.value)
    assert "nope" in str(err.value)


# --- bilateral share points -----------------------------------------------

def _table_entry(country, n_dom, n_birc, n_mirc):
    ps = CountryProfileSet.empty(country)
    for _ in range(n_dom):
        ps.pub_counts.add(classify(_rec("x", {country}, 2010)).kind)
    counts = ps.pub_counts
    counts.n_bilateral += n_birc
    counts.n_multilateral += n_mirc
    return ps


def test_birc_share_points_modes():
    table = {"AA": _table_entry("AA", 4, 3, 3), "AB": _table_entry("AB", 2, 0, 0)}
    international = dict(birc_share_points(table, "international"))
    assert international["AA"] == pytest.approx(0.5)
    assert international["AB"] is None
    total = dict(birc_share_points(table, "total"))
    assert total["AA"] == pytest.approx(0.3)
    assert total["AB"] == 0.0
    with pytest.raises(ValueError):
        birc_share_points(table, "per-year")
