import json
import random
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from collabsim import corpus
from collabsim.corpus import (
    DEFECT_CATEGORIES,
    CorpusError,
    CorpusStats,
    PublicationRecord,
    RecordError,
    RegionMap,
    RegionMapError,
    ValidationPolicy,
    fold_corpus,
    iter_accepted,
    load_region_map,
    normalize_country,
    open_corpus,
    parse_record,
    record_to_line,
    validate_corpus,
)
from collabsim.reporting import RunConfig, run_pipeline
from oracle import (
    line_reference,
    parse_reference,
    random_records,
    recount,
    recount_regions,
)

HUGE_INT = "1" * 5000  # past CPython's int-string digit limit


def test_parse_minimal_record():
    rec = parse_record('{"id":"p1","year":2010,"subjects":["PHYS"],"countries":["NL"]}')
    assert rec.id == "p1"
    assert rec.year == 2010
    assert rec.subjects == frozenset({"PHYS"})
    assert rec.countries == frozenset({"NL"})


def test_parse_normalizes_and_dedupes_countries():
    rec = parse_record('{"id":"p2","year":2010,"subjects":["PHYS"],"countries":["nl","NL","ES"]}')
    assert rec.countries == frozenset({"NL", "ES"})


def test_parse_empty_subjects_is_missing_subject():
    with pytest.raises(RecordError) as err:
        parse_record('{"id":"p3","year":2010,"subjects":[],"countries":["NL"]}', line_no=3)
    assert err.value.category == "missing_subject"
    assert "subjects" in str(err.value)
    assert err.value.line_no == 3


def test_parse_field_order_irrelevant():
    a = parse_record('{"id":"x","year":2000,"subjects":["A","B"],"countries":["NL","ES"]}')
    b = parse_record('{"countries":["ES","NL"],"subjects":["B","A"],"year":2000,"id":"x"}')
    assert a == b


def test_parse_ignores_extra_fields():
    rec = parse_record('{"id":"x","year":2000,"subjects":["A"],"countries":["NL"],"doi":"10.1/x"}')
    assert rec.id == "x"


@pytest.mark.parametrize("line,category,named", [
    ("not json at all", "malformed", None),
    ('{"year":2000,"subjects":["A"],"countries":["NL"]}', "malformed", "id"),
    ('{"id":"x","subjects":["A"],"countries":["NL"]}', "malformed", "year"),
    ('{"id":"x","year":"2000","subjects":["A"],"countries":["NL"]}', "malformed", "year"),
    ('{"id":"x","year":2000,"countries":["NL"]}', "missing_subject", "subjects"),
    ('{"id":"x","year":2000,"subjects":["A"]}', "missing_country", "countries"),
    ('{"id":"x","year":2000,"subjects":["A"],"countries":[]}', "missing_country", None),
    ('{"id":"x","year":2000,"subjects":["A"],"countries":["NLD"]}', "malformed", None),
    ('{"id":"x","year":2000,"subjects":[""],"countries":["NL"]}', "malformed", None),
    ("", "malformed", None),
    pytest.param("[" * 100_000, "malformed", "nested", id="deep-nesting"),
    pytest.param('{"id":"x","year":%s,"subjects":["A"],"countries":["NL"]}'
                 % HUGE_INT, "malformed", "integer", id="huge-integer"),
    pytest.param('{"id":"x","year":2000,"subjects":["\udcff"],"countries":["NL"]}',
                 "malformed", "UTF-8", id="undecodable-byte"),
    pytest.param('{"id":"x","year":2000,"subjects":["\\ud800"],"countries":["NL"]}',
                 "malformed", "UTF-8", id="escaped-surrogate"),
])
def test_parse_defects(line, category, named):
    with pytest.raises(RecordError) as err:
        parse_record(line, line_no=7)
    assert err.value.category == category
    assert "line 7" in str(err.value)
    if named:
        assert named in str(err.value)


def test_fast_path_takes_only_canonical_lines():
    canonical = '{"id":"p","year":2010,"subjects":["A","B"],"countries":["NL","ES"]}'
    # the accepting loop's layout: printable ASCII strings without '"' or
    # '\\', a year in JSON's integer grammar of at most 18 digits, no space
    layout = corpus._LAYOUT.fullmatch
    assert layout(canonical).groups() == ("p", "2010", '"A","B"',
                                          '["NL","ES"]')
    assert layout(canonical + "\n") and not layout(canonical + "\n\n")
    for line, matches in (
            (canonical.replace("2010", "-0"), True),
            (canonical.replace("2010", "9" * 18), True),
            (canonical.replace("2010", "9" * 19), False),
            (canonical.replace("2010", "02010"), False),
            (canonical.replace("2010", "-02010"), False),
            (canonical.replace('"p"', '"p\x01"'), False),
            (canonical.replace('"p"', '"p\x7f"'), False),
            (canonical.replace('"p"', '"p\\u0041"'), False),
            (canonical.replace('"p"', '""'), False),
            (canonical.replace('"A"', '"A]"'), True),
            (canonical.replace('"A"', '"\u00e9"'), False),
            (canonical.replace('"NL"', '"nl"'), True),
            (canonical.replace('"ES"', '" ES "'), True),
            (canonical.replace('"ES"', '""'), True),
            (canonical.replace('"A"', '" "'), True),
            (canonical.replace('["A","B"]', "[]"), False),
            (canonical.replace(',"year"', ', "year"'), False),
            (canonical + " x", False),
            (canonical[:-1] + ',"doi":"x"}', False),
            (canonical + "\r\n", False)):
        assert bool(layout(line)) is matches, line
        records, stats, _ = _checked_reference(
            [line], set(), ValidationPolicy().with_unmapped("keep"))
        assert list(iter_accepted([line])) == records, line
        assert validate_corpus([line]) == stats, line


def _outcome(parse, line):
    try:
        return parse(line, 7)
    except RecordError as exc:
        return str(exc), exc.category


_CANONICAL = {"id": "p1", "year": 2010, "subjects": ["A", "PHYS"],
              "countries": ["NL", "ES"]}
_DROP = object()

_ODD_ITEMS = {
    "subjects": st.one_of(
        st.sampled_from(["A", " B ", "B\n", "", "  ", "\u00e9", "\ud800",
                         "\udcff", "\u00a0C"]),
        st.integers(), st.none(), st.booleans(), st.just(["A"]), st.just({})),
    "countries": st.one_of(
        st.sampled_from(["NL", "nl", " ES ", "NL\n", "N\nL", "NLD", "N", "",
                         "\u00df", "\ufb00", "\ud800", "Nl"]),
        st.integers(), st.none(), st.just(["NL"]), st.just({})),
}


def _with_odd_item(field):
    """The canonical codes of ``field`` with one odd item put in."""
    valid = _CANONICAL[field]
    return st.builds(lambda odd, i: valid[:i] + [odd] + valid[i:],
                     _ODD_ITEMS[field], st.integers(0, len(valid)))


# one field of the canonical record replaced by a nearby defect or variant
_PERTURBATION = st.one_of(
    st.tuples(st.just("id"), st.sampled_from(
        ["", " ", "\ud800", "\udcff", "q\u00e9", 1, None, ["p"], _DROP])),
    st.tuples(st.just("year"), st.sampled_from(
        [True, 2010.0, "2010", "__HUGE__", 1850, -1, None, _DROP])),
    st.tuples(st.just("subjects"), st.one_of(
        _with_odd_item("subjects"), st.sampled_from(["A", None, {}, [], _DROP]))),
    st.tuples(st.just("countries"), st.one_of(
        _with_odd_item("countries"), st.sampled_from(["NL", None, {}, [], _DROP]))),
    st.tuples(st.just("doi"), st.text(max_size=3)),
)


def _apply(perturbations):
    record = dict(_CANONICAL)
    for field, value in perturbations:
        if value is _DROP:
            record.pop(field, None)
        else:
            record[field] = value
    return record


def _near_valid_line():
    """Canonical records with up to two fields perturbed (missing, mistyped,
    padded, non-ASCII, surrogates, huge), serialized in several ways and
    wrapped in stray whitespace or trailing text."""
    body = st.builds(
        lambda perturbations, ascii, compact: json.dumps(
            _apply(perturbations), ensure_ascii=ascii,
            separators=(",", ":") if compact else None,
        ).replace('"__HUGE__"', HUGE_INT),
        st.lists(_PERTURBATION, max_size=2), st.booleans(), st.booleans())
    return st.builds(lambda pre, text, post: pre + text + post,
                     st.sampled_from(["", "", "", " ", "\t", "\ufeff"]), body,
                     st.sampled_from(["", "\n", "", "\n", "\r\n", " ", " \n",
                                      "x", "\n\n", "{}", "\n "]))


@settings(max_examples=400)
@given(_near_valid_line())
def test_fast_path_matches_checked_parser(line):
    assert _outcome(parse_record, line) == _outcome(parse_reference, line)


@given(st.one_of(st.text(max_size=40),
                 st.binary(max_size=40).map(
                     lambda b: b.decode("utf-8", "surrogateescape"))))
def test_fast_path_matches_checked_parser_on_noise(line):
    assert _outcome(parse_record, line) == _outcome(parse_reference, line)


def test_parse_error_carries_line_number():
    with pytest.raises(RecordError, match="line 42"):
        parse_record("{broken", line_no=42)


@given(st.text(alphabet="abcdefXYZ ", min_size=0, max_size=6))
def test_normalize_idempotent(code):
    assert normalize_country(normalize_country(code)) == normalize_country(code)


def test_record_round_trip():
    rec = parse_record('{"id":"p","year":2012,"subjects":["B","A"],"countries":["es","NL"]}')
    assert parse_record(record_to_line(rec)) == rec


class _Code(str):
    pass


@pytest.mark.parametrize("rec", [
    PublicationRecord("p1", 2012, frozenset({"B", "A"}), frozenset({"NL", "ES"})),
    PublicationRecord('q"\\é\ud800😀', 1900, frozenset({'b"', "a\\", "é", "\x7f\n"}),
                      frozenset()),
    PublicationRecord(_Code("p2"), 2012, frozenset({_Code("S")}), frozenset({"NL"})),
    PublicationRecord("p3", True, frozenset({"S"}), frozenset({"NL"})),
    PublicationRecord("p4", 2010.0, frozenset({"S"}), frozenset({"NL"})),
    PublicationRecord("p5", None, frozenset({"S"}), frozenset({"NL"})),
    PublicationRecord(7, 2010, frozenset({"S"}), frozenset({"NL"})),
    PublicationRecord("p6", 2010, frozenset({3, 1}), frozenset({"NL"})),
    PublicationRecord("p7", 2010, frozenset({"S"}), (None,)),
    PublicationRecord("p8", 10**30, ["S", "A"], ("NL", "ES")),
])
def test_record_to_line_is_json_dumps(rec):
    """The escaped-string line (str id and codes, an int year) and the
    json.dumps fallback (anything else) both give json.dumps's bytes."""
    assert record_to_line(rec) == line_reference(rec)


# --- region map ---------------------------------------------------------

def test_load_region_map(tmp_path):
    path = tmp_path / "regions.csv"
    path.write_text("country,region\nNL,Europe & Central Asia\nZA,Sub-Saharan Africa\n")
    rmap = load_region_map(path)
    assert len(rmap) == 2
    assert rmap.region_of("NL") == "Europe & Central Asia"
    assert "ZA" in rmap
    assert rmap.regions == ("Europe & Central Asia", "Sub-Saharan Africa")


def test_load_region_map_utf8_bom(tmp_path):
    path = tmp_path / "regions.csv"
    path.write_bytes(b"\xef\xbb\xbfcountry,region\nNL,Europe & Central Asia\n")
    assert load_region_map(path).entries == {"NL": "Europe & Central Asia"}


def test_load_region_map_conflict(tmp_path):
    path = tmp_path / "regions.csv"
    path.write_text("country,region\nNL,Europe & Central Asia\nNL,North America\n")
    with pytest.raises(RegionMapError, match="conflicting region for NL"):
        load_region_map(path)


def test_load_region_map_duplicate_same_region_ok(tmp_path):
    path = tmp_path / "regions.csv"
    path.write_text("country,region\nNL,Europe & Central Asia\nnl,Europe & Central Asia\n")
    assert len(load_region_map(path)) == 1


def test_load_region_map_empty_warns(tmp_path, caplog):
    path = tmp_path / "regions.csv"
    path.write_text("")
    with caplog.at_level("WARNING"):
        rmap = load_region_map(path)
    assert len(rmap) == 0
    assert any("empty" in message for message in caplog.messages)


def test_load_region_map_bad_header(tmp_path):
    path = tmp_path / "regions.csv"
    path.write_text("iso,zone\nNL,Europe\n")
    with pytest.raises(RegionMapError, match="header"):
        load_region_map(path)


def test_load_region_map_unreadable(tmp_path):
    with pytest.raises(RegionMapError):
        load_region_map(tmp_path / "nope.csv")
    undecodable = tmp_path / "regions.csv"
    undecodable.write_bytes(b"country,region\nNL,Eur\xffope\n")
    with pytest.raises(RegionMapError):
        load_region_map(undecodable)


# --- corpus validation --------------------------------------------------

GOOD = '{"id":"g%d","year":2010,"subjects":["A"],"countries":["NL"]}'


def _region_map_nl(tmp_path):
    path = tmp_path / "regions.csv"
    path.write_text("country,region\nNL,Europe & Central Asia\n")
    return load_region_map(path)


def test_validate_counts_malformed(tmp_path):
    lines = [GOOD % 1, GOOD % 2, "garbage", GOOD % 3]
    stats = validate_corpus(lines, _region_map_nl(tmp_path))
    assert stats.total_lines == 4
    assert stats.accepted == 3
    assert stats.skipped_malformed == 1
    assert stats.balanced()
    assert stats.year_range == (2010, 2010)


def test_validate_counts_unmapped(tmp_path):
    lines = [GOOD % 1,
             '{"id":"u","year":2010,"subjects":["A"],"countries":["XX"]}']
    stats = validate_corpus(lines, _region_map_nl(tmp_path))
    assert stats.accepted == 1
    assert stats.skipped_unmapped_country == 1


def test_validate_keep_unmapped(tmp_path):
    lines = ['{"id":"u","year":2010,"subjects":["A"],"countries":["XX"]}']
    policy = ValidationPolicy().with_unmapped("keep")
    stats = CorpusStats()
    records = list(iter_accepted(lines, _region_map_nl(tmp_path), policy, stats))
    assert len(records) == 1
    assert stats.accepted == 1
    assert stats.skipped_unmapped_country == 0


def test_with_unmapped_rejects_unknown_action():
    for action in ("kep", "FAIL", ""):
        with pytest.raises(ValueError, match="unmapped"):
            ValidationPolicy().with_unmapped(action)


def test_validation_policy_rejects_unknown_actions():
    for field, action in (("malformed", "FAIL"), ("missing_subject", "keep"),
                          ("missing_country", ""), ("unmapped_country", "kep")):
        with pytest.raises(ValueError, match=field):
            ValidationPolicy(**{field: action})


def test_validate_fail_fast(tmp_path):
    lines = [GOOD % 1, "garbage"]
    with pytest.raises(CorpusError, match="line 2"):
        validate_corpus(lines, _region_map_nl(tmp_path), ValidationPolicy.fail_fast())


def test_validate_fail_fast_on_unmapped(tmp_path):
    lines = ['{"id":"u","year":2010,"subjects":["A"],"countries":["XX"]}']
    with pytest.raises(CorpusError, match="unmapped"):
        validate_corpus(lines, _region_map_nl(tmp_path), ValidationPolicy.fail_fast())


def test_validate_year_window():
    lines = ['{"id":"a","year":1850,"subjects":["A"],"countries":["NL"]}',
             '{"id":"b","year":2010,"subjects":["A"],"countries":["NL"]}']
    stats = validate_corpus(lines)
    assert stats.accepted == 1
    assert stats.skipped_malformed == 1


def test_validate_fail_fast_year_window(tmp_path):
    lines = [GOOD % 1, '{"id":"a","year":1850,"subjects":["A"],"countries":["NL"]}']
    with pytest.raises(CorpusError) as err:
        validate_corpus(lines, _region_map_nl(tmp_path), ValidationPolicy.fail_fast())
    assert str(err.value) == "line 2: year 1850 outside accepted window 1900-2100"


_LINE = st.one_of(
    st.builds(
        lambda i, year, subs, cs: json.dumps(
            {"id": f"p{i}", "year": year, "subjects": subs, "countries": cs}),
        st.integers(0, 99),
        st.integers(1990, 2030),
        st.lists(st.sampled_from(["A", "B", "C"]), max_size=3),
        st.lists(st.sampled_from(["NL", "ES", "XX", "ZZZ"]), max_size=3),
    ),
    st.sampled_from(["", "{", "[1,2]", '{"id":1}', "null"]))


def _line_strategy():
    return st.lists(_LINE, max_size=30)


@given(_line_strategy())
def test_accounting_identity(lines):
    stats = validate_corpus(lines)
    assert stats.balanced()
    assert stats.total_lines == len(lines)
    # XX is a valid code the map leaves unmapped: keeping it reproduces the
    # counters without a map, skipping drops exactly the records holding it
    region_map = RegionMap({"NL": "Europe", "ES": "Europe"})
    keep = ValidationPolicy().with_unmapped("keep")
    assert validate_corpus(lines, region_map, keep) == stats
    everything = list(iter_accepted(lines))
    skip_stats = CorpusStats()
    mapped = list(iter_accepted(lines, region_map, stats=skip_stats))
    assert mapped == [r for r in everything if r.countries <= {"NL", "ES"}]
    assert skip_stats.skipped_unmapped_country == len(everything) - len(mapped)
    assert skip_stats.balanced()
    years = [r.year for r in mapped]
    assert skip_stats.year_range == ((min(years), max(years)) if years else None)


@given(_line_strategy(), st.integers(0, 30))
def test_stats_merge_matches_single_pass(lines, cut):
    cut = min(cut, len(lines))
    whole = validate_corpus(lines)
    merged = validate_corpus(lines[:cut]) + validate_corpus(lines[cut:])
    assert merged == whole


@given(st.lists(st.binary(max_size=60), max_size=10))
def test_any_bytes_are_accepted_or_counted(chunks):
    lines = [chunk.decode("utf-8", "surrogateescape") for chunk in chunks]
    stats = validate_corpus(lines)
    assert stats.balanced()
    assert stats.total_lines == len(lines)


def test_stats_merge_year_range():
    a = CorpusStats(total_lines=1, accepted=1, year_min=2001, year_max=2005)
    b = CorpusStats(total_lines=1, accepted=1, year_min=1999, year_max=2003)
    assert (a + b).year_range == (1999, 2005)
    assert (a + CorpusStats()).year_range == (2001, 2005)


def test_stats_merge_adds_every_counter():
    names = [f.name for f in fields(CorpusStats)
             if f.name not in ("year_min", "year_max")]
    a = CorpusStats(**{name: i + 1 for i, name in enumerate(names)})
    b = CorpusStats(**{name: 100 * (i + 1) for i, name in enumerate(names)})
    merged = a + b
    for i, name in enumerate(names):
        assert getattr(merged, name) == 101 * (i + 1), name
    assert merged.year_range is None
    assert {f"skipped_{c}" for c in DEFECT_CATEGORIES} == {
        name for name in names if name.startswith("skipped_")}
    assert merged.skipped_total == sum(
        getattr(merged, f"skipped_{c}") for c in DEFECT_CATEGORIES)


def test_stats_as_dict_keeps_validate_key_order():
    # validate prints these keys in this order; the benchmark digests them
    stats = CorpusStats(7, 3, 1, 1, 1, 1, year_min=2001, year_max=2004)
    assert list(stats.as_dict().items()) == [
        ("total_lines", 7), ("accepted", 3),
        ("skipped_missing_country", 1), ("skipped_missing_subject", 1),
        ("skipped_unmapped_country", 1), ("skipped_malformed", 1),
        ("year_range", [2001, 2004])]
    assert CorpusStats().as_dict()["year_range"] is None


def test_iter_accepted_streams_with_stats():
    lines = [GOOD % i for i in range(5)]
    stats = CorpusStats()
    seen = []
    for rec in iter_accepted(lines, stats=stats):
        seen.append(rec)
    assert len(seen) == 5
    assert stats.accepted == 5
    assert all(rec.countries == frozenset({"NL"}) for rec in seen)


# --- the accepting loop against a per-line checked reference --------------

def _checked_reference(lines, mapped, policy):
    """Records, counters and fail-fast message of a pass that reads every
    line with ``parse_reference`` alone."""
    stats, records = CorpusStats(), []
    for line_no, line in enumerate(lines, start=1):
        stats.total_lines += 1
        try:
            record = parse_reference(line, line_no)
        except RecordError as exc:
            if getattr(policy, exc.category) == "fail":
                return records, stats, str(exc)
            name = f"skipped_{exc.category}"
            setattr(stats, name, getattr(stats, name) + 1)
            continue
        if not 1900 <= record.year <= 2100:
            if policy.malformed == "fail":
                return records, stats, (f"line {line_no}: year {record.year} "
                                        "outside accepted window 1900-2100")
            stats.skipped_malformed += 1
            continue
        unmapped = sorted(record.countries - mapped)
        if unmapped and policy.unmapped_country != "keep":
            if policy.unmapped_country == "fail":
                return records, stats, (f"line {line_no}: unmapped countries "
                                        f"{unmapped}")
            stats.skipped_unmapped_country += 1
            continue
        stats.accepted += 1
        records.append(record)
    if records:
        stats.year_min = min(r.year for r in records)
        stats.year_max = max(r.year for r in records)
    return records, stats, None


# compact lines (accepted at once, but for an escaped lone surrogate) with
# years at the ingest window's edges and on both sides of the analysis years
_CANONICAL_LINE = st.builds(
    lambda i, year, subjects, countries: json.dumps(
        {"id": f"c{i}", "year": year, "subjects": subjects,
         "countries": countries}, separators=(",", ":")),
    st.integers(0, 9),
    st.one_of(st.sampled_from([1899, 1900, 2100, 2101]),
              st.integers(2005, 2020)),
    st.lists(st.sampled_from(["A", "B", "\u00e9", "\ud800"]), min_size=1,
             max_size=3),
    st.lists(st.sampled_from(["NL", "ES", "XX"]), min_size=1, max_size=3))

_NOISE = st.one_of(st.text(max_size=40),
                   st.binary(max_size=40).map(
                       lambda b: b.decode("utf-8", "surrogateescape")))


def _assert_table_matches(table, reference):
    assert set(table) == set(reference)
    for country, ps in table.items():
        ref = reference[country]
        for family, profile in ps.disciplinary.items():
            assert profile.counts == dict(ref["disc"][family])
        for family, profile in ps.partner.items():
            assert profile.counts == dict(ref["part"][family])
        assert ps.pub_counts.n_domestic == ref["n"]["domestic"]
        assert ps.pub_counts.n_bilateral == ref["n"]["birc"]
        assert ps.pub_counts.n_multilateral == ref["n"]["mirc"]
        assert ps.pub_counts.n_mega == ref["n"]["mega"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_CANONICAL_LINE, _near_valid_line(), _LINE, _NOISE),
                max_size=25),
       st.sampled_from(["skip", "keep", "fail"]), st.sampled_from([None, 3]),
       st.sampled_from(["dedup", "country"]))
def test_accepting_loop_matches_checked_reference(lines, action, mega, counting):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as fh:
            fh.writelines(line if line.endswith("\n") else line + "\n"
                          for line in lines)
        regions = Path(tmp) / "regions.csv"
        regions.write_text("country,region\nNL,North\nES,South\n")
        with open_corpus(path) as fh:
            lines = fh.readlines()  # as the pipeline reads them
        cfg = RunConfig(path, regions, Path(tmp) / "out", mega_threshold=mega,
                        region_counting=counting, fail_fast=action == "fail",
                        unmapped_policy=action)
        region_map, policy = load_region_map(regions), cfg.policy()
        # XX is a valid code the map leaves unmapped
        records, stats, error = _checked_reference(
            lines, set(region_map.entries), policy)
        if error is not None:
            for run in (lambda: validate_corpus(lines, region_map, policy),
                        lambda: list(iter_accepted(lines, region_map, policy)),
                        lambda: run_pipeline(cfg)):
                with pytest.raises(CorpusError) as err:
                    run()
                assert str(err.value) == error
            return
        assert validate_corpus(lines, region_map, policy) == stats
        assert list(iter_accepted(lines, region_map, policy)) == records
        result = run_pipeline(cfg)
    kept = [r for r in records if cfg.year_min <= r.year <= cfg.year_max]
    assert result.stats == stats
    assert result.n_year_filtered == len(records) - len(kept)
    _assert_table_matches(result.table, recount(kept, mega))
    assert result.region_counts.counts == recount_regions(
        kept, lambda c: region_map.entries.get(c, "UNKNOWN"),
        counting == "country", mega)


def test_run_pipeline_builds_no_record_on_canonical_corpus(tmp_path,
                                                           monkeypatch):
    built = []

    class CountedRecord(corpus.PublicationRecord):
        def __init__(self, *fields):
            built.append(fields[0])
            super().__init__(*fields)

    monkeypatch.setattr(corpus, "PublicationRecord", CountedRecord)
    records = random_records(random.Random(3), 400, max_countries=6)
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(record_to_line(r) + "\n" for r in records))
    regions = tmp_path / "regions.csv"
    regions.write_text("country,region\n" + "".join(
        f"{c},R{i % 3}\n" for i, c in enumerate(
            sorted({c for r in records for c in r.countries}))))
    result = run_pipeline(RunConfig(path, regions, tmp_path / "out"))
    assert built == []
    assert result.stats.accepted == len(records)
    _assert_table_matches(result.table, recount(records, None, 2008, 2017))
    # the counter sees the records the public view builds
    assert len(list(iter_accepted(path.read_text().splitlines()))) == len(records)
    assert len(built) == len(records)


# layout lines whose field texts repeat: canonical ones and ones the layout
# matches that a field check refuses (lower-case, padded or empty country,
# empty subject, -0 and 18-digit years outside the window) or that it does
# not match (a control character in the id, an escape, a 19-digit year);
# some texts are a valid subjects field and a refused countries field
_LAYOUT_LINE = st.builds(
    lambda rec_id, year, subjects, countries: (
        '{"id":%s,"year":%s,"subjects":[%s],"countries":[%s]}\n'
        % (rec_id, year, subjects, countries)),
    st.sampled_from(['"p1"', '"p2"', '"p 3"', '"p\x01"', '"q\\u00e9"']),
    st.sampled_from(["2010", "2012", "1900", "2100", "1899", "-0", "0",
                     "9" * 18, "1" * 19]),
    st.sampled_from(['"A"', '"A","B"', '"B","A"', '"PHYS"," C "', '"A]"',
                     '"A","A"', '""', '" "', '"A",""', '"\\u00e9"',
                     '"nl"', '" ES "', '"NL"']),
    st.sampled_from(['"NL"', '"NL","ES"', '"ES","NL"', '"XX"', '"NL","NL"',
                     '"nl"', '" ES "', '""', '"NL",""', '"NLD"']))


# records outside the layout in the spellings the checked parser accepts
# at once or normalizes: json.dumps's default separators (escaping a
# non-ASCII subject), sorted keys with an extra key, raw non-ASCII, leading
# whitespace and a BOM
_SPELLED_LINE = st.builds(
    lambda spell, rec_id, year, subjects, countries: spell(
        {"id": rec_id, "year": year, "subjects": subjects,
         "countries": countries}) + "\n",
    st.sampled_from([
        json.dumps,
        lambda rec: json.dumps({**rec, "title": "T"}, sort_keys=True),
        lambda rec: json.dumps(rec, ensure_ascii=False),
        lambda rec: " " + json.dumps(rec, separators=(",", ":")),
        lambda rec: "\ufeff" + json.dumps(rec, separators=(",", ":"))]),
    st.sampled_from(["p1", "p2"]), st.sampled_from([2010, 1899]),
    st.lists(st.sampled_from(["A", "B", " C", "\u00e9"]), min_size=1,
             max_size=2),
    st.lists(st.sampled_from(["NL", "ES", "nl", "XX"]), min_size=1,
             max_size=2))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_LAYOUT_LINE, _SPELLED_LINE,
                          _LINE.map(lambda l: l + "\n")), max_size=40),
       st.sampled_from(["skip", "keep", "fail"]))
def test_layout_recogniser_matches_checked_reference(lines, action):
    policy = (ValidationPolicy.fail_fast() if action == "fail"
              else ValidationPolicy()).with_unmapped(action)
    region_map = RegionMap({"NL": "North", "ES": "South"})
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        with open_corpus(path) as fh:
            lines = fh.readlines()  # as fold_corpus reads them
        records, stats, error = _checked_reference(lines, {"NL", "ES"}, policy)
        # the field caches clear mid-stream; the file folds in three ranges
        mp.setattr(corpus, "FIELD_CACHE_SIZE", 2)
        mp.setattr(corpus, "SHARD_MIN_BYTES", 64)
        mp.setattr(corpus, "SHARD_WORKERS", 3)
        if error is not None:
            for run in (lambda: list(iter_accepted(lines, region_map, policy)),
                        lambda: fold_corpus(path, list, region_map, policy)):
                with pytest.raises(CorpusError) as err:
                    run()
                assert str(err.value) == error
            return
        got = CorpusStats()
        assert list(iter_accepted(lines, region_map, policy, got)) == records
        assert got == stats
        folded, parts = fold_corpus(path, list, region_map, policy)
    assert folded == stats
    assert [PublicationRecord(*row) for part in parts for row in part] == records


def test_countries_churn_keeps_the_subjects_cache(monkeypatch):
    """Countries texts that never repeat clear only their own cache: each
    subjects text is parsed once."""
    parsed = []
    parse = corpus._subject_set
    monkeypatch.setattr(corpus, "_subject_set",
                        lambda text: parsed.append(text) or parse(text))
    monkeypatch.setattr(corpus, "FIELD_CACHE_SIZE", 8)
    codes = [a + b for a in "ABC" for b in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"]
    lines = ['{"id":"p%d","year":2010,"subjects":["S%d"],"countries":'
             '["%s","%s"]}' % (i, i % 3, codes[i], codes[i + 1])
             for i in range(60)]
    assert len(list(corpus._accepted(lines))) == 60
    assert sorted(parsed) == ['"S0"', '"S1"', '"S2"']
