"""The chunk matcher and the columnar chunk fold: validate's counters and
the blocks a folding pass reads in numpy give the counters, profiles and
region counts of the line loop and the oracle."""

import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from collabsim import columns, corpus, profiles
from collabsim.corpus import (CorpusError, CorpusStats, iter_accepted,
                              validate_corpus)
from collabsim.options import RunConfig, run_validate
from collabsim.profiles import ProfileFold, dump_rows
from collabsim.reporting import run_pipeline
from oracle import (DISC_FAMILIES, PART_FAMILIES, recount, recount_regions)

REGION_MAP = {"NL": "North", "ES": "South", "ZA": "South", "FR": "North"}
REGIONS_CSV = "country,region\n" + "".join(
    f"{code},{region}\n" for code, region in REGION_MAP.items())

# A layout line of canonical fields, duplicate codes among them, with at
# most one defect: a year outside the analysis window 2008-2017 or outside
# 1900-2100, or not a layout year; a padded, empty or space-only subject;
# a lower-case, padded, unmapped (XX) or refused country code.
_DEFECTS = {
    "year": ["2007", "2018", "1900", "2100", "1899", "2101", "0", "-5",
             "02010"],
    "subjects": ['" C "', '"A "', '""', '" "'],
    "countries": ['"nl"', '" ES"', '"Za "', '"XX"', '"NLD"', '""'],
}


def _layout_line(rec_id, year, subjects, countries, defect):
    fields = {"year": [year], "subjects": subjects, "countries": countries}
    if defect is not None:
        field, value = defect
        fields[field] = [value] if field == "year" else fields[field] + [value]
    return '{"id":"%s","year":%s,"subjects":[%s],"countries":[%s]}' % (
        rec_id, *(",".join(fields[name]) for name in fields))


_LAYOUT_LINE = st.builds(
    _layout_line,
    st.sampled_from(["p1", "p2", "p 3", ""]),
    st.sampled_from(["2008", "2010", "2012", "2017"]),
    st.lists(st.sampled_from(['"A"', '"B"', '"PHYS"']), min_size=1,
             max_size=3),
    st.lists(st.sampled_from(['"NL"', '"ES"', '"ZA"', '"FR"']), min_size=1,
             max_size=4),
    st.one_of(st.none(), st.sampled_from(
        [(field, value) for field, values in _DEFECTS.items()
         for value in values])))

# the same records in spellings outside the layout
_SPELLED_LINE = st.builds(
    lambda spell, year, subjects, countries: spell(
        {"id": "s", "year": year, "subjects": subjects,
         "countries": countries}),
    st.sampled_from([json.dumps,
                     lambda rec: json.dumps({**rec, "t": 1}, sort_keys=True),
                     lambda rec: " " + json.dumps(rec, separators=(",", ":"))]),
    st.sampled_from([2010, 2012, 2018, 1899]),
    st.lists(st.sampled_from(["A", " B", "é"]), min_size=1, max_size=2),
    st.lists(st.sampled_from(["NL", "es", "XX", "ZA"]), min_size=1,
             max_size=3))

_LINE = st.one_of(
    _LAYOUT_LINE, _LAYOUT_LINE, _SPELLED_LINE,
    # blank and truncated lines
    st.sampled_from(["", "   "]),
    st.tuples(_LAYOUT_LINE, st.integers(1, 40)).map(
        lambda cut: cut[0][:-cut[1]]))


@st.composite
def _corpus(draw):
    """Lines that repeat, so that counted chunks carry weights, with or
    without a final LF."""
    pool = draw(st.lists(_LINE, min_size=1, max_size=12))
    lines = draw(st.lists(st.sampled_from(pool), max_size=60))
    text = "".join(line + "\n" for line in lines)
    if lines and draw(st.booleans()):
        text = text[:-1]
    return text.encode("utf-8")


def _line_pass(path, cfg):
    """The counters, the number of records outside the analysis window, the
    fold of the others and those records, read line by line, or the
    fail-fast error."""
    stats = CorpusStats()
    try:
        with corpus.open_corpus(path) as lines:
            records = list(iter_accepted(lines, REGION_MAP, cfg.policy(),
                                         stats))
    except CorpusError as exc:
        return f"error: {exc}"
    kept = [r for r in records if cfg.year_min <= r.year <= cfg.year_max]
    fold = ProfileFold(cfg.mega_threshold, REGION_MAP, cfg.region_counting)
    for record in kept:
        fold.add(record)
    return (stats, len(records) - len(kept), list(dump_rows(fold.table())),
            fold.region_counts().counts), kept


def _column_pass(cfg):
    try:
        result = run_pipeline(cfg)
    except CorpusError as exc:
        return f"error: {exc}"
    return (result.stats, result.n_year_filtered,
            list(dump_rows(result.table)), result.region_counts.counts)


def _oracle_rows(reference):
    """The profile dump rows of an oracle recount."""
    rows = []
    for country, entry in reference.items():
        for name, key, families in (("disciplinary", "disc", DISC_FAMILIES),
                                    ("partner", "part", PART_FAMILIES)):
            rows += [(country, name, family, dimension, count)
                     for family in families
                     for dimension, count in entry[key][family].items()
                     if count]
    return sorted(rows)


@settings(max_examples=60, deadline=None)
@given(_corpus(), st.sampled_from(["skip", "keep", "fail"]),
       st.sampled_from([None, 3]), st.sampled_from(["dedup", "country"]),
       st.sampled_from([48, 200, 1 << 16]),
       st.sampled_from([corpus.COUNTED_DISTINCT_MAX, 1.0]),
       st.sampled_from([1, 3]))
@example(b'{"id":"p1","year":2010,"subjects":["A"],"countries":["NL"]}\n'
         b'{"id":"p2","year":2010,"subjects":["A"],"countries":["NL","XX"]}\n'
         b'{"id":"p3","year":2010,"subjects":[""],"countries":["NL"]}\n',
         "fail", None, "dedup", 48, 1.0, 1)
def test_column_fold_equals_line_pass(data, action, mega, mode, chunk,
                                      distinct_max, workers):
    """In chunks counted or not, cut into ranges or not and flushed in
    small pieces, the columnar fold gives the counters, the number of
    records outside the analysis window, the profile dump and the region
    counts of the line pass, which the oracle recounts; a fail-fast run
    fails on the line pass's line with its message."""
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        tmp = Path(tmp)
        path, regions = tmp / "corpus.jsonl", tmp / "regions.csv"
        path.write_bytes(data)
        regions.write_text(REGIONS_CSV)
        cfg = RunConfig(path, regions, tmp / "out", mega_threshold=mega,
                        region_counting=mode, fail_fast=action == "fail",
                        unmapped_policy=action)
        expected = _line_pass(path, cfg)
        patch.setattr(corpus, "READ_CHUNK", chunk)
        patch.setattr(corpus, "COUNTED_DISTINCT_MAX", distinct_max)
        patch.setattr(corpus, "SHARD_MIN_BYTES", 64)
        patch.setattr(corpus, "SHARD_WORKERS", workers)
        patch.setattr(profiles, "FLUSH_PAIRS", 16)
        got = _column_pass(cfg)
    if isinstance(expected, str):
        assert got == expected
        return
    expected, kept = expected
    assert got == expected
    assert got[2] == _oracle_rows(recount(kept, mega))
    assert got[3] == recount_regions(
        kept, lambda code: REGION_MAP.get(code, "UNKNOWN"), mode == "country",
        mega)


_MIXED = (
    b'{"id":"p1","year":2012,"subjects":["A"],"countries":["NL"]}\n'
    b'{"id":"p2","year":2008,"subjects":[" B"],"countries":["ES","NL"]}\n'
    b'{"id":"p3","year":2010,"subjects":["A"],"countries":["NL","XX"]}\n'
    b'{"id":"p4","year":2101,"subjects":["A"],"countries":["ZA"]}\n'
    b'{"id":"p5","year":2010,"subjects":["A"],"countries":["za"]}\n'
    b'{"id":"p6","year":2100,"subjects":["A"],"countries":["FR"]}\n'
    b'{"id":"p7","year":1899,"subjects":["A"],"countries":["NL"]}\n')


@settings(max_examples=150, deadline=None)
@given(_corpus(), st.sampled_from(["skip", "keep", "fail"]), st.booleans(),
       st.booleans(), st.sampled_from([48, 200, 1 << 16]),
       st.sampled_from([corpus.COUNTED_DISTINCT_MAX, 0.0, 1.0]),
       st.sampled_from([1, 3]))
@example(_MIXED, "skip", False, True, 1 << 16, 1.0, 1)
@example(_MIXED, "keep", False, True, 48, 0.0, 3)
@example(_MIXED, "skip", True, True, 200, 1.0, 1)
@example(_MIXED, "fail", False, True, 1 << 16, 0.0, 1)
@example(_MIXED * 2, "skip", False, False, 200, 1.0, 3)
def test_validate_equals_line_pass(data, action, fail_fast, mapped, chunk,
                                   distinct_max, workers):
    """CLI validate, which counts the lines the chunk matcher takes and
    sends only the others through the accepting loop, prints the counters
    of the per-line pass, in chunks counted or not and cut into ranges or
    not; a fail-fast run fails on the line pass's line with its
    message."""
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        tmp = Path(tmp)
        path, regions = tmp / "corpus.jsonl", tmp / "regions.csv"
        path.write_bytes(data)
        regions.write_text(REGIONS_CSV)
        cfg = RunConfig(path, regions if mapped else None, tmp / "out",
                        fail_fast=fail_fast, unmapped_policy=action)
        try:
            with corpus.open_corpus(path) as lines:
                stats = validate_corpus(lines, REGION_MAP if mapped else None,
                                        cfg.policy())
            expected = json.dumps(stats.as_dict()) + "\n"
        except CorpusError as exc:
            expected = f"error: {exc}"
        patch.setattr(corpus, "READ_CHUNK", chunk)
        patch.setattr(corpus, "COUNTED_DISTINCT_MAX", distinct_max)
        patch.setattr(corpus, "SHARD_MIN_BYTES", 64)
        patch.setattr(corpus, "SHARD_WORKERS", workers)
        out = io.StringIO()
        try:
            assert run_validate(cfg, out) == 0
            got = out.getvalue()
        except CorpusError as exc:
            got = f"error: {exc}"
    assert got == expected


def test_fail_fast_names_the_line_of_the_line_pass(tmp_path, monkeypatch):
    """Refused lines among repeated layout lines, in a counted chunk and in
    one read as it is, fail the columnar fold on the line pass's line with
    its message: line 212 has an unmapped country, line 250 no subject."""
    good = '{"id":"p%d","year":2010,"subjects":["A"],"countries":["NL","ES"]}'
    lines = [good % i for i in range(300)]
    lines[211] = lines[211].replace('"ES"', '"XX"')
    lines[249] = lines[249].replace('"A"', '""')
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n")
    regions = tmp_path / "regions.csv"
    regions.write_text(REGIONS_CSV)
    monkeypatch.setattr(corpus, "READ_CHUNK", 4096)
    monkeypatch.setattr(corpus, "SHARD_WORKERS", 1)
    for policy, line_no in (({"fail_fast": True}, 250),
                            ({"unmapped_policy": "fail"}, 212)):
        cfg = RunConfig(path, regions, tmp_path / "out", **policy)
        with pytest.raises(CorpusError) as line_pass:
            list(iter_accepted(lines, REGION_MAP, cfg.policy()))
        assert line_pass.value.line_no == line_no
        for distinct_max in (corpus.COUNTED_DISTINCT_MAX, 0.0):
            monkeypatch.setattr(corpus, "COUNTED_DISTINCT_MAX", distinct_max)
            with pytest.raises(CorpusError) as columns:
                run_pipeline(cfg)
            assert str(columns.value) == str(line_pass.value)


def test_blocks_split_at_the_flush_bound(monkeypatch):
    """A block added to pending rows is cut at the row where the pending
    pair work reaches the bound, and the buffer flushed there."""
    flushed = []
    flush = ProfileFold._flush

    def recording(fold):
        if fold._k:
            flushed.append(sum(map(len, fold._k)))
        flush(fold)

    monkeypatch.setattr(ProfileFold, "_flush", recording)
    monkeypatch.setattr(profiles, "FLUSH_PAIRS", 10)
    fold = ProfileFold()
    fold.add_codes(2010, frozenset({"NL"}), frozenset({"A", "B", "C"}))
    assert flushed == []  # pair work 1 * (1 + 3) = 4 pending
    # seven rows of pair work 2 * (2 + 1) = 6: the first reaches the bound
    fold.add_block(columns.Block(
        np.ones(7, dtype=np.int64), np.full(7, 2010), np.full(7, 2),
        np.array([corpus._CODES.index(code) for code in ["NL", "ES"] * 7]),
        [b'"S%d"' % i for i in range(7)]))
    assert flushed == [2, 2, 2, 2]
    table = fold.table()
    assert flushed == [2, 2, 2, 2]
    assert table["NL"].partner["birc"] == {"ES": 7}
    assert table["NL"].pub_counts.n_domestic == 1
