"""Sharded ingest: a corpus folded in newline-aligned byte ranges, each in
its own forked worker, gives exactly what a one-range pass gives."""

import hashlib
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from collabsim import corpus
from collabsim.cli import main
from collabsim.corpus import (CorpusError, ValidationPolicy, fold_corpus,
                              load_region_map)
from collabsim.options import run_validate
from collabsim.reporting import RunConfig, run_outputs
from oracle import expanded

REGIONS = "country,region\nNL,North\nES,South\nZA,South\n"
GOOD = '{"id":"g%d","year":2010,"subjects":["A"],"countries":["NL","ES"]}'
BOM = b"\xef\xbb\xbf"


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# canonical lines, lines the checked parser normalizes or rejects (XX is a
# valid code the region map leaves unmapped), undecodable and arbitrary bytes
_RECORD = st.builds(
    lambda i, year, subjects, countries, ascii_only: json.dumps(
        {"id": f"p{i}", "year": year, "subjects": subjects,
         "countries": countries}, separators=(",", ":"),
        ensure_ascii=ascii_only).encode("utf-8", "surrogatepass"),
    st.integers(0, 9), st.sampled_from([1899, 2007, 2008, 2012, 2017, 2018]),
    st.lists(st.sampled_from(["A", "B", " C", "é", "\ud800"]),
             max_size=3),
    st.lists(st.sampled_from(["NL", "ES", "za", "XX"]), max_size=3),
    st.booleans())
_PIECE = st.one_of(_RECORD, _RECORD.map(lambda line: b" " + line),
                   _RECORD.map(lambda line: BOM + line),
                   st.binary(max_size=24),
                   st.sampled_from([b"", b"  ", b"\xff\xfe", BOM, b"\xe2\x82",
                                    b"{bad json", b"garbage"]))
_NEWLINE = st.sampled_from([b"\n", b"\r\n", b"\r"])


@st.composite
def _corpus_bytes(draw):
    pieces = draw(st.lists(st.tuples(_PIECE, _NEWLINE), max_size=30))
    data = b"".join(piece + newline for piece, newline in pieces)
    if pieces and draw(st.booleans()):  # a final line without a newline
        data = data[:-len(pieces[-1][1])]
    return (BOM if draw(st.booleans()) else b"") + data


def _runs(cfg, patch, workers):
    """Everything a configuration of the sharding gives: the byte ranges,
    the counters and the multiset of accepted rows, validate's output and
    every report file, or the fail-fast error."""
    patch.setattr(corpus, "SHARD_WORKERS", workers)
    ranges = corpus._byte_ranges(cfg.input)
    region_map, policy = load_region_map(cfg.regions), cfg.policy()
    try:
        stats, parts = fold_corpus(cfg.input, list, region_map, policy)
    except CorpusError as exc:
        rows = f"error: {exc}"
    else:
        assert stats.balanced()
        assert len(parts) == len(ranges)
        rows = stats, expanded(row for part in parts for row in part)
    validated = io.StringIO()
    try:
        run_validate(cfg, validated)
        run_outputs("report", cfg)
    except CorpusError as exc:
        return ranges, rows, validated.getvalue(), f"error: {exc}"
    files = {path.name: path.read_bytes() for path in sorted(cfg.out.iterdir())}
    return ranges, rows, validated.getvalue(), files


@settings(max_examples=50, deadline=None)
@given(_corpus_bytes(), st.integers(1, 48), st.sampled_from([2, 3, 4]),
       st.sampled_from(["skip", "keep", "fail"]))
def test_sharded_runs_equal_one_range(data, min_bytes, workers, action):
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        tmp = Path(tmp)
        path, regions = tmp / "corpus.jsonl", tmp / "regions.csv"
        path.write_bytes(data)
        regions.write_text(REGIONS)
        cfg = RunConfig(path, regions, tmp / "out", mega_threshold=3,
                        fail_fast=action == "fail", unmapped_policy=action)
        patch.setattr(corpus, "SHARD_MIN_BYTES", min_bytes)
        one, sharded = _runs(cfg, patch, 1), _runs(cfg, patch, workers)
    assert one[0] == [(0, None)]
    ranges = sharded[0]
    assert len(ranges) <= min(workers, max(len(data) // min_bytes, 1))
    assert ranges[0][0] == 0 and ranges[-1][1] is None
    for (_, end), (start, _) in zip(ranges, ranges[1:]):
        assert end == start and data[end - 1:end] == b"\n"
    assert one[1:] == sharded[1:]
    _no_child_left()


def _read(path, *span):
    with corpus.open_corpus(path, *span) as fh:
        return list(fh)


def test_ranges_read_as_the_whole(tmp_path):
    """Cut after any newline byte, two ranges read the lines of the whole:
    a BOM is dropped at offset 0 only, a lone CR still ends a line, and an
    undecodable byte is escaped alike."""
    data = (BOM + b'{"id":"a"}\r\n' + BOM + GOOD.encode() + b"\n\xff\xe2\x82\n"
            + b"x\ry\r\n\n" + "é".encode() + b"\n" + BOM + b"z")
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(data)
    whole = _read(path)
    assert whole[0] == '{"id":"a"}\n' and whole[1][0] == "\ufeff"
    assert whole[-1] == "\ufeffz" and "x\n" in whole
    cuts = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    for cut in cuts[:-1]:
        assert _read(path, 0, cut) + _read(path, cut) == whole
        assert _read(path, 0, cut) + _read(path, cut, len(data)) == whole


# the pieces of a file the chunk reader must read as a buffered text file
# does: the line ends of universal newlines and the ones only str.splitlines
# knows, BOMs, bytes that are not UTF-8, and a line longer than a chunk
_READ_PIECE = st.sampled_from([
    b"\n", b"\r", b"\r\n", b"\x85", "\u2028".encode(), b"\v", b"\f",
    b"\x1c", BOM, b"\xff", b"\xe2\x82", "é€".encode(), b"x" * 20, b"ab"])


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.lists(_READ_PIECE, max_size=24), st.integers(1, 8))
def test_chunk_reader_reads_as_a_text_file(bom, pieces, chunk):
    """With chunks of a few bytes, the whole file and every pair of ranges
    cut after an LF read the lines a UTF-8 text file gives."""
    data = (BOM if bom else b"") + b"".join(pieces)
    expected = io.TextIOWrapper(io.BytesIO(data), "utf-8-sig",
                                "surrogateescape").readlines()
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "READ_CHUNK", chunk)
        path = Path(tmp) / "corpus.jsonl"
        path.write_bytes(data)
        assert _read(path) == expected
        for cut in (i + 1 for i, byte in enumerate(data) if byte == ord("\n")):
            assert _read(path, 0, cut) + _read(path, cut) == expected
            assert _read(path, 0, cut) + _read(path, cut, len(data)) == expected


# lines of the counting reader: layout lines whose ids differ (so that they
# repeat once counted), ids it must not swap (empty, an escaped quote,
# non-ASCII, an escaped lone surrogate, an undecodable byte), a second "id"
# key, other spellings of a record, a BOM line and a line longer than twice
# any drawn chunk
_COUNTED_LINE = st.one_of(
    st.builds(
        lambda rec_id, year, subjects, countries: (
            '{"id":"%s","year":%s,"subjects":[%s],"countries":[%s]}'
            % (rec_id, year, subjects, countries)).encode(
                "utf-8", "surrogateescape"),
        st.sampled_from(["p1", "p2", "p 3", "", 'a\\"b', "\u00e9x", "é",
                         "\\ud800", "\udcff"]),
        st.sampled_from(["2010", "2012", "1899"]),
        st.sampled_from(['"A"', '"A","B"', '" C"', '""']),
        st.sampled_from(['"NL"', '"NL","ES"', '"XX"', '"nl"', '"NLD"'])),
    st.sampled_from([
        b'{"id":"p1","year":2010,"subjects":["A"],"countries":["NL"],"id":5}',
        b'{"id":"p1","year":2010,"subjects":["A"],"countries":["NL"],"id":"q"}',
        b'{"id": "p1", "year": 2010, "subjects": ["A"], "countries": ["NL"]}',
        b' {"id":"p2","year":2010,"subjects":["A"],"countries":["NL"]}',
        BOM + b'{"id":"p1","year":2010,"subjects":["A"],"countries":["NL"]}',
        b'{"countries":["ES"],"id":"p1","subjects":["B"],"year":2012}',
        b'{"id":"' + b"x" * 2500 + b'","year":2010,"subjects":["A"],'
        b'"countries":["NL","ES"]}',
        b"", b"garbage", b"\xff\xfe"]))


@st.composite
def _counted_corpus(draw):
    """Lines that all end in LF, or in LF, CR LF or CR."""
    ends = draw(st.sampled_from([[b"\n"], [b"\n"] * 6 + [b"\r\n", b"\r"]]))
    pieces = draw(st.lists(st.tuples(_COUNTED_LINE, st.sampled_from(ends)),
                           max_size=40))
    return b"".join(line + end for line, end in pieces)


def _per_line(path, start, end, region_map, policy):
    """The counters and the (year, subjects, countries) multiset of the
    accepted records of bytes [start, end), read line by line, or the
    fail-fast error."""
    stats = corpus.CorpusStats()
    try:
        with corpus.open_corpus(path, start, end) as lines:
            records = list(corpus.iter_accepted(lines, region_map, policy,
                                                stats))
    except CorpusError as exc:
        return f"error: {exc}"
    return stats, Counter((r.year, r.subjects, r.countries) for r in records)


def _counted(path, start, end, region_map, policy):
    try:
        stats, rows = corpus._fold_range(
            path, start, end, list, corpus._ChunkMatcher(region_map, policy))
    except CorpusError as exc:
        return f"error: {exc}"
    return stats, expanded(rows)


@settings(max_examples=100, deadline=None)
@given(_counted_corpus(), st.sampled_from([48, 200, 1000]),
       st.sampled_from([corpus.COUNTED_DISTINCT_MAX, 1.0]),
       st.sampled_from(["skip", "keep", "fail"]))
def test_counted_lines_fold_as_the_lines(data, chunk, distinct_max, action):
    """Read in chunks that are counted, or not, a range folds to the
    counters and the row multiset of its lines read one by one, or fails
    on the same line: the whole file, every pair of ranges cut after an
    LF, and the file folded in three workers."""
    policy = ValidationPolicy(action == "fail", action)
    region_map = {"NL": "North", "ES": "South", "ZA": "South"}
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        path = Path(tmp) / "corpus.jsonl"
        path.write_bytes(data)
        patch.setattr(corpus, "READ_CHUNK", chunk)
        patch.setattr(corpus, "COUNTED_DISTINCT_MAX", distinct_max)
        whole = _per_line(path, 0, None, region_map, policy)
        assert _counted(path, 0, None, region_map, policy) == whole
        for cut in (i + 1 for i, byte in enumerate(data) if byte == ord("\n")):
            for span in ((0, cut), (cut, None)):
                assert (_counted(path, *span, region_map, policy)
                        == _per_line(path, *span, region_map, policy))
        patch.setattr(corpus, "SHARD_MIN_BYTES", 64)
        patch.setattr(corpus, "SHARD_WORKERS", 3)
        try:
            stats, parts = fold_corpus(path, list, region_map, policy)
        except CorpusError as exc:
            assert f"error: {exc}" == whole
        else:
            assert (stats, expanded(r for part in parts for r in part)) == whole
    _no_child_left()


def test_repeated_lines_are_parsed_once(tmp_path, monkeypatch):
    """A chunk of 400 layout lines of four bodies matches four lines, and
    folds to four rows of weight 100."""
    bodies = [',"year":%d,"subjects":["A"],"countries":["NL","ES"]}' % year
              for year in (2010, 2011, 2012, 2013)]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join('{"id":"p%d"%s\n' % (i, bodies[i % 4])
                            for i in range(400)))
    matched = []

    class Layout:
        def fullmatch(self, line):
            matched.append(line)
            return layout.fullmatch(line)

    layout = corpus._LAYOUT
    monkeypatch.setattr(corpus, "_LAYOUT", Layout())
    stats, [rows] = fold_corpus(path, list)
    assert len(matched) == 4
    assert sorted(rows) == [(100, year, frozenset({"A"}),
                             frozenset({"NL", "ES"}))
                            for year in (2010, 2011, 2012, 2013)]
    assert stats.accepted == stats.total_lines == 400


def test_distinct_lines_take_the_line_path(tmp_path, monkeypatch):
    """Chunks whose lines do not repeat are counted only at intervals: the
    first, then the first after the 15 that follow a counted one."""
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(GOOD % i + "\n" for i in range(40)))
    monkeypatch.setattr(corpus, "READ_CHUNK", 64)  # one line a chunk
    with open(path, "rb") as raw:
        lines = corpus._LineCounts(corpus._chunks(raw, 0, None, None))
        counted = [lines.counted is not None
                   for _ in lines._chunk_pairs()]
    assert len(counted) == 41  # the last, empty chunk too
    assert [i for i, was in enumerate(counted) if was] == [0, 16, 32]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="no /proc/self/fd")
def test_an_early_stop_leaves_no_file_open(tmp_path, monkeypatch):
    """A fail-fast fold that fails on line 1 of a file read in many chunks
    and ranges, and a line loop left with break, close what they opened."""
    path = _lines_file(tmp_path, bad=(1,))
    monkeypatch.setattr(corpus, "READ_CHUNK", 64)
    monkeypatch.setattr(corpus, "SHARD_MIN_BYTES", 512)
    monkeypatch.setattr(corpus, "SHARD_WORKERS", 3)
    assert len(corpus._byte_ranges(path)) == 3
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(CorpusError, match="^line 1: "):
        fold_corpus(path, list, policy=ValidationPolicy(fail_fast=True))
    _no_child_left()
    with corpus.open_corpus(path) as lines:
        for line in lines:
            break
    assert line == "garbage\n"
    assert len(os.listdir("/proc/self/fd")) == before


def _lines_file(tmp_path, bad=()):
    lines = [GOOD % i for i in range(40)]
    for line_no in bad:
        lines[line_no - 1] = "garbage" if line_no % 2 else "{bad json"
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("bad", [(14, 32), (3, 32), (32,), (40,)])
def test_fail_fast_reports_the_earliest_line(tmp_path, monkeypatch, capsys,
                                             bad):
    path = _lines_file(tmp_path, bad)
    regions = tmp_path / "regions.csv"
    regions.write_text(REGIONS)
    monkeypatch.setattr(corpus, "SHARD_MIN_BYTES", 64)
    errors = {}
    for workers in (1, 4):
        monkeypatch.setattr(corpus, "SHARD_WORKERS", workers)
        # four ranges of ten lines each: every defect is in its own range
        assert len(corpus._byte_ranges(path)) == workers
        for command in (["validate"],
                        ["report", "--regions", regions,
                         "--out", tmp_path / "out"]):
            args = [*command, "--input", path, "--fail-fast"]
            assert main([str(arg) for arg in args]) == 2
            errors.setdefault(command[0], []).append(capsys.readouterr().err)
            _no_child_left()
    assert not (tmp_path / "out").exists()
    for one, sharded in errors.values():
        assert one == sharded
        assert json.loads(one)["error"].startswith(f"line {bad[0]}: ")


def test_a_failing_worker_fails_the_run(tmp_path, monkeypatch):
    path = _lines_file(tmp_path)
    # rows carry no id: line 25 is the one of year 2011
    path.write_text(path.read_text().replace('"g25","year":2010',
                                             '"g25","year":2011'))
    monkeypatch.setattr(corpus, "SHARD_MIN_BYTES", 64)
    monkeypatch.setattr(corpus, "SHARD_WORKERS", 4)
    parent = os.getpid()
    stats, counts = fold_corpus(path, lambda rows: sum(n for n, *_ in rows))
    assert len(counts) == 4 and sum(counts) == stats.accepted == 40

    def raises(rows):
        years = [row[1] for row in rows]
        if 2011 in years:
            raise RuntimeError("fold failed")
        return years

    def dies(rows):
        if os.getpid() != parent:
            os._exit(3)
        return list(rows)

    with pytest.raises(RuntimeError, match="fold failed"):
        fold_corpus(path, raises)
    _no_child_left()
    with pytest.raises(ChildProcessError, match="status 3"):
        fold_corpus(path, dies)
    _no_child_left()


def test_corpus_error_carries_its_line():
    error = CorpusError("invalid JSON: Expecting value", 7)
    assert (error.line_no, error.message) == (7, "invalid JSON: Expecting value")
    assert str(error) == "line 7: invalid JSON: Expecting value"
    copy = pickle.loads(pickle.dumps(error))
    assert (str(copy), copy.line_no) == (str(error), 7)
    assert str(CorpusError("no line")) == "no line"
    assert CorpusError("no line").line_no is None


def test_a_pipe_is_one_range(monkeypatch):
    monkeypatch.setattr(corpus, "SHARD_MIN_BYTES", 1)
    monkeypatch.setattr(corpus, "SHARD_WORKERS", 4)
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, (GOOD % 1 + "\n").encode() * 50)
        assert corpus._byte_ranges(f"/dev/fd/{read_end}") == [(0, None)]
    finally:
        os.close(read_end)
        os.close(write_end)


def _collabsim(args, data):
    return subprocess.run([sys.executable, "-m", "collabsim",
                           *map(str, args)], input=data, capture_output=True)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_piped_inputs_are_digested_as_read(tmp_path):
    data = ("\n".join(GOOD % i for i in range(30)) + "\n").encode()
    path, regions = tmp_path / "corpus.jsonl", tmp_path / "regions.csv"
    path.write_bytes(data)
    regions.write_text(REGIONS)
    runs = {}
    for name, corpus_arg, regions_arg, stdin in (
            ("files", path, regions, None),
            ("corpus", "/dev/stdin", regions, data),
            ("regions", path, "/dev/stdin", regions.read_bytes())):
        out = tmp_path / "out"
        proc = _collabsim(["report", "--input", corpus_arg, "--regions",
                           regions_arg, "--out", out], stdin)
        assert proc.returncode == 0, proc.stderr
        runs[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        manifest = json.loads(runs[name].pop("manifest.json"))
        assert manifest["inputs"]["corpus"]["sha256"] == \
            hashlib.sha256(data).hexdigest()
        assert manifest["inputs"]["regions"]["sha256"] == \
            hashlib.sha256(regions.read_bytes()).hexdigest()
        assert manifest["validation"]["accepted"] == 30
    assert runs["corpus"] == runs["files"] == runs["regions"]
