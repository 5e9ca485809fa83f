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
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from collabsim import corpus
from collabsim.cli import main
from collabsim.corpus import (CorpusError, ValidationPolicy, fold_corpus,
                              load_region_map)
from collabsim.options import run_validate
from collabsim.reporting import RunConfig, run_outputs

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
    the accepted rows and counters, validate's output and every report file,
    or the fail-fast error."""
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
        rows = stats, [row for part in parts for row in part]
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
    monkeypatch.setattr(corpus, "SHARD_MIN_BYTES", 64)
    monkeypatch.setattr(corpus, "SHARD_WORKERS", 4)
    parent = os.getpid()
    stats, counts = fold_corpus(path, lambda rows: sum(1 for _ in rows))
    assert len(counts) == 4 and sum(counts) == stats.accepted == 40

    def raises(rows):
        ids = [row[0] for row in rows]
        if "g25" in ids:
            raise RuntimeError("fold failed")
        return ids

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
