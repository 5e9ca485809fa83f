"""The command line contract under arbitrary inputs and flags: every run
exits 0, 1 or 2 without a traceback; a failing run prints exactly one JSON
line on stderr; an output directory holds a complete commit or nothing, and
a reused one holds exactly the last commit."""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from collabsim.cli import main

COMMANDS = ("validate", "report", "profile", "similarity", "growth",
            "aggregate")

LINE_ENDS = st.sampled_from([b"\n", b"\r\n", b"\r"])

# mostly valid values, so that some runs get through to their outputs
CODES = st.sampled_from(["NL", "ES", "ZA", "US", "nl", " ES", "XX", "", "N1"])
REGIONS = st.sampled_from(["Europe", "Africa", "Americas", "", "A,B"])

RECORD = st.fixed_dictionaries({
    "id": st.one_of(st.sampled_from(["p1", "p2", "p3"]), st.integers()),
    "year": st.one_of(st.integers(2006, 2019), st.text(max_size=3)),
    "subjects": st.lists(st.sampled_from(["PHYS", "CHEM", "BIO", "", " x"]),
                         max_size=3),
    "countries": st.lists(CODES, max_size=4),
})
CORPUS_LINE = st.one_of(RECORD.map(lambda r: json.dumps(r).encode()),
                        st.binary(max_size=30))
CORPUS = st.builds(lambda lines, end: end.join(lines),
                   st.lists(CORPUS_LINE, max_size=8), LINE_ENDS)

REGION_ROW = st.builds(lambda code, region: f"{code},{region}".encode(),
                       CODES, REGIONS)
REGION_MAP = st.one_of(
    st.builds(lambda header, rows, end: end.join([header, *rows]),
              st.sampled_from([b"country,region", b"Country, Region",
                               b"\xef\xbb\xbfcountry,region", b"code,area"]),
              st.lists(REGION_ROW, max_size=5), LINE_ENDS),
    st.binary(max_size=30))

FLAG_VALUES = {
    "--years": ["2008:2017", "2010:2012", "2012:2010", "2008", "a:b"],
    "--mega-threshold": ["3", "2", "x"],
    "--min-pubs": ["0", "2", "-1"],
    "--threshold": ["0.5", "1", "1.5", "nan"],
    "--growth-method": ["cagr", "loglinear", "linear"],
    "--fig2-denominator": ["international", "total", "all"],
    "--region-counting": ["dedup", "country", "region"],
    "--scatter-region": ["Europe", "Nowhere"],
    "--unmapped-policy": ["skip", "keep", "fail", "drop"],
}
FLAG = st.one_of(
    st.sampled_from([[flag, value] for flag, values in FLAG_VALUES.items()
                     for value in values]),
    st.sampled_from([["--fail-fast"], ["--bogus"], ["--years"]]))
FLAGS = st.lists(FLAG, max_size=3).map(lambda flags: sum(flags, []))


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(COMMANDS), corpus=CORPUS,
       region_map=st.one_of(st.none(), REGION_MAP), flags=FLAGS)
def test_every_run_keeps_the_exit_and_output_contract(command, corpus,
                                                      region_map, flags):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "corpus.jsonl").write_bytes(corpus)
        args = [command, "--input", str(tmp / "corpus.jsonl"),
                "--out", str(tmp / "out"), *flags]
        if region_map is not None:
            (tmp / "regions.csv").write_bytes(region_map)
            args += ["--regions", str(tmp / "regions.csv")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(args)

        assert code in (0, 1, 2)
        if code:
            err = stderr.getvalue().splitlines()
            assert len(err) == 1, err
            assert json.loads(err[0])["exit_code"] == code
        out = tmp / "out"
        written = sorted(os.listdir(out)) if out.exists() else []
        if command == "validate":
            assert not out.exists()
            if code == 0:
                assert "accepted" in json.loads(stdout.getvalue())
        elif code == 0:
            manifest = json.loads((out / "manifest.json").read_text())
            assert written == sorted(["manifest.json", *manifest["outputs"]])
        else:
            assert written == []


ANALYSIS_COMMANDS = COMMANDS[1:]

# a corpus and region map every analysis command gets through
GOOD_CORPUS = b"""\
{"id": "p1", "year": 2010, "subjects": ["PHYS"], "countries": ["NL"]}
{"id": "p2", "year": 2011, "subjects": ["PHYS", "CHEM"], "countries": ["NL", "ES"]}
{"id": "p3", "year": 2012, "subjects": ["CHEM"], "countries": ["ES", "ZA", "NL"]}
{"id": "p4", "year": 2010, "subjects": ["BIO"], "countries": ["ZA"]}
{"id": "p5", "year": 2011, "subjects": ["PHYS"], "countries": ["ES"]}
{"id": "p6", "year": 2012, "subjects": ["BIO", "CHEM"], "countries": ["ZA", "NL"]}
"""
GOOD_REGIONS = b"country,region\nNL,Europe\nES,Europe\nZA,Africa\n"


def _main(args) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main([str(arg) for arg in args])


def _files(out: Path) -> dict:
    return ({path.name: path.read_bytes() for path in out.iterdir()}
            if out.exists() else {})


def _assert_one_commit(out: Path) -> None:
    """``out`` holds exactly its manifest and the outputs it lists."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(os.listdir(out)) == sorted(["manifest.json",
                                              *manifest["outputs"]])


@settings(max_examples=100, deadline=None)
@given(commands=st.lists(st.sampled_from(ANALYSIS_COMMANDS), min_size=2,
                         max_size=2),
       corpus=st.one_of(st.just(GOOD_CORPUS), CORPUS),
       region_map=st.one_of(st.just(GOOD_REGIONS), REGION_MAP),
       flags=st.lists(FLAGS, min_size=2, max_size=2))
@example(commands=["report", "growth"], corpus=GOOD_CORPUS,
         region_map=GOOD_REGIONS, flags=[[], []])
def test_a_reused_out_holds_exactly_the_last_commit(commands, corpus,
                                                    region_map, flags):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "corpus.jsonl").write_bytes(corpus)
        (tmp / "regions.csv").write_bytes(region_map)
        out = tmp / "out"
        for command, command_flags in zip(commands, flags):
            before = _files(out)
            code = _main([command, "--input", tmp / "corpus.jsonl",
                          "--regions", tmp / "regions.csv", "--out", out,
                          *command_flags])
            if code == 0:
                _assert_one_commit(out)
            else:
                assert _files(out) == before


def test_a_reused_out_removes_only_listed_csv_files(tmp_path):
    (tmp_path / "corpus.jsonl").write_bytes(GOOD_CORPUS)
    (tmp_path / "regions.csv").write_bytes(GOOD_REGIONS)
    out = tmp_path / "out"
    out.mkdir()
    (tmp_path / "victim.csv").write_text("kept\n")
    for name in ("notes.txt", "stale.csv"):
        (out / name).write_text("old\n")
    (out / "manifest.json").write_text(json.dumps(
        {"outputs": ["../victim.csv", "notes.txt", "stale.csv"]}))
    assert _main(["growth", "--input", tmp_path / "corpus.jsonl",
                  "--regions", tmp_path / "regions.csv", "--out", out]) == 0
    assert (tmp_path / "victim.csv").read_text() == "kept\n"
    assert sorted(os.listdir(out)) == ["growth.csv", "manifest.json",
                                       "notes.txt"]


def test_a_fifo_manifest_is_not_read(tmp_path):
    (tmp_path / "corpus.jsonl").write_bytes(GOOD_CORPUS)
    (tmp_path / "regions.csv").write_bytes(GOOD_REGIONS)
    out = tmp_path / "out"
    out.mkdir()
    os.mkfifo(out / "manifest.json")
    assert _main(["growth", "--input", tmp_path / "corpus.jsonl",
                  "--regions", tmp_path / "regions.csv", "--out", out]) == 2
    assert sorted(os.listdir(out)) == ["manifest.json"]
