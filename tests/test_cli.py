import gc
import json
import math
import os
import stat
import subprocess
import sys
from collections.abc import Iterator
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest

from collabsim.aggregates import birc_share_points
from collabsim.cli import _config, build_parser, main
from collabsim.corpus import _byte_ranges
from collabsim.options import UsageError
from collabsim.profiles import CountryProfileSet, ProfileTable
from collabsim.reporting import (
    OutputStager,
    PipelineResult,
    RunConfig,
    run_outputs,
    run_pipeline,
)
from collabsim.similarity import five_indicators, table_reports, world_baseline

from oracle import DISC_FAMILIES, PART_FAMILIES, parse_reference, recount

CORPUS = """\
{"id":"p1","year":2010,"subjects":["PHYS"],"countries":["NL"]}
{"id":"p2","year":2010,"subjects":["PHYS"],"countries":["NL","ES"]}
{"id":"p3","year":2011,"subjects":["CHEM"],"countries":["NL","ES","ZA"]}
{"id":"p4","year":2011,"subjects":["PHYS","CHEM"],"countries":["ES"]}
{"id":"p5","year":2012,"subjects":["BIO"],"countries":["ZA"]}
{"id":"p6","year":2012,"subjects":["PHYS"],"countries":["NL","ES"]}
"""

REGIONS = """\
country,region
NL,Europe & Central Asia
ES,Europe & Central Asia
ZA,Sub-Saharan Africa
"""

REPORT_FILES = ("countries.csv", "regions.csv", "growth.csv", "flagged.csv",
                "scatter_int_vs_domestic.csv", "scatter_birc_vs_mirc.csv",
                "manifest.json")


@pytest.fixture
def inputs(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(CORPUS)
    regions = tmp_path / "regions.csv"
    regions.write_text(REGIONS)
    return corpus, regions


def _run(args):
    return main([str(a) for a in args])


def test_report_writes_all_outputs(inputs, tmp_path):
    corpus, regions = inputs
    out = tmp_path / "out"
    assert _run(["report", "--input", corpus, "--regions", regions,
                 "--out", out]) == 0
    for name in REPORT_FILES:
        assert (out / name).exists(), name
    assert not list(out.glob(".*.part"))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["validation"]["accepted"] == 6
    assert manifest["n_countries"] == 3
    assert manifest["n_year_filtered"] == 0
    assert "sha256" in manifest["inputs"]["corpus"]
    assert manifest["version"]


def test_countries_csv_shape(inputs, tmp_path):
    corpus, regions = inputs
    out = tmp_path / "out"
    _run(["similarity", "--input", corpus, "--regions", regions, "--out", out])
    lines = (out / "countries.csv").read_text().splitlines()
    assert lines[0] == ("country,region,n_pub_total,n_dom,n_birc,n_mirc,"
                        "sim_dom_int,sim_dom_birc,sim_dom_mirc,"
                        "sim_birc_mirc_disc,sim_birc_mirc_partner,"
                        "label_dom_int,label_birc_mirc_disc,label_birc_mirc_partner")
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert set(rows) == {"ES", "NL", "ZA"}
    # ZA has no bilateral output: sim_dom_birc (index 7) must be empty
    assert rows["ZA"][7] == ""
    # every defined similarity cell uses fixed 6-decimal formatting
    for row in rows.values():
        for cell in row[6:11]:
            if cell:
                whole, frac = cell.split(".")
                assert len(frac) == 6


DEEP_JSON = "[" * 100_000
HUGE_YEAR = ('{"id":"h","year":%s,"subjects":["A"],"countries":["NL"]}'
             % ("1" * 5000))


def test_validate_reports_skips(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(CORPUS + "garbage\n{bad json\n" + DEEP_JSON + "\n"
                      + HUGE_YEAR + "\n")
    assert _run(["validate", "--input", corpus]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["total_lines"] == 10
    assert stats["accepted"] == 6
    assert stats["skipped_malformed"] == 4
    assert stats["year_range"] == [2010, 2012]


@pytest.mark.parametrize("flags, status", [
    (["--unmapped-policy", "skip"], 0), (["--unmapped-policy", "keep"], 0),
    (["--unmapped-policy", "fail"], 2), (["--fail-fast"], 2)],
    ids=["skip", "keep", "fail", "fail-fast"])
def test_validate_loads_no_numpy(inputs, tmp_path, capsys, flags, status):
    corpus, regions = inputs
    dirty = tmp_path / "dirty.jsonl"
    dirty.write_text(CORPUS + "garbage\n" + '{"id":"u","year":2010,'
                     '"subjects":["A"],"countries":["XX"]}\n')
    args = ["validate", "--input", str(dirty), "--regions", str(regions),
            *flags]
    code = ("import sys\n"
            "from collabsim.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "assert 'numpy' not in sys.modules, 'validate imported numpy'\n"
            "assert 'collabsim.columns' not in sys.modules\n"
            "sys.exit(status)\n")
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True)
    assert proc.returncode == status, proc.stderr
    assert _run(args) == status
    captured = capsys.readouterr()
    assert (proc.stdout, proc.stderr) == (captured.out, captured.err)
    if status:
        assert json.loads(proc.stderr)["exit_code"] == 2
        return
    assert json.loads(proc.stdout) == {
        "total_lines": 8, "accepted": 6 + (flags[-1] == "keep"),
        "skipped_missing_country": 0, "skipped_missing_subject": 0,
        "skipped_unmapped_country": int(flags[-1] == "skip"),
        "skipped_malformed": 1, "year_range": [2010, 2012]}


@pytest.mark.parametrize("command", ["report", "validate"])
def test_runs_load_neither_numpy_ma_nor_logging(inputs, tmp_path, command):
    # np.unique and np.percentile import numpy.ma; logging loads only with
    # a warning
    corpus, regions = inputs
    out = tmp_path / "out"
    args = [command, "--input", str(corpus), "--regions", str(regions)]
    if command == "report":
        args += ["--out", str(out), "--region-counting", "dedup"]
    code = ("import sys\n"
            "from collabsim.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "loaded = {'numpy.ma', 'logging'} & set(sys.modules)\n"
            "assert not loaded, f'{sys.argv[1]} imported {loaded}'\n"
            "sys.exit(status)\n")
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if command == "report":  # with regional boxplots
        assert ("Europe & Central Asia,2,birc_share,"
                in (out / "regions.csv").read_text())


@pytest.mark.parametrize("args, status", [
    (["validate", "--input", "{corpus}"], 0),
    (["validate", "--input", "{corpus}", "--years", "x"], 1),
    (["validate", "--input", "{missing}"], 2),
], ids=["success", "usage_error", "data_error"])
def test_module_entry_exits_with_the_status_of_main(inputs, tmp_path, capsys,
                                                    args, status):
    args = [arg.format(corpus=inputs[0], missing=tmp_path / "missing.jsonl")
            for arg in args]
    proc = subprocess.run([sys.executable, "-m", "collabsim", *args],
                          capture_output=True, text=True)
    assert proc.returncode == _run(args) == status
    # only the process entry freezes the collector, after main
    assert gc.get_freeze_count() == 0


def test_process_entry_freezes_the_collector_after_main(inputs):
    code = ("import gc, sys\n"
            "from collabsim.cli import entry\n"
            "status = entry()\n"
            "assert gc.get_freeze_count() > 0\n"
            "sys.exit(status)\n")
    proc = subprocess.run([sys.executable, "-c", code, "validate", "--input",
                           str(inputs[0])], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _threads_after_entry(**env) -> int:
    """The OS threads of a ``python -m collabsim`` process whose main
    imports numpy, run without the caller's BLAS thread settings but
    ``env``; main finds numpy not loaded and the BLAS setting made."""
    code = ("import os, runpy, sys\n"
            "import collabsim.cli\n"
            "def main():\n"
            "    assert 'numpy' not in sys.modules\n"
            "    print(os.environ['OPENBLAS_NUM_THREADS'])\n"
            "    import numpy\n"
            "    print(len(os.listdir('/proc/self/task')))\n"
            "    return 0\n"
            "collabsim.cli.main = main\n"
            "runpy.run_module('collabsim', run_name='__main__')\n")
    environ = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**environ, **env}, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    setting, threads = proc.stdout.split()
    assert setting == env.get("OPENBLAS_NUM_THREADS", "1")
    return int(threads)


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="counts threads in /proc/self/task")


@needs_proc
def test_process_entry_loads_numpy_with_one_blas_thread():
    assert _threads_after_entry() == 1


@needs_proc
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS starts no second thread on one core")
def test_process_entry_keeps_the_callers_blas_threads():
    assert _threads_after_entry(OPENBLAS_NUM_THREADS="2") == 2


def test_main_leaves_the_environment_as_it_was(inputs, tmp_path):
    corpus, regions = inputs
    before = dict(os.environ)
    assert _run(["report", "--input", corpus, "--regions", regions,
                 "--out", tmp_path / "out"]) == 0
    assert dict(os.environ) == before


def test_validate_fail_fast_exits_2(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    for line in ("garbage", DEEP_JSON, HUGE_YEAR):
        corpus.write_text(line + "\n")
        assert _run(["validate", "--input", corpus, "--fail-fast"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == 2
        assert "line 1" in err["error"]


def test_utf8_bom_inputs(inputs, tmp_path, capsys):
    corpus, regions = inputs
    bom = b"\xef\xbb\xbf"
    corpus_bom = tmp_path / "corpus_bom.jsonl"
    corpus_bom.write_bytes(bom + corpus.read_bytes())
    regions_bom = tmp_path / "regions_bom.csv"
    regions_bom.write_bytes(bom + regions.read_bytes())
    assert _run(["validate", "--input", corpus_bom]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert (stats["accepted"], stats["skipped_malformed"]) == (6, 0)
    assert _run(["report", "--input", corpus, "--regions", regions,
                 "--out", tmp_path / "plain"]) == 0
    assert _run(["report", "--input", corpus_bom, "--regions", regions_bom,
                 "--out", tmp_path / "bom"]) == 0
    for name in REPORT_FILES[:-1]:  # the manifest holds the input digests
        assert ((tmp_path / "bom" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes()), name


# a raw byte that is not UTF-8, and an escaped lone surrogate that decodes
# but cannot be written to profiles.csv
BAD_UTF8 = (b'{"id":"b1","year":2010,"subjects":["\xff"],"countries":["NL"]}\n',
            b'{"id":"b2","year":2010,"subjects":["\\ud800"],"countries":["NL"]}\n')


def test_invalid_utf8_lines_are_malformed(inputs, tmp_path, capsys):
    corpus, regions = inputs
    dirty = tmp_path / "dirty.jsonl"
    dirty.write_bytes(corpus.read_bytes() + b"".join(BAD_UTF8))
    assert _run(["validate", "--input", dirty]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert (stats["total_lines"], stats["skipped_malformed"]) == (8, 2)
    for source, out in ((corpus, tmp_path / "clean"), (dirty, tmp_path / "out")):
        assert _run(["profile", "--input", source, "--regions", regions,
                     "--out", out]) == 0
    assert not list(out.glob(".*.part"))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["validation"]["skipped_malformed"] == 2
    assert ((out / "profiles.csv").read_bytes()
            == (tmp_path / "clean" / "profiles.csv").read_bytes())
    for line in BAD_UTF8:
        dirty.write_bytes(line)
        for command in (["validate"], ["report", "--regions", regions,
                                       "--out", tmp_path / "failed"]):
            assert _run(command + ["--input", dirty, "--fail-fast"]) == 2
            err = json.loads(capsys.readouterr().err)
            assert "line 1: invalid UTF-8" in err["error"]
        assert not (tmp_path / "failed").exists() or not list(
            (tmp_path / "failed").iterdir())


def test_failed_stage_leaves_no_file(tmp_path):
    stager = OutputStager(tmp_path / "out")
    with pytest.raises(UnicodeEncodeError):
        stager.stage_text("profiles.csv", "country\n\ud800\n")
    assert list((tmp_path / "out").iterdir()) == []
    assert stager.staged_names == []


def test_missing_region_map_exits_2_without_outputs(inputs, tmp_path, capsys):
    corpus, _ = inputs
    out = tmp_path / "out"
    code = _run(["report", "--input", corpus, "--regions",
                 tmp_path / "missing.csv", "--out", out])
    assert code == 2
    assert not out.exists() or not list(out.iterdir())
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2


@pytest.mark.parametrize("command", ["report", "validate"])
def test_region_name_past_the_csv_field_limit_exits_2(inputs, tmp_path, capsys,
                                                      command):
    corpus, _ = inputs
    regions = tmp_path / "huge.csv"
    regions.write_text("country,region\nNL,Europe\nES," + "x" * 200_000 + "\n")
    out = tmp_path / "out"
    args = [command, "--input", corpus, "--regions", regions]
    if command == "report":
        args += ["--out", out]
    assert _run(args) == 2
    assert not out.exists() or not list(out.iterdir())
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    err = json.loads(err_lines[0])
    assert err["exit_code"] == 2
    assert f"{regions}:3: field larger than field limit" in err["error"]


def test_missing_input_exits_2(tmp_path, capsys):
    regions = tmp_path / "regions.csv"
    regions.write_text(REGIONS)
    code = _run(["report", "--input", tmp_path / "nope.jsonl",
                 "--regions", regions, "--out", tmp_path / "out"])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("args", [
    ["report", "--input", "x", "--regions", "y", "--years", "2010"],
    ["report", "--input", "x", "--regions", "y", "--years", "2017:2008"],
    ["report", "--input", "x", "--regions", "y", "--threshold", "1.5"],
    ["report", "--input", "x", "--regions", "y", "--mega-threshold", "2"],
    ["report", "--input", "x", "--regions", "y", "--min-pubs", "-1"],
    ["report", "--input", "x", "--regions", "y", "--growth-method", "linear"],
    ["nonsense"],
    ["report"],
    ["report", "--input", "x", "--regions", "y", "--fig2-denominator", "x"],
    ["report", "--input", "x", "--regions", "y", "--region-counting", "x"],
    ["report", "--input", "x", "--regions", "y", "--unmapped-policy", "x"],
    ["report", "--input", "x", "--regions", "y", "--years", "2010:x"],
])
def test_usage_errors_exit_1(args, capsys):
    assert _run(args) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 1


def test_config_defaults_come_from_runconfig():
    args = build_parser().parse_args(["report", "--input", "x", "--regions", "y"])
    assert _config(args) == RunConfig(input=Path("x"), regions=Path("y"),
                                      out=Path("out"))


def test_every_runconfig_field_has_a_flag():
    args = build_parser().parse_args([
        "report", "--input", "x", "--regions", "y", "--out", "o",
        "--years", "2001:2002", "--mega-threshold", "4", "--min-pubs", "3",
        "--threshold", "0.25", "--growth-method", "loglinear",
        "--fig2-denominator", "total", "--region-counting", "country",
        "--scatter-region", "R", "--fail-fast", "--unmapped-policy", "keep"])
    cfg = _config(args)
    default = RunConfig(input=Path("in"), regions=None, out=Path("out"))
    unset = [f.name for f in fields(RunConfig)
             if getattr(cfg, f.name) == getattr(default, f.name)]
    assert unset == []


# each RunConfig rule: a bad value of its fields, and the flags that give it
RUNCONFIG_RULES = [
    ({"year_min": 2017, "year_max": 2008}, ["--years", "2017:2008"]),
    ({"threshold": 1.5}, ["--threshold", "1.5"]),
    ({"threshold": math.nan}, ["--threshold", "nan"]),
    ({"min_pubs": -1}, ["--min-pubs", "-1"]),
    ({"mega_threshold": 2}, ["--mega-threshold", "2"]),
    ({"growth_method": "linear"}, ["--growth-method", "linear"]),
    ({"fig2_denominator": "x"}, ["--fig2-denominator", "x"]),
    ({"region_counting": "x"}, ["--region-counting", "x"]),
    ({"unmapped_policy": "x"}, ["--unmapped-policy", "x"]),
]


@pytest.mark.parametrize("bad,flags", RUNCONFIG_RULES)
def test_runconfig_is_checked_when_made(bad, flags, inputs, tmp_path, capsys):
    corpus, regions = inputs
    out = tmp_path / "out"
    with pytest.raises(UsageError):
        RunConfig(corpus, regions, out, **bad)
    cfg = RunConfig(corpus, regions, out)
    for name, value in bad.items():
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, value)
    for command in ("validate", "report"):
        assert _run([command, "--input", corpus, "--regions", regions,
                     "--out", out, *flags]) == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert json.loads(err_lines[0])["exit_code"] == 1
        assert not out.exists()


def test_two_runs_byte_identical(inputs, tmp_path):
    corpus, regions = inputs
    out = tmp_path / "out"
    args = ["report", "--input", corpus, "--regions", regions, "--out", out]
    assert _run(args) == 0
    first = {name: (out / name).read_bytes() for name in REPORT_FILES}
    assert _run(args) == 0
    second = {name: (out / name).read_bytes() for name in REPORT_FILES}
    assert first == second


def test_report_equals_composed_subcommands(inputs, tmp_path):
    corpus, regions = inputs
    report_out = tmp_path / "report"
    _run(["report", "--input", corpus, "--regions", regions, "--out", report_out])
    pieces = {
        "similarity": ["countries.csv"],
        "growth": ["growth.csv"],
        "aggregate": ["regions.csv", "flagged.csv",
                      "scatter_int_vs_domestic.csv", "scatter_birc_vs_mirc.csv"],
    }
    for command, files in pieces.items():
        out = tmp_path / command
        assert _run([command, "--input", corpus, "--regions", regions,
                     "--out", out]) == 0
        for name in files:
            assert (out / name).read_bytes() == (report_out / name).read_bytes()


def test_profile_dump(inputs, tmp_path):
    corpus, regions = inputs
    out = tmp_path / "out"
    assert _run(["profile", "--input", corpus, "--regions", regions,
                 "--out", out]) == 0
    lines = (out / "profiles.csv").read_text().splitlines()
    assert lines[0] == "country,profile_family,collab_type,dimension,count"
    assert "NL,disciplinary,birc,PHYS,2" in lines
    assert "NL,partner,mirc,ZA,1" in lines


def test_profile_streams_its_rows(inputs, tmp_path, monkeypatch):
    """The profile dump reaches the CSV writer as an iterator, never as a
    list of every row."""
    staged = {}
    stage_csv = OutputStager.stage_csv

    def spy(self, name, header, rows):
        staged[name] = rows
        stage_csv(self, name, header, rows)

    monkeypatch.setattr(OutputStager, "stage_csv", spy)
    corpus, regions = inputs
    assert _run(["profile", "--input", corpus, "--regions", regions,
                 "--out", tmp_path / "out"]) == 0
    assert isinstance(staged["profiles.csv"], Iterator)


def _synth_small(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "seed": 19, "n_countries": 9, "n_subjects": 7,
        "pubs_per_country_year": 4, "years": [2010, 2012],
        "mirc_size": {"3": 0.5, "5": 0.5}}))
    path, regions = tmp_path / "corpus.jsonl", tmp_path / "regions.csv"
    assert _run(["synth", "--scenario", scenario, "--out", path,
                 "--regions-out", regions]) == 0
    return path, regions


def test_report_builds_no_profile_set(tmp_path, monkeypatch):
    """report stays on the fold's count arrays: no CountryProfileSet."""
    path, regions = _synth_small(tmp_path)
    cfg = RunConfig(path, regions, tmp_path / "out", mega_threshold=4)

    def refuse(*args, **kwargs):
        raise AssertionError("report built a CountryProfileSet")

    monkeypatch.setattr(CountryProfileSet, "__init__", refuse)
    assert run_outputs("report", cfg) == 0
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())[
        "n_countries"] == 9


def test_pipeline_result_equals_its_dict_table_twin(tmp_path):
    """run_pipeline equals a result made from a dict copy of its table and
    five_indicators over it, as the traced benchmark pass checks."""
    path, regions = _synth_small(tmp_path)
    cfg = RunConfig(path, regions, tmp_path / "out", mega_threshold=4)
    result = run_pipeline(cfg)
    table = dict(result.table)
    reports = [five_indicators(table[c], result.region_map)
               for c in sorted(table)]
    twin = PipelineResult(result.region_map, result.stats,
                          result.n_year_filtered, table, result.region_counts,
                          reports, world_baseline(reports, cfg.min_pubs),
                          result.streamed_sha256)
    assert run_pipeline(cfg) == twin and twin == result


def test_birc_share_points_from_the_reports(tmp_path):
    """regions.csv's birc-share points, taken from the reports, are those of
    the table: FR has no international output, and BE none at all."""
    corpus, regions = tmp_path / "corpus.jsonl", tmp_path / "regions.csv"
    corpus.write_text(CORPUS + '{"id":"p7","year":2012,"subjects":["BIO"],'
                      '"countries":["FR"]}\n')
    regions.write_text(REGIONS + "FR,Europe & Central Asia\n")
    result = run_pipeline(RunConfig(corpus, regions, tmp_path / "out"))
    disc = np.zeros((4, 2, 1), dtype=np.int64)
    partner = np.zeros((4, 2, 2), dtype=np.int64)
    partner[1, 0, 0] = partner[0, 0, 0] = 1  # AR: one birc, one domestic
    arrays = ProfileTable(disc, partner, ["AR", "BE"], ["BIO"])
    for table, reports in ((result.table, result.reports),
                           (arrays, table_reports(arrays))):
        by_country = {r.country: r for r in reports}
        for denominator in ("international", "total"):
            points = birc_share_points(by_country, denominator)
            assert points == birc_share_points(dict(table), denominator)
    assert dict(birc_share_points({r.country: r for r in result.reports},
                                  "international"))["FR"] is None
    assert dict(birc_share_points({r.country: r for r in table_reports(arrays)},
                                  "total")) == {"AR": 0.5, "BE": None}


def test_profile_dump_equals_the_recount(tmp_path, monkeypatch):
    """Every row of profiles.csv, folded in several byte ranges, is a
    nonzero count of the brute-force recount, and every such count is a row."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"seed": 18, "n_countries": 8, "n_subjects": 6,
                                    "pubs_per_country_year": 4,
                                    "years": [2010, 2012]}))
    path, regions = tmp_path / "corpus.jsonl", tmp_path / "regions.csv"
    assert _run(["synth", "--scenario", scenario, "--out", path,
                 "--regions-out", regions]) == 0
    monkeypatch.setattr("collabsim.corpus.SHARD_MIN_BYTES", 256)
    monkeypatch.setattr("collabsim.corpus.SHARD_WORKERS", 3)
    assert len(_byte_ranges(path)) == 3
    out = tmp_path / "out"
    assert _run(["profile", "--input", path, "--regions", regions,
                 "--out", out, "--mega-threshold", 4]) == 0

    with open(path, encoding="utf-8") as fh:
        records = [parse_reference(line) for line in fh]
    expected = sorted(
        (country, name, family, code, n)
        for country, entry in recount(records, mega_threshold=4).items()
        for name, key in (("disciplinary", "disc"), ("partner", "part"))
        for family, counts in entry[key].items()
        for code, n in counts.items() if n)
    lines = (out / "profiles.csv").read_text().splitlines()
    assert lines[1:] == [",".join(map(str, row)) for row in expected]
    assert {row[1:3] for row in expected} == {
        *(("disciplinary", f) for f in DISC_FAMILIES),
        *(("partner", f) for f in PART_FAMILIES)}


def test_year_filter_counts_filtered_records(inputs, tmp_path):
    corpus, regions = inputs
    out = tmp_path / "out"
    _run(["report", "--input", corpus, "--regions", regions, "--out", out,
          "--years", "2011:2012"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["validation"]["accepted"] == 6
    assert manifest["n_year_filtered"] == 2


def test_unmapped_policy_keep_buckets_unknown(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id":"p","year":2010,"subjects":["A"],"countries":["XX","NL"]}\n')
    regions = tmp_path / "regions.csv"
    regions.write_text("country,region\nNL,Europe & Central Asia\n")
    out = tmp_path / "out"
    _run(["similarity", "--input", corpus, "--regions", regions, "--out", out,
          "--unmapped-policy", "keep"])
    body = (out / "countries.csv").read_text()
    assert "XX,UNKNOWN" in body

    out_skip = tmp_path / "out_skip"
    _run(["similarity", "--input", corpus, "--regions", regions, "--out", out_skip])
    assert "XX" not in (out_skip / "countries.csv").read_text()


def test_growth_csv_contents(inputs, tmp_path):
    corpus, regions = inputs
    out = tmp_path / "out"
    _run(["growth", "--input", corpus, "--regions", regions, "--out", out,
          "--growth-method", "loglinear"])
    lines = (out / "growth.csv").read_text().splitlines()
    assert lines[0] == "region,collab_type,method,first_year,last_year,rate_pct"
    assert all(",loglinear," in line for line in lines[1:])
    # bilateral NL-ES output appears in 2010 and 2012: one defined row
    assert any(line.startswith("Europe & Central Asia,bilateral") for line in lines[1:])


def test_synth_roundtrip_through_pipeline(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "seed": 5, "n_countries": 6, "n_subjects": 8,
        "pubs_per_country_year": 10, "years": [2009, 2011],
    }))
    corpus = tmp_path / "synthetic.jsonl"
    regions = tmp_path / "regions.csv"
    assert _run(["synth", "--scenario", scenario, "--out", corpus,
                 "--regions-out", regions]) == 0
    out = tmp_path / "out"
    assert _run(["report", "--input", corpus, "--regions", regions,
                 "--out", out, "--years", "2009:2011"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["validation"]["skipped_malformed"] == 0
    assert manifest["validation"]["accepted"] > 100
    assert manifest["n_countries"] == 6


def test_synth_invalid_scenario_exits_2(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    corpus = tmp_path / "corpus.jsonl"
    for spec in ({"seed": 1, "drift_mirc": 3.0},
                 {"seed": 1, "n_countries": "abc"},
                 {"seed": 1, "countries": [1, 2, 3]},
                 {"seed": 1, "type_mix": {"domestic": math.nan, "birc": 0.2,
                                          "mirc": 0.2}},
                 {"seed": 1, "mirc_size": {"3": math.nan}},
                 b'{"seed":1,"countries":["\xff"]}',
                 {"seed": 1, "n_subjects": 0},
                 {"seed": 1, "pubs_per_country_year": 1e300},
                 {"seed": 1, "countries": ["ABC", "DE"],
                  "type_mix": {"domestic": 1, "birc": 0, "mirc": 0}},
                 {"seed": 1, "subjects": ["S1", "S1 ", ""]},
                 {"seed": 2, "n_countries": 3, "n_subjects": 5,
                  "pubs_per_country_year": 5, "years": [1890, 1891]},
                 {"seed": 1, "n_subjects": 10_001},
                 {"seed": 1, "n_countries": -1},
                 {"seed": 1, "n_countries": 3, "mirc_size": {"3": 1},
                  "affinity": [[0, math.inf, 1], [math.inf, 0, 1], [1, 1, 0]]},
                 {"seed": 1, "n_countries": 3, "mirc_size": {"3": 1},
                  "affinity": [[0, 1e308, 1e308], [1e308, 0, 1e308],
                               [1e308, 1e308, 0]]}):
        scenario.write_bytes(spec if isinstance(spec, bytes)
                             else json.dumps(spec).encode())
        assert _run(["synth", "--scenario", scenario, "--out", corpus]) == 2
        assert not corpus.exists()
        assert json.loads(capsys.readouterr().err)["exit_code"] == 2


def _tree(path):
    return sorted(str(p.relative_to(path)) for p in path.rglob("*"))


@pytest.mark.parametrize("existing", ["corpus", "regions"])
def test_synth_onto_a_directory_writes_nothing(tmp_path, capsys, existing):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"seed": 1, "n_countries": 4,
                                    "pubs_per_country_year": 3}))
    corpus, regions = tmp_path / "corpus.jsonl", tmp_path / "regions.csv"
    target = corpus if existing == "corpus" else regions
    target.mkdir()
    (target / "kept.txt").write_text("x")
    before = _tree(tmp_path)
    assert _run(["synth", "--scenario", scenario, "--out", corpus,
                 "--regions-out", regions]) == 2
    # one JSON line; neither file is committed and no staged file is left
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["exit_code"] == 2
    assert _tree(tmp_path) == before
    assert (target / "kept.txt").read_text() == "x"


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"),
                                reason="no named pipes on this platform")


def _is_fifo(path):
    return stat.S_ISFIFO(os.stat(path).st_mode)


@needs_fifo
@pytest.mark.parametrize("fifo", ["corpus", "regions"])
def test_synth_onto_a_fifo_writes_nothing(tmp_path, capsys, fifo):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"seed": 1, "n_countries": 4,
                                    "pubs_per_country_year": 3}))
    corpus, regions = tmp_path / "corpus.jsonl", tmp_path / "regions.csv"
    target = corpus if fifo == "corpus" else regions
    os.mkfifo(target)
    before = _tree(tmp_path)
    assert _run(["synth", "--scenario", scenario, "--out", corpus,
                 "--regions-out", regions]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["exit_code"] == 2
    assert "not a regular file" in json.loads(err[0])["error"]
    assert _is_fifo(target)
    assert _tree(tmp_path) == before


@needs_fifo
def test_report_onto_a_fifo_writes_nothing(inputs, tmp_path, capsys):
    corpus, regions = inputs
    out = tmp_path / "out"
    out.mkdir()
    os.mkfifo(out / "countries.csv")
    assert _run(["report", "--input", corpus, "--regions", regions,
                 "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["exit_code"] == 2
    assert _is_fifo(out / "countries.csv")
    assert _tree(out) == ["countries.csv"]


def test_report_replaces_a_symlink_to_a_regular_file(inputs, tmp_path):
    corpus, regions = inputs
    out, elsewhere = tmp_path / "out", tmp_path / "kept.csv"
    out.mkdir()
    elsewhere.write_text("x")
    (out / "countries.csv").symlink_to(elsewhere)
    assert _run(["report", "--input", corpus, "--regions", regions,
                 "--out", out]) == 0
    assert not (out / "countries.csv").is_symlink()
    assert (out / "countries.csv").read_text().startswith("country,region,")
    assert elsewhere.read_text() == "x"


def test_synth_refuses_one_path_for_both_outputs(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"seed": 1, "n_countries": 4}))
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["synth", "--scenario", scenario, "--out", corpus,
                 "--regions-out", corpus]) == 2
    assert json.loads(capsys.readouterr().err)["exit_code"] == 2
    assert _tree(tmp_path) == ["scenario.json"]


def test_synth_creates_the_parents_of_both_outputs(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"seed": 1, "n_countries": 4,
                                    "pubs_per_country_year": 3}))
    corpus = tmp_path / "a" / "b" / "corpus.jsonl"
    regions = tmp_path / "c" / "d" / "regions.csv"
    assert _run(["synth", "--scenario", scenario, "--out", corpus,
                 "--regions-out", regions]) == 0
    assert capsys.readouterr().err == ""
    assert corpus.read_text().count("\n") > 0
    assert regions.read_text().startswith("country,region\n")
    assert _tree(tmp_path) == ["a", "a/b", "a/b/corpus.jsonl", "c", "c/d",
                               "c/d/regions.csv", "scenario.json"]


def test_synth_failure_removes_the_directories_it_created(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("scenario.json").write_text(json.dumps(
        {"seed": 1, "n_countries": 4, "pubs_per_country_year": 3}))
    # refused before the commit: one path named for both outputs
    assert _run(["synth", "--scenario", "scenario.json", "--out",
                 "new/a.jsonl", "--regions-out", "new/a.jsonl"]) == 2
    assert "named twice" in json.loads(capsys.readouterr().err)["error"]
    assert _tree(tmp_path) == ["scenario.json"]
    # refused at the commit: the region map's target is a directory
    Path("target").mkdir()
    assert _run(["synth", "--scenario", "scenario.json", "--out",
                 "new/deeper/a.jsonl", "--regions-out", "target"]) == 2
    assert "is a directory" in json.loads(capsys.readouterr().err)["error"]
    assert _tree(tmp_path) == ["scenario.json", "target"]
    # a created directory that something else wrote into is kept
    Path("old").mkdir()
    with pytest.raises(KeyboardInterrupt):
        with OutputStager(tmp_path) as stager:
            stager.stage_text("old/new/a.txt", "x")
            (tmp_path / "old" / "new" / "other.txt").write_text("y")
            raise KeyboardInterrupt
    assert _tree(tmp_path / "old") == ["new", "new/other.txt"]
    # an analysis command's output directory goes the same way
    with pytest.raises(KeyboardInterrupt):
        with OutputStager(tmp_path / "made" / "out"):
            raise KeyboardInterrupt
    assert not (tmp_path / "made").exists()


def test_synth_loads_no_report_module(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"seed": 1, "n_countries": 4,
                                    "pubs_per_country_year": 3}))
    corpus = tmp_path / "corpus.jsonl"
    args = ["synth", "--scenario", str(scenario), "--out", str(corpus),
            "--regions-out", str(tmp_path / "regions.csv")]
    code = ("import sys\n"
            "from collabsim.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "loaded = [m for m in ('collabsim.profiles', 'collabsim.aggregates',"
            " 'collabsim.similarity', 'collabsim.reporting')"
            " if m in sys.modules]\n"
            "assert not loaded, f'synth imported {loaded}'\n"
            "sys.exit(status)\n")
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert corpus.read_text().count("\n") > 0


def test_every_public_name_resolves():
    import collabsim
    import collabsim.classify  # noqa: F401 (the submodule, imported again)
    from collabsim import classify
    assert callable(classify)  # the function, not the submodule
    for name in collabsim.__all__:
        getattr(collabsim, name)


@pytest.mark.parametrize("regions_text", ["", "country,region\n"],
                         ids=["empty", "header_only"])
def test_failing_run_with_an_entryless_region_map_prints_one_line(
        tmp_path, regions_text):
    # a child process: under pytest, logging has root handlers, so a
    # warning that reaches stderr only through logging's last resort
    # does not show in-process
    corpus, regions = tmp_path / "bad.jsonl", tmp_path / "regions.csv"
    corpus.write_bytes(b'{"id": "p1", "year": 2010\x00}\n')
    regions.write_text(regions_text)
    proc = subprocess.run([sys.executable, "-m", "collabsim", "validate",
                           "--input", str(corpus), "--regions", str(regions),
                           "--fail-fast"], capture_output=True, text=True)
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1, proc.stderr
    assert json.loads(err[0])["exit_code"] == 2


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "collabsim", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "collabsim" in proc.stdout
