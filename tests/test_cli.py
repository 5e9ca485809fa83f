import json
import math
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from collabsim.cli import _config, build_parser, main
from collabsim.reporting import OutputStager, RunConfig

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


def test_validate_loads_no_numpy(inputs, tmp_path, capsys):
    corpus, regions = inputs
    dirty = tmp_path / "dirty.jsonl"
    dirty.write_text(CORPUS + "garbage\n" + '{"id":"u","year":2010,'
                     '"subjects":["A"],"countries":["XX"]}\n')
    args = ["validate", "--input", str(dirty), "--regions", str(regions)]
    code = ("import sys\n"
            "from collabsim.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "assert 'numpy' not in sys.modules, 'validate imported numpy'\n"
            "sys.exit(status)\n")
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert _run(args) == 0
    assert proc.stdout == capsys.readouterr().out
    assert json.loads(proc.stdout) == {
        "total_lines": 8, "accepted": 6, "skipped_missing_country": 0,
        "skipped_missing_subject": 0, "skipped_unmapped_country": 1,
        "skipped_malformed": 1, "year_range": [2010, 2012]}


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
    cfg.validate()


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
    stager = OutputStager(tmp_path)
    stager.stage_text("old/new/a.txt", "x")
    (tmp_path / "old" / "new" / "other.txt").write_text("y")
    stager.abort()
    assert _tree(tmp_path / "old") == ["new", "new/other.txt"]
    # an analysis command's output directory goes the same way
    OutputStager(tmp_path / "made" / "out").abort()
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
    from collabsim import classify
    assert callable(classify)  # the function, not the submodule
    for name in collabsim.__all__:
        getattr(collabsim, name)


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "collabsim", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "collabsim" in proc.stdout
