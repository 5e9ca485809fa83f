"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import csv
import json
import random
import resource
import statistics
import subprocess
import sys
import time

import pytest

from collabsim.classify import CollabKind, classify
from collabsim.cli import main
from collabsim.corpus import PublicationRecord, record_to_line
from collabsim.aggregates import CAGR, LOGLINEAR, growth_rate, threshold_flags
from collabsim.profiles import Profile, SUBJECT_SPACE, build_profiles, merge_tables
from collabsim.reporting import RunConfig, run_pipeline
from collabsim.similarity import INDICATORS, cosine
from collabsim.synthgen import (
    Scenario,
    generate,
    region_map_for,
    write_corpus,
    write_jsonl,
)

from oracle import cosine_ref, five_sims_ref, random_records, recount

SIM_TOL = 1e-12


@pytest.fixture
def verdict(capfd):
    """Print one pass/fail line per criterion, visible in any capture mode."""
    def _verdict(cid, ok, detail):
        with capfd.disabled():
            print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})",
                  flush=True)
        assert ok, f"{cid}: {detail}"
    return _verdict


def _write_regions(path, region_map):
    with open(path, "w", newline="") as fh:
        fh.write("country,region\n")
        for country in sorted(region_map.entries):
            fh.write(f"{country},{region_map.entries[country]}\n")


# 1 ------------------------------------------------------------------------

def test_criterion_1_cosine_property_suite(verdict):
    started = time.perf_counter()
    rng = random.Random(1001)
    keys = [f"k{i}" for i in range(12)]
    worst = 0.0
    for trial in range(10_000):
        a = {k: rng.randint(1, 10_000) for k in rng.sample(keys, rng.randint(1, 8))}
        b = {k: rng.randint(1, 10_000) for k in rng.sample(keys, rng.randint(1, 8))}
        pa, pb = Profile(SUBJECT_SPACE, a), Profile(SUBJECT_SPACE, b)
        value = cosine(pa, pb)
        assert 0.0 - SIM_TOL <= value <= 1.0 + SIM_TOL
        assert cosine(pb, pa) == value  # symmetry, exact
        assert abs(cosine(pa, pa) - 1.0) <= SIM_TOL
        scale = rng.randint(2, 17)
        scaled = Profile(SUBJECT_SPACE, {k: scale * v for k, v in a.items()})
        assert abs(cosine(scaled, pb) - value) <= SIM_TOL
        worst = max(worst, abs(value - cosine_ref(a, b)))
    elapsed = time.perf_counter() - started
    verdict("1 cosine properties",
             elapsed < 10.0 and worst <= SIM_TOL,
             f"10^4 profiles, max |impl - ref| {worst:.2e}, {elapsed:.1f}s < 10s")


# 2 ------------------------------------------------------------------------

def _oracle_from_jsonl(path):
    """Independent read + recount straight from the serialized corpus."""
    plain = []
    with open(path) as fh:
        for line in fh:
            obj = json.loads(line)
            plain.append(PublicationRecord(obj["id"], obj["year"],
                                           frozenset(obj["subjects"]),
                                           frozenset(obj["countries"])))
    return recount(plain)


def test_criterion_2_oracle_equivalence(tmp_path, verdict):
    started = time.perf_counter()
    checked_countries = 0
    worst = 0.0
    for trial in range(20):
        corpus = tmp_path / f"corpus{trial}.jsonl"
        if trial % 2 == 0:
            rng = random.Random(500 + trial)
            records = random_records(rng, 500, n_countries=12, n_subjects=10)
            corpus.write_text("".join(record_to_line(r) + "\n" for r in records))
            countries = sorted({c for r in records for c in r.countries})
        else:
            scenario = Scenario.from_dict({
                "seed": 900 + trial, "n_countries": 9, "n_subjects": 12,
                "pubs_per_country_year": 6, "years": [2008, 2017]})
            with open(corpus, "w") as fh:
                write_jsonl(generate(scenario), fh)
            countries = list(scenario.countries)
        regions = tmp_path / f"regions{trial}.csv"
        _write_regions(regions, region_map_for(countries))
        out = tmp_path / f"out{trial}"
        assert main(["similarity", "--input", str(corpus), "--regions",
                     str(regions), "--out", str(out)]) == 0

        reference = _oracle_from_jsonl(corpus)

        # in-memory pipeline reports: similarities within 1e-12
        cfg = RunConfig(input=corpus, regions=regions, out=out)
        result = run_pipeline(cfg)
        for report in result.reports:
            ref_entry = reference[report.country]
            ref_sims = five_sims_ref(ref_entry)
            assert report.n_dom == ref_entry["n"]["domestic"]
            assert report.n_birc == ref_entry["n"]["birc"]
            assert report.n_mirc == ref_entry["n"]["mirc"]
            for name in INDICATORS:
                mine, ref = report.indicator(name), ref_sims[name]
                if ref is None:
                    assert mine is None
                else:
                    worst = max(worst, abs(mine - ref))
                    assert abs(mine - ref) <= SIM_TOL

        # the written countries.csv matches oracle values cell for cell
        with open(out / "countries.csv", newline="") as fh:
            rows = {row["country"]: row for row in csv.DictReader(fh)}
        assert set(rows) == set(reference)
        for country, row in rows.items():
            ref_entry = reference[country]
            ref_sims = five_sims_ref(ref_entry)
            assert int(row["n_dom"]) == ref_entry["n"]["domestic"]
            assert int(row["n_birc"]) == ref_entry["n"]["birc"]
            assert int(row["n_mirc"]) == ref_entry["n"]["mirc"]
            assert int(row["n_pub_total"]) == sum(ref_entry["n"].values())
            for name in INDICATORS:
                expected = ("" if ref_sims[name] is None
                            else f"{ref_sims[name]:.6f}")
                assert row[name] == expected, (country, name)
            checked_countries += 1
    elapsed = time.perf_counter() - started
    verdict("2 oracle equivalence",
             elapsed < 30.0,
             f"20 corpora, {checked_countries} country rows, max sim delta "
             f"{worst:.2e}, {elapsed:.1f}s < 30s")


# 3 ------------------------------------------------------------------------

def _tables_identical(a, b):
    if set(a) != set(b):
        return False
    for country in a:
        x, y = a[country], b[country]
        if (x.disciplinary != y.disciplinary or x.partner != y.partner
                or x.pub_counts != y.pub_counts):
            return False
    return True


def test_criterion_3_merge_law_sharding(verdict):
    ok = True
    for trial in range(10):
        rng = random.Random(3000 + trial)
        records = random_records(rng, 1000, n_countries=14, n_subjects=12)
        single = build_profiles(records)
        shards = [[], [], [], []]
        for record in records:
            shards[rng.randrange(4)].append(record)
        merged = {}
        for shard in shards:
            merged = merge_tables(merged, build_profiles(shard))
        ok = ok and _tables_identical(single, merged)
    verdict("3 merge law", ok,
             "10 corpora x 1000 records, 4-way random shards merge exactly")


# 4 ------------------------------------------------------------------------

def test_criterion_4_classification_totality(verdict):
    codes = [f"{a}{b}" for a in "ABCDEF" for b in "ABCDEF"]
    rng = random.Random(4)
    checked = 0
    for threshold in (None, 20):
        for k in range(1, 31):
            for _ in range(5):
                countries = frozenset(rng.sample(codes, k))
                record = PublicationRecord("r", rng.randint(1990, 2030),
                                           frozenset({"S"}), countries)
                ctype = classify(record, mega_threshold=threshold)
                if k == 1:
                    assert ctype.kind is CollabKind.DOMESTIC
                elif k == 2:
                    assert ctype.kind is CollabKind.BILATERAL
                elif threshold is not None and k >= threshold:
                    assert ctype.kind is CollabKind.MEGA
                else:
                    assert ctype.kind is CollabKind.MULTILATERAL
                checked += 1
    verdict("4 classification totality", checked == 300,
             "k = 1..30, threshold off and 20, exhaustive and total")


# 5 ------------------------------------------------------------------------

def test_criterion_5_mirc_drift_hypothesis(tmp_path, verdict):
    started = time.perf_counter()
    wins = 0
    for seed in range(20):
        scenario = Scenario.from_dict({
            "seed": seed, "n_countries": 20, "n_subjects": 40,
            "pubs_per_country_year": 500, "years": [2008, 2017],
            "drift_birc": 0.2, "drift_mirc": 0.8,
        })
        corpus, regions = tmp_path / "corpus.jsonl", tmp_path / "regions.csv"
        with open(corpus, "w") as fh:
            write_corpus(scenario, fh)
        _write_regions(regions, region_map_for(scenario.countries))
        reports = run_pipeline(RunConfig(corpus, regions, tmp_path)).reports
        assert len(reports) == 20
        med_birc = statistics.median(r.sim_dom_birc for r in reports)
        med_mirc = statistics.median(r.sim_dom_mirc for r in reports)
        if med_mirc < med_birc:
            wins += 1
    elapsed = time.perf_counter() - started
    verdict("5 mirc drift hypothesis",
             wins >= 19 and elapsed < 120.0,
             f"median sim_dom_mirc < sim_dom_birc in {wins}/20 seeds, "
             f"{elapsed:.1f}s < 120s")


# 6 ------------------------------------------------------------------------

def test_criterion_6_growth_rate_checks(verdict):
    ok = True
    for method in (CAGR, LOGLINEAR):
        constant = growth_rate({2000: 100, 2001: 100, 2002: 100}, method)
        ok = ok and abs(constant.rate_pct) <= 1e-9
        doubling = growth_rate({2000: 100, 2001: 200}, method)
        ok = ok and abs(doubling.rate_pct - 100.0) <= 1e-6
        geometric = {year: 100.0 * 1.114 ** (year - 1980)
                     for year in range(1980, 2018)}
        recovered = growth_rate(geometric, method)
        ok = ok and abs(recovered.rate_pct - 11.4) <= 0.05
        ok = ok and recovered.year_span == (1980, 2017)
    verdict("6 growth rates", ok,
             "constant 0.0000%, doubling 100.0000%, 11.4%/yr over 37y "
             "recovered within 0.05pp by cagr and loglinear")


# 7 ------------------------------------------------------------------------

def test_criterion_7_threshold_flagging(verdict):
    values = [("C0", 0.10), ("C1", 0.49), ("C2", 0.50), ("C3", 0.51),
              ("C4", 0.999), ("C5", 0.0), ("C6", None), ("C7", 0.25),
              ("C8", 0.75), ("C9", 0.4999)]
    flags = threshold_flags(values, 0.5)
    manual = sorted((c, v) for c, v in values if v is not None and v < 0.5)
    boundary_excluded = all(c != "C2" for c, _ in flags.flagged)
    ok = (list(flags.flagged) == manual and boundary_excluded
          and flags.n_undefined == 1)
    verdict("7 threshold flagging", ok,
             f"{len(flags.flagged)} flagged, boundary 0.5 not flagged, "
             "matches the manual filter")


# 8 ------------------------------------------------------------------------

def test_criterion_8_determinism_and_performance(tmp_path, verdict):
    scenario = Scenario.from_dict({
        "seed": 404, "n_countries": 25, "n_subjects": 50,
        "pubs_per_country_year": 4000, "years": [2008, 2017],
    })
    corpus = tmp_path / "big.jsonl"
    with open(corpus, "w") as fh:
        n_records = write_corpus(scenario, fh)
    assert n_records > 900_000
    regions = tmp_path / "regions.csv"
    _write_regions(regions, region_map_for(scenario.countries))

    out = tmp_path / "out"
    args = [sys.executable, "-m", "collabsim", "report",
            "--input", str(corpus), "--regions", str(regions),
            "--out", str(out)]
    runtimes = []
    snapshots = []
    for _ in range(2):
        started = time.perf_counter()
        proc = subprocess.run(args, capture_output=True, text=True)
        runtimes.append(time.perf_counter() - started)
        assert proc.returncode == 0, proc.stderr
        snapshots.append({path.name: path.read_bytes()
                          for path in sorted(out.iterdir())})
    peak_gb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1048576
    identical = snapshots[0] == snapshots[1]
    within_time = max(runtimes) < 60.0
    within_memory = peak_gb < 2.0
    verdict("8 determinism and performance",
             identical and within_time and within_memory,
             f"{n_records} records, runs {runtimes[0]:.1f}s/{runtimes[1]:.1f}s "
             f"< 60s, peak child rss {peak_gb:.2f} GB < 2 GB, "
             f"{len(snapshots[0])} files byte-identical: {identical}")
