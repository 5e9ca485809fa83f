"""Benchmark workloads: scenarios, CLI commands, defect injection and the
plain-Python output checks, which share no code with collabsim."""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

CORPUS = "corpus.jsonl"
REGIONS = "regions.csv"
SCENARIO = "scenario.json"
DIRTY = "dirty.jsonl"
OUT = "out"
VALIDATE_OUT = "validate.json"
COUNTRIES_CSV = "countries.csv"

YEARS = (2008, 2017)

# MIRC set sizes 3..40; 20 % of the mass sits at 20 or more countries, which
# is the mega class under --mega-threshold 20.
CONSORTIA_SIZES = {"3": 0.25, "4": 0.15, "5": 0.10, "6": 0.08, "8": 0.07,
                   "10": 0.06, "12": 0.05, "15": 0.04, "20": 0.05,
                   "25": 0.05, "30": 0.05, "40": 0.05}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a synth scenario (seed added per run), the
    analysis flags of its command, and whether its corpus gets defects."""

    name: str
    scenario: dict
    smoke_scenario: dict
    subcommand: str = "report"
    flags: dict = field(default_factory=dict)
    dirty: bool = False

    @property
    def input(self) -> str:
        return DIRTY if self.dirty else CORPUS

    def scenario_for(self, seed: int, smoke: bool) -> dict:
        return {**(self.smoke_scenario if smoke else self.scenario), "seed": seed}

    def args(self) -> list[str]:
        """CLI arguments, relative to the workload directory, so the manifest
        (which embeds the paths) is byte-stable."""
        args = [self.subcommand, "--input", self.input, "--regions", REGIONS]
        if self.subcommand != "validate":
            args += ["--out", OUT]
        for flag, value in self.flags.items():
            args += ["--" + flag.replace("_", "-"), str(value)]
        return args

    @property
    def mega_threshold(self) -> int | None:
        return self.flags.get("mega_threshold")


_ACCEPTANCE_8_SHAPE = {"n_countries": 25, "n_subjects": 50,
                       "years": list(YEARS)}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="bulk_report",
        scenario={**_ACCEPTANCE_8_SHAPE, "pubs_per_country_year": 400},
        smoke_scenario={**_ACCEPTANCE_8_SHAPE, "pubs_per_country_year": 8},
    ),
    Workload(
        name="consortia_report",
        scenario={"n_countries": 200, "n_subjects": 250, "years": list(YEARS),
                  "pubs_per_country_year": 10,
                  "type_mix": {"domestic": 0.2, "birc": 0.3, "mirc": 0.5},
                  "mirc_size": CONSORTIA_SIZES},
        smoke_scenario={"n_countries": 50, "n_subjects": 60,
                        "years": list(YEARS), "pubs_per_country_year": 2,
                        "type_mix": {"domestic": 0.2, "birc": 0.3, "mirc": 0.5},
                        "mirc_size": CONSORTIA_SIZES},
        flags={"mega_threshold": 20, "growth_method": "loglinear",
               "region_counting": "country"},
    ),
    Workload(
        name="dirty_validate",
        scenario={**_ACCEPTANCE_8_SHAPE, "pubs_per_country_year": 600},
        smoke_scenario={**_ACCEPTANCE_8_SHAPE, "pubs_per_country_year": 8},
        subcommand="validate",
        dirty=True,
    ),
)}


# --- dirty corpus -----------------------------------------------------------
#
# Invalid UTF-8, a byte-order mark, deeply nested JSON and duplicate ids are
# left out on purpose: the first three currently abort the run with a
# traceback and the handling of the fourth is an open behaviour change
# (ROADMAP item 4). Adding them is the benchmark change that follows that fix.

DEFECT_SHARE = 0.15
VARIANT_SHARE = 0.15
DEFECTS = ("truncated", "bad_year", "empty_subjects", "missing_countries",
           "unmapped")
VARIANTS = ("lower_case", "padded", "repeated", "extra_subject")
# synthetic country codes run AA, AB, ... so Z* codes are never mapped
UNMAPPED_CODES = ("ZZ", "ZY", "ZX")
BAD_YEARS = (1850, 1899, 2101, 2150)

# which validation counter each defect lands in
_DEFECT_COUNTER = {
    "truncated": "skipped_malformed",
    "bad_year": "skipped_malformed",
    "empty_subjects": "skipped_missing_subject",
    "missing_countries": "skipped_missing_country",
    "unmapped": "skipped_unmapped_country",
}


def _pick(rng: random.Random, options):
    return options[int(rng.random() * len(options))]


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def inject_defects(src: Path, dst: Path, seed: int) -> dict:
    """Rewrite a clean synth corpus with a seeded defect mix.

    Returns the counters ``collabsim validate`` must print for the result,
    tallied while injecting.
    """
    rng = random.Random(seed)
    expected = {"total_lines": 0, "accepted": 0,
                "skipped_missing_country": 0, "skipped_missing_subject": 0,
                "skipped_unmapped_country": 0, "skipped_malformed": 0}
    year_min = year_max = None
    with open(src, encoding="utf-8") as fin, \
            open(dst, "w", encoding="utf-8", newline="") as fout:
        for line in fin:
            line = line.rstrip("\n")
            obj = json.loads(line)
            expected["total_lines"] += 1
            u = rng.random()
            if u < DEFECT_SHARE:
                kind = _pick(rng, DEFECTS)
                if kind == "truncated":
                    # a strict prefix of a JSON object never parses
                    line = line[:1 + int(rng.random() * (len(line) - 1))]
                elif kind == "bad_year":
                    obj["year"] = _pick(rng, BAD_YEARS)
                    line = _dump(obj)
                elif kind == "empty_subjects":
                    obj["subjects"] = []
                    line = _dump(obj)
                elif kind == "missing_countries":
                    del obj["countries"]
                    line = _dump(obj)
                else:
                    obj["countries"][0] = _pick(rng, UNMAPPED_CODES)
                    line = _dump(obj)
                expected[_DEFECT_COUNTER[kind]] += 1
            else:
                if u < DEFECT_SHARE + VARIANT_SHARE:
                    variant = _pick(rng, VARIANTS)
                    countries = obj["countries"]
                    if variant == "lower_case":
                        obj["countries"] = [c.lower() for c in countries]
                    elif variant == "padded":
                        obj["countries"] = [f"  {c} " for c in countries]
                    elif variant == "repeated":
                        obj["countries"] = countries + countries[:1]
                    else:
                        obj["subjects"].append(f"X{int(rng.random() * 10)}")
                    line = _dump(obj)
                expected["accepted"] += 1
                year = obj["year"]
                year_min = year if year_min is None else min(year_min, year)
                year_max = year if year_max is None else max(year_max, year)
            fout.write(line + "\n")
    expected["year_range"] = None if year_min is None else [year_min, year_max]
    return expected


def check_validate(stdout_path: Path, expected: dict) -> list[str]:
    """The printed counters equal the injected tally and balance."""
    try:
        counters = json.loads(stdout_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"validate output unreadable: {exc}"]
    problems = []
    if counters != expected:
        problems.append(f"validate counters {counters} != injected {expected}")
    skipped = sum(v for k, v in counters.items() if k.startswith("skipped_"))
    if counters.get("accepted", 0) + skipped != counters.get("total_lines"):
        problems.append("accepted + skipped != total_lines")
    return problems


# --- report recount ---------------------------------------------------------

def recount(corpus: Path, mega_threshold: int | None) -> dict[str, list[int]]:
    """Per-country [n_pub_total, n_dom, n_birc, n_mirc] recounted from a
    clean corpus, independently of the library's classify/fold code."""
    counts: dict[str, list[int]] = {}
    with open(corpus, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if not YEARS[0] <= obj["year"] <= YEARS[1]:
                continue
            countries = {c.strip().upper() for c in obj["countries"]}
            k = len(countries)
            if k == 1:
                column = 1
            elif k == 2:
                column = 2
            elif mega_threshold is not None and k >= mega_threshold:
                column = None
            else:
                column = 3
            for country in countries:
                row = counts.setdefault(country, [0, 0, 0, 0])
                row[0] += 1
                if column is not None:
                    row[column] += 1
    return counts


def check_countries(path: Path, expected: dict[str, list[int]]) -> list[str]:
    """countries.csv carries exactly the recounted per-country counts."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            got = {row["country"]: [int(row["n_pub_total"]), int(row["n_dom"]),
                                    int(row["n_birc"]), int(row["n_mirc"])]
                   for row in csv.DictReader(fh)}
    except (OSError, KeyError, ValueError) as exc:
        return [f"{path.name} unreadable: {exc}"]
    if got != expected:
        bad = sorted(c for c in set(got) | set(expected)
                     if got.get(c) != expected.get(c))
        return [f"{path.name} counts differ from the recount for {bad[:5]}"]
    return []
