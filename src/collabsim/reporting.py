"""Pipeline wiring and deterministic file outputs for the command line.

All CSV files use fixed 6-decimal float formatting with empty cells for
undefined values, and rows in canonical sort order, so identical inputs and
configuration produce byte-identical outputs. Files are staged to
temporary names and renamed only after every output has been written.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .aggregates import (
    RegionYearCounts,
    birc_share_points,
    growth_table,
    region_boxplot,
    scatter_dataset,
    threshold_flags,
)
from .corpus import CorpusStats, RegionMap, fold_corpus, load_region_map
from .options import OutputStager, RunConfig, UsageError
from .profiles import CountryProfileSet, ProfileFold, dump_rows
from .similarity import (
    INDICATORS,
    CountrySimilarityReport,
    WorldBaseline,
    deviation,
    five_indicators,
    world_baseline,
)


FLOAT_FORMAT = "{:.6f}"

COUNTRIES_CSV = "countries.csv"
REGIONS_CSV = "regions.csv"
GROWTH_CSV = "growth.csv"
FLAGGED_CSV = "flagged.csv"
PROFILES_CSV = "profiles.csv"
MANIFEST_JSON = "manifest.json"

# named scatter configurations; file name is scatter_<name>.csv
SCATTER_PRESETS = {
    "int_vs_domestic": {"x": "international_share", "y": "sim_dom_int",
                        "size": "n_pub_total"},
    "birc_vs_mirc": {"x": "sim_birc_mirc_disc", "y": "sim_birc_mirc_partner",
                     "size": "n_int"},
}

# the two metrics whose low values get highlighted
FLAG_METRICS = ("sim_dom_birc", "sim_dom_mirc")

BOXPLOT_METRICS = ("birc_share",) + INDICATORS


@dataclass
class PipelineResult:
    region_map: RegionMap
    stats: CorpusStats
    n_year_filtered: int
    table: dict[str, CountryProfileSet]
    region_counts: RegionYearCounts
    reports: list[CountrySimilarityReport]
    baseline: WorldBaseline
    # sha256 of each input ("corpus", "regions") read from a stream, which
    # cannot be read again to digest it
    streamed_sha256: dict[str, str] = field(default_factory=dict)


def _stream_sha(path):
    """A sha256 object to update while ``path`` is read when it is not a
    regular file, else None."""
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except OSError:  # reading it reports the error
        regular = True
    return None if regular else hashlib.sha256()


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    """Stream the corpus once: validate and fold the profiles and region
    counts, then derive the similarity reports and world baseline.

    The corpus is folded in byte ranges, in parallel where it is large
    enough (:func:`~collabsim.corpus.fold_corpus`), and the range folds
    merged in file order."""
    shas = {"corpus": _stream_sha(cfg.input), "regions": _stream_sha(cfg.regions)}
    region_map = load_region_map(cfg.regions, shas["regions"])

    def fold_range(rows):
        fold = ProfileFold(cfg.mega_threshold, region_map, cfg.region_counting)
        add, year_min, year_max = fold.add_codes, cfg.year_min, cfg.year_max
        n_year_filtered = 0
        for _, year, subjects, countries in rows:
            if year_min <= year <= year_max:
                add(year, countries, subjects)
            else:
                n_year_filtered += 1
        return fold, n_year_filtered

    stats, parts = fold_corpus(cfg.input, fold_range, region_map, cfg.policy(),
                               shas["corpus"])
    fold, n_year_filtered = parts[0]
    for other, n in parts[1:]:
        fold.merge(other)
        n_year_filtered += n
    table, region_counts = fold.table(), fold.region_counts()
    reports = [five_indicators(table[c], region_map) for c in sorted(table)]
    baseline = world_baseline(reports, cfg.min_pubs)
    return PipelineResult(region_map, stats, n_year_filtered, table,
                          region_counts, reports, baseline,
                          {name: sha.hexdigest() for name, sha in shas.items()
                           if sha is not None})


def _fmt(value) -> str:
    if value is None:
        return ""
    return FLOAT_FORMAT.format(value)


def _fmt_count(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else _fmt(value)


def _digest(path: Path, sha256: str | None = None) -> dict:
    """The path and sha256 of an input: ``sha256`` when it was taken as the
    input was read, else that of the file read now."""
    if sha256 is None:
        sha = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                sha.update(chunk)
        sha256 = sha.hexdigest()
    return {"path": str(path), "sha256": sha256}


def countries_rows(reports, baseline):
    header = ["country", "region", "n_pub_total", "n_dom", "n_birc", "n_mirc",
              "sim_dom_int", "sim_dom_birc", "sim_dom_mirc",
              "sim_birc_mirc_disc", "sim_birc_mirc_partner",
              "label_dom_int", "label_birc_mirc_disc", "label_birc_mirc_partner"]
    rows = []
    for report in sorted(reports, key=lambda r: r.country):
        labels = deviation(report, baseline)
        rows.append([
            report.country, report.region, report.n_pub_total, report.n_dom,
            report.n_birc, report.n_mirc,
            _fmt(report.sim_dom_int), _fmt(report.sim_dom_birc),
            _fmt(report.sim_dom_mirc), _fmt(report.sim_birc_mirc_disc),
            _fmt(report.sim_birc_mirc_partner),
            labels["sim_dom_int"].label,
            labels["sim_birc_mirc_disc"].label,
            labels["sim_birc_mirc_partner"].label,
        ])
    return header, rows


def regions_rows(result: PipelineResult, cfg: RunConfig):
    header = ["region", "n_countries", "metric",
              "min", "q1", "median", "q3", "max", "n_outliers"]
    rows = []
    for metric in BOXPLOT_METRICS:
        if metric == "birc_share":
            values = birc_share_points(result.table, cfg.fig2_denominator)
        else:
            values = [(r.country, r.indicator(metric)) for r in result.reports]
        grouped = region_boxplot(values, result.region_map)
        for region in sorted(grouped.per_region):
            stats = grouped.per_region[region]
            rows.append([region, stats.n, metric,
                         _fmt(stats.minimum), _fmt(stats.q1), _fmt(stats.median),
                         _fmt(stats.q3), _fmt(stats.maximum), len(stats.outliers)])
    return header, rows


def growth_rows(result: PipelineResult, cfg: RunConfig):
    header = ["region", "collab_type", "method",
              "first_year", "last_year", "rate_pct"]
    rows = []
    for entry in growth_table(result.region_counts, cfg.growth_method):
        rows.append([entry.region, entry.collab_type, entry.method,
                     entry.year_span[0], entry.year_span[1],
                     _fmt(entry.rate_pct)])
    return header, rows


def flagged_rows(result: PipelineResult, cfg: RunConfig):
    header = ["metric", "country", "region", "value"]
    region_of = {r.country: r.region for r in result.reports}
    rows = []
    for metric in FLAG_METRICS:
        values = [(r.country, r.indicator(metric)) for r in result.reports]
        flags = threshold_flags(values, cfg.threshold)
        for country, value in flags.flagged:
            rows.append([metric, country, region_of[country], _fmt(value)])
    return header, rows


def scatter_files(result: PipelineResult, cfg: RunConfig):
    """Yield (file name, header, rows) per scatter preset."""
    header = ["country", "region", "x", "y", "size"]
    for name, selectors in SCATTER_PRESETS.items():
        points, _ = scatter_dataset(result.reports, region=cfg.scatter_region,
                                    **selectors)
        rows = [[p.country, p.region, _fmt(p.x), _fmt(p.y), _fmt_count(p.size)]
                for p in points]
        yield f"scatter_{name}.csv", header, rows


def profiles_rows(result: PipelineResult):
    header = ["country", "profile_family", "collab_type", "dimension", "count"]
    return header, [list(row) for row in dump_rows(result.table)]


def manifest_text(cfg: RunConfig, subcommand: str, result: PipelineResult,
                  outputs: list[str]) -> str:
    manifest = {
        "tool": "collabsim",
        "version": __version__,
        "subcommand": subcommand,
        "config": cfg.public_dict(),
        "inputs": {name: _digest(path, result.streamed_sha256.get(name))
                   for name, path in (("corpus", cfg.input),
                                      ("regions", cfg.regions))},
        "validation": result.stats.as_dict(),
        "n_year_filtered": result.n_year_filtered,
        "n_countries": len(result.table),
        "baseline": {
            "min_pubs": result.baseline.min_pubs,
            "means": result.baseline.means,
            "eligible": result.baseline.eligible,
        },
        "outputs": sorted(outputs),
    }
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


_SUBCOMMAND_FILES = {
    "profile": (PROFILES_CSV,),
    "similarity": (COUNTRIES_CSV,),
    "growth": (GROWTH_CSV,),
    "aggregate": (REGIONS_CSV, FLAGGED_CSV, "scatter_*"),
    "report": (COUNTRIES_CSV, REGIONS_CSV, GROWTH_CSV, FLAGGED_CSV, "scatter_*"),
}


def run_outputs(subcommand: str, cfg: RunConfig) -> int:
    """Run the pipeline and write the files owned by ``subcommand``."""
    cfg.validate()
    if cfg.regions is None:
        raise UsageError(f"{subcommand} requires --regions")
    result = run_pipeline(cfg)
    wanted = _SUBCOMMAND_FILES[subcommand]
    stager = OutputStager(cfg.out)
    try:
        if PROFILES_CSV in wanted:
            stager.stage_csv(PROFILES_CSV, *profiles_rows(result))
        if COUNTRIES_CSV in wanted:
            stager.stage_csv(COUNTRIES_CSV,
                             *countries_rows(result.reports, result.baseline))
        if REGIONS_CSV in wanted:
            stager.stage_csv(REGIONS_CSV, *regions_rows(result, cfg))
        if GROWTH_CSV in wanted:
            stager.stage_csv(GROWTH_CSV, *growth_rows(result, cfg))
        if FLAGGED_CSV in wanted:
            stager.stage_csv(FLAGGED_CSV, *flagged_rows(result, cfg))
        if "scatter_*" in wanted:
            for name, header, rows in scatter_files(result, cfg):
                stager.stage_csv(name, header, rows)
        names = stager.staged_names
        stager.stage_text(MANIFEST_JSON,
                          manifest_text(cfg, subcommand, result, names))
        stager.commit()
    except BaseException:
        stager.abort()
        raise
    return 0
