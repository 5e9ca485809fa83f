"""Traced in-process layer pass: one span per call into each collabsim module.

Spans (name, start, end, parent) are recorded here, in the benchmark, around
calls to the library's public functions; the library itself is not changed.
Each pass rebuilds the ``report`` pipeline layer by layer, runs the untraced
``reporting.run_pipeline`` on the same input as the reference, runs the
reference passes (line read, ``json.loads`` only, ``parse_record`` only),
the aggregate and output layers, a sharded fold merged with the library's
own combiners, and the synthetic generator. The traced pipeline total minus
the untraced ``run_pipeline`` is reported as tracing overhead.
"""

from __future__ import annotations

import json
import operator
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from functools import reduce
from pathlib import Path

from run import SRC, WORK, Spawner, child_env, prepare, sha256
from workloads import CORPUS, REGIONS, Workload

sys.path.insert(0, str(SRC))

import collabsim  # noqa: E402
from collabsim import (  # noqa: E402
    INDICATORS,
    CorpusStats,
    RecordError,
    RegionYearCounts,
    Scenario,
    accumulate,
    birc_share_points,
    classify,
    dump_rows,
    five_indicators,
    generate,
    growth_table,
    iter_accepted,
    load_region_map,
    merge_tables,
    parse_record,
    region_boxplot,
    scatter_dataset,
    threshold_flags,
    world_baseline,
)
from collabsim.classify import CollabKind  # noqa: E402
from collabsim.reporting import (  # noqa: E402
    BOXPLOT_METRICS,
    COUNTRIES_CSV,
    FLAG_METRICS,
    FLAGGED_CSV,
    GROWTH_CSV,
    MANIFEST_JSON,
    REGIONS_CSV,
    SCATTER_PRESETS,
    OutputStager,
    PipelineResult,
    RunConfig,
    countries_rows,
    flagged_rows,
    growth_rows,
    manifest_text,
    regions_rows,
    run_pipeline,
    scatter_files,
)
from collabsim.synthgen import write_jsonl  # noqa: E402

if not Path(collabsim.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"collabsim imported from {collabsim.__file__}, "
                      f"not from {SRC}")

STARTUP_CALLS = 3

# per-layer metric -> unit; timing metrics are span name + ".s"
TIMED_LAYERS = (
    "cli.startup",
    "corpus.load_region_map", "corpus.read_lines", "corpus.json_decode",
    "corpus.parse_record", "corpus.iter_accepted",
    "classify.classify",
    "profiles.accumulate", "profiles.merge_tables", "profiles.dump_rows",
    "aggregates.RegionYearCounts.add", "aggregates.region_boxplot",
    "aggregates.growth_table", "aggregates.threshold_flags",
    "aggregates.scatter_dataset",
    "similarity.five_indicators", "similarity.world_baseline",
    "reporting.rows", "reporting.stage_commit", "reporting.manifest_text",
    "reporting.run_pipeline",
    "synthgen.generate", "synthgen.write_jsonl",
)
COUNT_UNITS = {
    "corpus.lines": "count", "corpus.accepted": "count",
    "corpus.skipped": "count", "corpus.accept_ratio": "ratio",
    "classify.domestic": "count", "classify.birc": "count",
    "classify.mirc": "count", "classify.mega": "count",
    "profiles.accumulate.calls": "count", "profiles.increments": "count",
    "profiles.countries": "count", "profiles.dump_rows.rows": "count",
    "profiles.merge_tables.shards": "count",
    "similarity.undefined": "count",
    "reporting.output_bytes": "bytes",
    "synthgen.records": "count",
}


class Tracer:
    """Spans kept in memory: id, name, parent id, start, end (seconds)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


def _increments(record, kind: CollabKind) -> int:
    """Profile increments ``accumulate`` makes for one record: one per
    (country, subject) in its family, doubled into the pooled international
    family, plus two per ordered (country, partner) pair if international."""
    k, s = len(record.countries), len(record.subjects)
    if kind == CollabKind.DOMESTIC:
        return k * s
    return 2 * k * s + 2 * k * (k - 1)


def fold(records, cfg: RunConfig, region_map, tracer: Tracer | None = None):
    """Year filter, classify, accumulate and region counts over ``records``,
    each layer in its own span when traced. Returns (table, region counts,
    n_year_filtered, classified pairs)."""
    tr = tracer or Tracer()
    with tr.span("classify.classify"):
        pairs = [(r, classify(r, cfg.mega_threshold)) for r in records
                 if cfg.year_min <= r.year <= cfg.year_max]
    table: dict = {}
    with tr.span("profiles.accumulate"):
        for record, ctype in pairs:
            accumulate(table, record, ctype)
    region_counts = RegionYearCounts(mode=cfg.region_counting)
    with tr.span("aggregates.RegionYearCounts.add"):
        for record, ctype in pairs:
            region_counts.add(record, ctype, region_map)
    return table, region_counts, len(records) - len(pairs), pairs


def traced_pass(tr: Tracer, workload: Workload, wd: Path, spec: dict,
                shards: int) -> tuple[dict, list[str]]:
    """One traced pass; returns (counts, problems)."""
    problems: list[str] = []
    corpus = wd / workload.input
    cfg = RunConfig(input=corpus, regions=wd / REGIONS, out=wd / "trace_out",
                    **workload.flags)
    counts: dict = {}

    with tr.span("trace.pipeline"):
        with tr.span("corpus.load_region_map"):
            region_map = load_region_map(cfg.regions)
        stats = CorpusStats()
        with tr.span("corpus.iter_accepted"):
            with open(corpus, encoding="utf-8") as fh:
                records = list(iter_accepted(fh, region_map, cfg.policy(), stats))
        table, region_counts, n_year_filtered, pairs = fold(
            records, cfg, region_map, tr)
        with tr.span("similarity.five_indicators"):
            reports = [five_indicators(table[c], region_map) for c in sorted(table)]
        with tr.span("similarity.world_baseline"):
            baseline = world_baseline(reports, cfg.min_pubs)
    result = PipelineResult(region_map, stats, n_year_filtered, table,
                            region_counts, reports, baseline)

    with tr.span("reporting.run_pipeline"):
        reference = run_pipeline(cfg)
    if reference != result:
        problems.append("traced pipeline result differs from run_pipeline")

    with tr.span("corpus.read_lines"):
        with open(corpus, encoding="utf-8") as fh:
            lines = list(fh)
    with tr.span("corpus.json_decode"):
        for line in lines:
            try:
                json.loads(line)
            except ValueError:
                pass
    with tr.span("corpus.parse_record"):
        for line_no, line in enumerate(lines, start=1):
            try:
                parse_record(line, line_no)
            except RecordError:
                pass

    with tr.span("aggregates.region_boxplot"):
        for metric in BOXPLOT_METRICS:
            values = (birc_share_points(table, cfg.fig2_denominator)
                      if metric == "birc_share"
                      else [(r.country, r.indicator(metric)) for r in reports])
            region_boxplot(values, region_map)
    with tr.span("aggregates.growth_table"):
        growth_table(region_counts, cfg.growth_method)
    with tr.span("aggregates.threshold_flags"):
        for metric in FLAG_METRICS:
            threshold_flags([(r.country, r.indicator(metric)) for r in reports],
                            cfg.threshold)
    with tr.span("aggregates.scatter_dataset"):
        for selectors in SCATTER_PRESETS.values():
            scatter_dataset(reports, region=cfg.scatter_region, **selectors)

    with tr.span("reporting.rows"):
        files = {COUNTRIES_CSV: countries_rows(reports, baseline),
                 REGIONS_CSV: regions_rows(result, cfg),
                 GROWTH_CSV: growth_rows(result, cfg),
                 FLAGGED_CSV: flagged_rows(result, cfg)}
        files.update((name, (header, rows))
                     for name, header, rows in scatter_files(result, cfg))
    with tr.span("reporting.manifest_text"):
        manifest = manifest_text(cfg, "report", result, sorted(files))
    with tr.span("reporting.stage_commit"):
        stager = OutputStager(cfg.out)
        for name, (header, rows) in files.items():
            stager.stage_csv(name, header, rows)
        stager.stage_text(MANIFEST_JSON, manifest)
        stager.commit()
    counts["reporting.output_bytes"] = sum(
        (cfg.out / name).stat().st_size for name in [*files, MANIFEST_JSON])

    with tr.span("profiles.dump_rows"):
        dump = list(dump_rows(table))
    counts["profiles.dump_rows.rows"] = len(dump)

    # fold-combiner check: contiguous line shards, folded separately, merged
    # with the library's combiners, must equal the serial result exactly
    with tr.span("trace.shard_fold"):
        size = -(-len(lines) // shards)
        shard_stats, shard_tables, shard_counts = [], [], []
        for i in range(shards):
            shard_stats.append(CorpusStats())
            shard_records = list(iter_accepted(lines[i * size:(i + 1) * size],
                                               region_map, cfg.policy(),
                                               shard_stats[-1]))
            shard_table, counts_i, _, _ = fold(shard_records, cfg, region_map)
            shard_tables.append(shard_table)
            shard_counts.append(counts_i)
    with tr.span("profiles.merge_tables"):
        merged_table = reduce(merge_tables, shard_tables)
    if merged_table != table:
        problems.append("merged shard tables differ from the serial table")
    if (reduce(operator.add, shard_stats) != stats
            or reduce(operator.add, shard_counts) != region_counts):
        problems.append("merged shard counters differ from the serial ones")
    counts["profiles.merge_tables.shards"] = shards

    with tr.span("synthgen.generate"):
        synth_records = list(generate(Scenario.from_dict(spec)))
    with tr.span("synthgen.write_jsonl"):
        with open(wd / "trace_corpus.jsonl", "w", encoding="utf-8",
                  newline="") as fh:
            write_jsonl(synth_records, fh)
    if sha256(wd / "trace_corpus.jsonl") != sha256(wd / CORPUS):
        problems.append("in-process generate differs from collabsim synth")
    counts["synthgen.records"] = len(synth_records)

    for _ in range(STARTUP_CALLS):
        with tr.span("cli.startup"):
            done = subprocess.run([sys.executable, "-m", "collabsim",
                                   "--version"], env=child_env(),
                                  capture_output=True)
        if done.returncode != 0:
            problems.append(f"collabsim --version exited {done.returncode}")

    kinds = [ctype.kind for _, ctype in pairs]
    counts.update({
        "corpus.lines": len(lines),
        "corpus.accepted": stats.accepted,
        "corpus.skipped": stats.skipped_total,
        "corpus.accept_ratio": stats.accepted / len(lines),
        "classify.domestic": kinds.count(CollabKind.DOMESTIC),
        "classify.birc": kinds.count(CollabKind.BILATERAL),
        "classify.mirc": kinds.count(CollabKind.MULTILATERAL),
        "classify.mega": kinds.count(CollabKind.MEGA),
        "profiles.accumulate.calls": len(pairs),
        "profiles.increments": sum(_increments(r, c.kind) for r, c in pairs),
        "profiles.countries": len(table),
        "similarity.undefined": sum(r.indicator(name) is None
                                    for r in reports for name in INDICATORS),
    })
    if not stats.balanced():
        problems.append("accepted + skipped != total_lines")
    return counts, problems


def traced_run(workload: Workload, seed: int, seconds: float,
               spawner: Spawner, smoke: bool = False) -> dict:
    """Repeat traced passes for ``seconds`` (at least one); every timing is
    the median over its spans, every count must repeat exactly."""
    setup = prepare(workload, seed, smoke, spawner, reps=1)
    spec = workload.scenario_for(seed, smoke)
    shards = max(2, len(os.sched_getaffinity(0)))
    tracer = Tracer()
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        with tracer.span("pass"):
            counts, problems = traced_pass(tracer, workload, setup.wd, spec,
                                           shards)
        if passes and counts != passes[0][0]:
            problems.append("counts differ from the first pass")
        problems += setup.problems
        for problem in problems:
            print(f"{workload.name} pass {len(passes)}: {problem}",
                  file=sys.stderr)
        passes.append((counts, problems))

    metrics = {f"{name}.s": (statistics.median(tracer.durations(name)), "s")
               for name in TIMED_LAYERS}
    metrics.update((name, (value, COUNT_UNITS[name]))
                   for name, value in passes[0][0].items())
    overheads = [p - r for p, r in zip(tracer.durations("trace.pipeline"),
                                       tracer.durations("reporting.run_pipeline"))]
    metrics["trace.overhead.s"] = (statistics.median(overheads), "s")
    (WORK / workload.name / "spans.json").write_text(
        json.dumps(tracer.spans) + "\n")

    pipeline = statistics.median(tracer.durations("trace.pipeline"))
    lines = [f"{workload.name:17s} {name:36s} {value:14.6f} {unit}"
             for name, (value, unit) in metrics.items()]
    lines += [f"{workload.name:17s} {'trace.pipeline.s':36s} {pipeline:14.6f} s"
              f"  traced total, {len(passes)} passes"]
    lines += baseline_table(metrics)
    failed = sum(1 for _, problems in passes if problems)
    return {"workload": workload.name, "attempted": len(passes),
            "failed": failed, "metrics": metrics, "lines": lines,
            "inputs": setup.inputs}


def baseline_table(metrics: dict) -> list[str]:
    """The traced split in the rows of the ROADMAP baseline table."""
    m = {name: value for name, (value, _) in metrics.items()}
    rows = [
        ("read lines only", m["corpus.read_lines.s"]),
        ("json.loads only", m["corpus.json_decode.s"]),
        ("parse_record", m["corpus.parse_record.s"]),
        ("iter_accepted", m["corpus.iter_accepted.s"]),
        ("classify + profile fold + region counts",
         m["classify.classify.s"] + m["profiles.accumulate.s"]
         + m["aggregates.RegionYearCounts.add.s"]),
        ("run_pipeline total", m["reporting.run_pipeline.s"]),
        ("all CSV rows + manifest",
         m["reporting.rows.s"] + m["reporting.manifest_text.s"]),
    ]
    return [f"# baseline-table {label:40s} {seconds:10.4f} s"
            for label, seconds in rows]
