"""Regional and temporal aggregates: boxplots, growth rates, thresholds,
scatter datasets.

All operations are pure functions over finished report tables; none mutate
their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING

import numpy as np

from .classify import CollabKind, CollaborationType, _summed, birc_share
from .corpus import PublicationRecord, RegionMap, _check_choice, region_of
from .options import (  # noqa: F401 (re-export)
    CAGR,
    GROWTH_METHODS,
    LOGLINEAR,
    REGION_COUNTING_MODES,
    REGION_COUNTRY_SUM,
    REGION_DEDUP,
    SHARE_DENOMINATORS,
    SHARE_OF_INTERNATIONAL,
    SHARE_OF_TOTAL,
)

if TYPE_CHECKING:  # annotations only; profiles imports this module
    from .profiles import CountryProfileSet
    from .similarity import CountrySimilarityReport

WHISKER = 1.5


@dataclass(frozen=True)
class BoxplotStats:
    """Five-number summary plus the points beyond the 1.5*IQR fences.

    ``minimum``/``maximum`` are the data extremes; outliers are listed
    separately for labelling.
    """

    n: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    outliers: tuple[tuple[str, float], ...] = ()


def _quartiles(values: np.ndarray) -> list[float]:
    """``np.percentile(values, [25, 50, 75])``, bit for bit, without the
    ``numpy.ma`` import it costs; ``values`` is partitioned in place.

    This is numpy's default ``linear`` rule step by step: the same
    partition, then between the neighbours of each virtual index the
    interpolation of numpy's ``_lerp``, which counts back from the upper
    neighbour from half way on. A NaN, sorted last, makes every quartile
    that NaN.
    """
    last = len(values) - 1
    at = [last * q for q in (0.25, 0.5, 0.75)]
    # the neighbours of each virtual index; at or past the end, the last
    lo = [math.floor(v) if v < last else -1 for v in at]
    hi = [i + 1 if i >= 0 else -1 for i in lo]
    values.partition(sorted({0, -1, *lo, *hi}))
    if math.isnan(values[-1]):
        return [float(values[-1])] * 3
    quartiles = []
    for v, i, j in zip(at, lo, hi):
        a, b, t = float(values[i]), float(values[j]), v - i
        diff = b - a
        quartiles.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return quartiles


def boxplot_stats(pairs: Iterable[tuple[str, float]]) -> BoxplotStats:
    """Summarize (country, value) pairs.

    Quartiles use linear interpolation between closest ranks (numpy's
    default percentile rule); outliers fall outside
    [q1 - WHISKER*IQR, q3 + WHISKER*IQR].
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("boxplot_stats needs at least one value")
    values = np.asarray([v for _, v in pairs], dtype=float)
    minimum, maximum = float(values.min()), float(values.max())
    q1, median, q3 = _quartiles(values)
    iqr = q3 - q1
    lo, hi = q1 - WHISKER * iqr, q3 + WHISKER * iqr
    outliers = tuple(sorted((c, float(v)) for c, v in pairs if v < lo or v > hi))
    return BoxplotStats(
        n=len(pairs),
        minimum=minimum,
        q1=q1,
        median=median,
        q3=q3,
        maximum=maximum,
        outliers=outliers,
    )


@dataclass(frozen=True)
class RegionBoxplots:
    """Per-region summaries; ``empty_regions`` lists regions whose every
    value was undefined."""

    per_region: dict[str, BoxplotStats]
    n_undefined: int
    empty_regions: tuple[str, ...]


def region_boxplot(values: Iterable[tuple[str, float | None]],
                   region_map: RegionMap | None = None) -> RegionBoxplots:
    """Group (country, value-or-None) pairs by region and summarize each.

    Defined values must lie in [0, 1] (the aggregated metrics are shares or
    similarities); out-of-range input is an error, undefined entries are
    dropped and counted.
    """
    groups: dict[str, list[tuple[str, float]]] = {}
    seen: dict[str, bool] = {}
    n_undefined = 0
    for country, value in values:
        region = region_of(region_map, country)
        seen.setdefault(region, False)
        if value is None:
            n_undefined += 1
            continue
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"value out of range [0, 1] for {country}: {value}")
        groups.setdefault(region, []).append((country, float(value)))
        seen[region] = True
    per_region = {region: boxplot_stats(pairs) for region, pairs in groups.items()}
    empty_regions = tuple(sorted(r for r, has_data in seen.items() if not has_data))
    return RegionBoxplots(per_region, n_undefined, empty_regions)


@dataclass(frozen=True)
class GrowthRateResult:
    """Annual growth rate as a fraction (0.114 means 11.4 % per year)."""

    rate: float
    method: str
    year_span: tuple[int, int]
    region: str | None = None
    collab_type: str | None = None

    @property
    def rate_pct(self) -> float:
        return 100.0 * self.rate


def growth_rate(annual_counts: dict[int, float],
                method: str = CAGR) -> GrowthRateResult | None:
    """Growth per year from a year -> count mapping.

    ``cagr`` is the compound rate between the first and last nonzero years;
    ``loglinear`` is exp(slope) - 1 from a least-squares fit of ln(count)
    on year. Zero-count years are skipped by both; fewer than two usable
    years means the rate is undefined (None).
    """
    _check_choice("growth method", method, GROWTH_METHODS)
    usable = sorted((year, n) for year, n in annual_counts.items() if n > 0)
    if len(usable) < 2:
        return None
    span = (usable[0][0], usable[-1][0])
    if method == CAGR:
        (y0, n0), (y1, n1) = usable[0], usable[-1]
        rate = (n1 / n0) ** (1.0 / (y1 - y0)) - 1.0
    else:
        years = np.asarray([y for y, _ in usable], dtype=float)
        logs = np.log(np.asarray([n for _, n in usable], dtype=float))
        slope = np.polyfit(years, logs, 1)[0]
        rate = math.expm1(slope)
    return GrowthRateResult(rate, method, span)


@dataclass
class RegionYearCounts:
    """Per-region annual counts by collaboration kind.

    With mode "dedup" a publication counts once per region it touches, even
    when several of its countries share that region; with mode "country"
    it counts once per participating country. Merges field-wise.
    """

    mode: str = REGION_DEDUP
    counts: dict[str, dict[str, dict[int, int]]] = field(default_factory=dict)

    def __post_init__(self):
        _check_choice("region counting mode", self.mode, REGION_COUNTING_MODES)

    def add(self, record: PublicationRecord, ctype: CollaborationType,
            region_map: RegionMap | None = None) -> None:
        regions: Iterable[str] = [region_of(region_map, c)
                                  for c in record.countries]
        if self.mode == REGION_DEDUP:
            regions = set(regions)
        for region in regions:
            by_kind = self.counts.setdefault(region, {})
            by_year = by_kind.setdefault(ctype.kind.value, {})
            by_year[record.year] = by_year.get(record.year, 0) + 1

    def annual(self, region: str, kind: CollabKind) -> dict[int, int]:
        return self.counts.get(region, {}).get(kind.value, {})

    def merge(self, other: "RegionYearCounts") -> "RegionYearCounts":
        if self.mode != other.mode:
            raise ValueError("cannot merge counts with different modes")
        return RegionYearCounts(self.mode, _summed(self.counts, other.counts))

    __add__ = merge


GROWTH_KINDS = (CollabKind.BILATERAL, CollabKind.MULTILATERAL)


def growth_table(region_counts: RegionYearCounts,
                 method: str = CAGR) -> list[GrowthRateResult]:
    """One growth entry per (region, bilateral | multilateral), sorted by
    region; pairs with fewer than two usable years are skipped."""
    out: list[GrowthRateResult] = []
    for region in sorted(region_counts.counts):
        for kind in GROWTH_KINDS:
            result = growth_rate(region_counts.annual(region, kind), method)
            if result is not None:
                out.append(replace(result, region=region,
                                   collab_type=kind.value))
    return out


@dataclass(frozen=True)
class ThresholdFlags:
    threshold: float
    flagged: tuple[tuple[str, float], ...]
    n_undefined: int


def threshold_flags(values: Iterable[tuple[str, float | None]],
                    threshold: float = 0.5) -> ThresholdFlags:
    """Countries whose defined value is strictly below the threshold.

    Undefined values are never flagged, only counted.
    """
    flagged: list[tuple[str, float]] = []
    n_undefined = 0
    for country, value in values:
        if value is None:
            n_undefined += 1
        elif value < threshold:
            flagged.append((country, float(value)))
    return ThresholdFlags(threshold, tuple(sorted(flagged)), n_undefined)


# CountrySimilarityReport fields and properties a scatter axis may read
SCATTER_FIELDS = ("sim_dom_int", "sim_dom_birc", "sim_dom_mirc",
                  "sim_birc_mirc_disc", "sim_birc_mirc_partner",
                  "international_share", "n_pub_total", "n_int", "n_dom",
                  "n_birc", "n_mirc")


@dataclass(frozen=True)
class ScatterPoint:
    country: str
    region: str
    x: float
    y: float
    size: float


def scatter_dataset(reports: Iterable[CountrySimilarityReport],
                    x: str, y: str, size: str = "n_pub_total",
                    region: str | None = None,
                    ) -> tuple[list[ScatterPoint], int]:
    """One point per country with both axes and the size defined.

    Selectors name report fields or properties (see SCATTER_FIELDS).
    Countries with an undefined coordinate are dropped and counted; returns
    (points sorted by country, number dropped).
    """
    for name in (x, y, size):
        if name not in SCATTER_FIELDS:
            raise ValueError(f"unknown selector {name!r}; "
                             f"valid: {', '.join(sorted(SCATTER_FIELDS))}")
    points: list[ScatterPoint] = []
    dropped = 0
    for report in reports:
        if region is not None and report.region != region:
            continue
        px, py, psize = (getattr(report, name) for name in (x, y, size))
        if px is None or py is None or psize is None:
            dropped += 1
            continue
        points.append(ScatterPoint(report.country, report.region,
                                   float(px), float(py), float(psize)))
    points.sort(key=lambda p: p.country)
    return points, dropped


def birc_share_points(
        table: Mapping[str, CountryProfileSet | CountrySimilarityReport],
        denominator: str = SHARE_OF_INTERNATIONAL,
        ) -> list[tuple[str, float | None]]:
    """Per-country bilateral share, either of international output (default)
    or of all output, in country order. ``table`` maps each country to its
    profile set or similarity report; both carry its ``pub_counts``."""
    _check_choice("denominator", denominator, SHARE_DENOMINATORS)
    points: list[tuple[str, float | None]] = []
    for country in sorted(table):
        counts = table[country].pub_counts
        if denominator == SHARE_OF_INTERNATIONAL:
            points.append((country, birc_share(counts)))
        else:
            total = counts.n_total
            points.append((country,
                           counts.n_bilateral / total if total else None))
    return points
