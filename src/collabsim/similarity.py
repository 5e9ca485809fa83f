"""Cosine similarity between count profiles and per-country indicator reports.

The similarity of two profiles is the cosine of the angle between them:
dot(p, q) / (|p| * |q|) over the union of their keys, with missing keys
treated as zero. A value of 1 means the profiles are proportional, 0 means
their supports are disjoint. When either profile is all zero the similarity
is undefined and reported as None, never as a number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import TypeCounts
from .corpus import UNKNOWN_REGION, RegionMap, region_of  # noqa: F401 (re-export)
from .profiles import (BIRC, DOMESTIC, INTERNATIONAL, MIRC, CountryProfileSet,
                       ProfileTable, _family_rows)

# each indicator's profile field and the two families it compares
_PAIRS = {
    "sim_dom_int": ("disciplinary", DOMESTIC, INTERNATIONAL),
    "sim_dom_birc": ("disciplinary", DOMESTIC, BIRC),
    "sim_dom_mirc": ("disciplinary", DOMESTIC, MIRC),
    "sim_birc_mirc_disc": ("disciplinary", BIRC, MIRC),
    "sim_birc_mirc_partner": ("partner", BIRC, MIRC),
}
INDICATORS = tuple(_PAIRS)

ABOVE = "above"
BELOW = "below"
AT = "at"
UNDEFINED = "undefined"


def _cosine(dot: int, norm2_p: int, norm2_q: int) -> float | None:
    """The cosine of two count vectors from their integer dot product and
    squared norms, or None if either norm is 0.

    Only the division rounds. Cauchy-Schwarz holds exactly on the integer
    side, so the clamp makes proportional vectors report exactly 1.
    """
    if not norm2_p or not norm2_q:
        return None
    return min(dot / math.sqrt(norm2_p * norm2_q), 1.0)


def cosine(p: dict[str, int], q: dict[str, int]) -> float | None:
    """Cosine similarity of two ``{code: count}`` profiles, or None if
    either is empty.

    Counts are integers, so the dot product and squared norms are exact and
    independent of key order; only the final division rounds.
    """
    dot = 0
    for key, v in p.items():
        w = q.get(key)
        if w:
            dot += v * w
    return _cosine(dot, sum(v * v for v in p.values()),
                   sum(w * w for w in q.values()))


@dataclass(frozen=True)
class CountrySimilarityReport:
    """The five similarity indicators for one country, plus its counts.

    An indicator is None exactly when one of the compared profiles has zero
    total. ``n_mega`` is only nonzero when the mega class was enabled.
    """

    country: str
    region: str
    n_pub_total: int
    n_dom: int
    n_birc: int
    n_mirc: int
    n_mega: int
    sim_dom_int: float | None
    sim_dom_birc: float | None
    sim_dom_mirc: float | None
    sim_birc_mirc_disc: float | None
    sim_birc_mirc_partner: float | None

    @property
    def n_int(self) -> int:
        return self.n_birc + self.n_mirc + self.n_mega

    @property
    def pub_counts(self) -> TypeCounts:
        return TypeCounts(self.n_dom, self.n_birc, self.n_mirc, self.n_mega)

    @property
    def international_share(self) -> float | None:
        """International share of all output; None when there is none."""
        return self.n_int / self.n_pub_total if self.n_pub_total else None

    def indicator(self, name: str) -> float | None:
        if name not in INDICATORS:
            raise KeyError(name)
        return getattr(self, name)


def _report(country: str, region_map: RegionMap | None, counts: TypeCounts,
            sims) -> CountrySimilarityReport:
    return CountrySimilarityReport(
        country, region_of(region_map, country), counts.n_total,
        counts.n_domestic, counts.n_bilateral, counts.n_multilateral,
        counts.n_mega, *sims)


def five_indicators(ps: CountryProfileSet,
                    region_map: RegionMap | None = None,
                    ) -> CountrySimilarityReport:
    """Compute the indicator report for one country's profile set.

    Four indicators compare disciplinary profiles (domestic vs pooled
    international, domestic vs birc, domestic vs mirc, birc vs mirc); the
    fifth compares the birc and mirc partner profiles. Countries missing
    from the region map are kept under region "UNKNOWN".
    """
    return _report(ps.country, region_map, ps.pub_counts,
                   [cosine(getattr(ps, field)[a], getattr(ps, field)[b])
                    for field, a, b in _PAIRS.values()])


def _exact(*rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """``rows``, count arrays of one width: as they are when no dot product
    of two of their rows can pass int64, else as arrays of Python ints."""
    top = max(int(r.max(initial=0)) for r in rows)
    if top * top * rows[0].shape[-1] < 1 << 62:
        return rows
    return tuple(r.astype(object) for r in rows)


def table_reports(table: ProfileTable, region_map: RegionMap | None = None,
                  ) -> list[CountrySimilarityReport]:
    """The :func:`five_indicators` report of every country of ``table``, in
    country order, from its count arrays: per compared pair of family rows,
    one integer dot product and two squared norms feed :func:`_cosine`, so
    every value is the one :func:`cosine` gives on the profile dicts."""
    def dots(p, q):
        return (p * q).sum(axis=1).tolist()

    sims = []
    for field, a, b in _PAIRS.values():
        p, q = _exact(*(_family_rows(getattr(table, field), family)
                        for family in (a, b)))
        sims.append(list(map(_cosine, dots(p, q), dots(p, p), dots(q, q))))
    countries = table.countries
    return [_report(countries[i], region_map, TypeCounts(*table.pubs[i]),
                    [s[i] for s in sims])
            for i in sorted(range(len(countries)), key=countries.__getitem__)]


@dataclass(frozen=True)
class WorldBaseline:
    """Unweighted per-indicator means over eligible countries."""

    means: dict[str, float | None]
    eligible: dict[str, int]
    min_pubs: int


def world_baseline(reports, min_pubs: int = 1) -> WorldBaseline:
    """Per indicator, the unweighted mean over countries where the indicator
    is defined and the country has at least ``min_pubs`` publications.

    Indicators with no eligible country get a None baseline.
    """
    if min_pubs < 0:
        raise ValueError("min_pubs must be >= 0")
    means: dict[str, float | None] = {}
    eligible: dict[str, int] = {}
    for name in INDICATORS:
        values = [r.indicator(name) for r in reports
                  if r.n_pub_total >= min_pubs and r.indicator(name) is not None]
        eligible[name] = len(values)
        means[name] = sum(values) / len(values) if values else None
    return WorldBaseline(means, eligible, min_pubs)


@dataclass(frozen=True)
class Deviation:
    delta: float | None
    label: str


def deviation(report: CountrySimilarityReport,
              baseline: WorldBaseline) -> dict[str, Deviation]:
    """Signed distance from the baseline per indicator, with a sign label
    (above / below / at); undefined inputs label as "undefined"."""
    out: dict[str, Deviation] = {}
    for name in INDICATORS:
        value = report.indicator(name)
        mean = baseline.means[name]
        if value is None or mean is None:
            out[name] = Deviation(None, UNDEFINED)
            continue
        delta = value - mean
        if delta == 0:
            label = AT
        elif delta > 0:
            label = ABOVE
        else:
            label = BELOW
        out[name] = Deviation(delta, label)
    return out
