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

from .corpus import UNKNOWN_REGION, RegionMap, region_of  # noqa: F401 (re-export)
from .profiles import BIRC, DOMESTIC, INTERNATIONAL, MIRC, CountryProfileSet, Profile

INDICATORS = (
    "sim_dom_int",
    "sim_dom_birc",
    "sim_dom_mirc",
    "sim_birc_mirc_disc",
    "sim_birc_mirc_partner",
)

ABOVE = "above"
BELOW = "below"
AT = "at"
UNDEFINED = "undefined"


def cosine(p: Profile, q: Profile) -> float | None:
    """Cosine similarity of two count profiles, or None if either is empty.

    Counts are integers, so the dot product and squared norms are exact and
    independent of key order; only the final division rounds.
    """
    if p.namespace != q.namespace:
        raise ValueError(
            f"namespace mismatch: {p.namespace!r} vs {q.namespace!r}")
    if p.is_empty or q.is_empty:
        return None
    dot = 0
    for key, v in p.counts.items():
        w = q.counts.get(key)
        if w:
            dot += v * w
    norm2_p = sum(v * v for v in p.counts.values())
    norm2_q = sum(w * w for w in q.counts.values())
    value = dot / math.sqrt(norm2_p * norm2_q)
    # Cauchy-Schwarz holds exactly on the integer side; clamp the one
    # rounding step so proportional profiles report exactly 1.
    return min(value, 1.0)


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
    def international_share(self) -> float | None:
        """International share of all output; None when there is none."""
        return self.n_int / self.n_pub_total if self.n_pub_total else None

    def indicator(self, name: str) -> float | None:
        if name not in INDICATORS:
            raise KeyError(name)
        return getattr(self, name)


def five_indicators(ps: CountryProfileSet,
                    region_map: RegionMap | None = None,
                    ) -> CountrySimilarityReport:
    """Compute the indicator report for one country's profile set.

    Four indicators compare disciplinary profiles (domestic vs pooled
    international, domestic vs birc, domestic vs mirc, birc vs mirc); the
    fifth compares the birc and mirc partner profiles. Countries missing
    from the region map are kept under region "UNKNOWN".
    """
    disc = ps.disciplinary
    counts = ps.pub_counts
    return CountrySimilarityReport(
        country=ps.country,
        region=region_of(region_map, ps.country),
        n_pub_total=counts.n_total,
        n_dom=counts.n_domestic,
        n_birc=counts.n_bilateral,
        n_mirc=counts.n_multilateral,
        n_mega=counts.n_mega,
        sim_dom_int=cosine(disc[DOMESTIC], disc[INTERNATIONAL]),
        sim_dom_birc=cosine(disc[DOMESTIC], disc[BIRC]),
        sim_dom_mirc=cosine(disc[DOMESTIC], disc[MIRC]),
        sim_birc_mirc_disc=cosine(disc[BIRC], disc[MIRC]),
        sim_birc_mirc_partner=cosine(ps.partner[BIRC], ps.partner[MIRC]),
    )


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
