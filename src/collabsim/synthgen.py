"""Seeded synthetic corpus generation for desk-scale experiments.

The generator draws publications under a parameterized globalization
scenario. Each record is anchored at one country and year:

* the collaboration type is sampled from (p_dom, p_birc, p_mirc);
* the subject comes from a mixture (1 - d) * country_base + d * global
  agenda, where d is 0 for domestic records, ``drift_birc`` for bilateral
  ones and ``drift_mirc`` for multilateral ones;
* bilateral partners are drawn by affinity, multilateral partner sets by
  sequential affinity-weighted draws without replacement.

Raising the drift of a collaboration type pulls its output toward the
shared global agenda and away from the country's own topic base, so the
corresponding domestic-vs-type similarity drops. Generation is sequential
and fully determined by the scenario seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .corpus import (
    _CANONICAL_CODES,
    DEFAULT_YEAR_WINDOW,
    PublicationRecord,
    RegionMap,
    _utf8_ok,
    normalize_country,
    record_to_line,
)

WORLD_BANK_REGIONS = (
    "East Asia & Pacific",
    "Europe & Central Asia",
    "Latin America & Caribbean",
    "Middle East & North Africa",
    "North America",
    "South Asia",
    "Sub-Saharan Africa",
)

_PROB_TOL = 1e-9

# each country-year draws arrays of about this many records, so a larger
# mean asks for more memory than a desk-scale corpus needs
_MAX_PUBS_PER_COUNTRY_YEAR = 1_000_000

# every country row of base_topic holds one weight per subject
_MAX_SUBJECTS = 10_000

_KNOWN_KEYS = {
    "seed", "countries", "n_countries", "subjects", "n_subjects",
    "type_mix", "mirc_size", "drift_birc", "drift_mirc", "years",
    "pubs_per_country_year", "base_topic", "base_concentration",
    "shared_base", "global_agenda", "affinity",
}


class ScenarioError(ValueError):
    """The scenario description is invalid."""


def _number(spec: dict, key: str, default, kind=float):
    """``spec[key]`` (or ``default``) converted by ``kind``; a value that is
    not a finite number raises :class:`ScenarioError`."""
    value = spec.get(key, default)
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{key} must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ScenarioError(f"{key} must be finite, got {value!r}")
    return number


def _array(spec: dict, key: str) -> np.ndarray:
    try:
        return np.asarray(spec[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{key} must be an array of numbers") from exc


def _strings(spec: dict, key: str) -> list:
    values = spec[key]
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ScenarioError(f"{key} must be a list of strings")
    return values


def _check_codes(countries: tuple[str, ...], subjects: tuple[str, ...]) -> None:
    """Reject country and subject codes that ingest would not read back
    unchanged (see :func:`collabsim.corpus.parse_record`)."""
    if not countries:
        raise ScenarioError("at least one country required")
    if len(set(countries)) != len(countries):
        raise ScenarioError("duplicate country codes")
    for code in countries:
        if code not in _CANONICAL_CODES:
            raise ScenarioError(
                f"countries must be two-letter codes AA..ZZ, got {code!r}")
    if not subjects or len(set(subjects)) != len(subjects):
        raise ScenarioError("subjects must be non-empty and unique")
    if len(subjects) > _MAX_SUBJECTS:
        raise ScenarioError(f"at most {_MAX_SUBJECTS} subjects supported")
    for code in subjects:
        if not code or code != code.strip() or not _utf8_ok(code):
            raise ScenarioError("subjects must be non-empty, stripped and "
                                f"valid UTF-8, got {code!r}")


def _default_countries(n: int) -> list[str]:
    if n > len(_CANONICAL_CODES):
        raise ScenarioError("at most 676 synthetic countries supported")
    return sorted(_CANONICAL_CODES)[:max(n, 0)]


def _default_subjects(n: int) -> list[str]:
    if n > _MAX_SUBJECTS:
        raise ScenarioError(f"at most {_MAX_SUBJECTS} subjects supported")
    return [f"S{i:03d}" for i in range(n)]


@dataclass(eq=False)
class Scenario:
    """Full parameter set for one synthetic corpus.

    ``base_topic`` is a (countries x subjects) row-stochastic matrix;
    ``affinity`` a symmetric non-negative partner-preference matrix whose
    diagonal is ignored. ``mirc_size`` maps multilateral set sizes (>= 3)
    to probabilities.
    """

    countries: tuple[str, ...]
    subjects: tuple[str, ...]
    base_topic: np.ndarray
    global_agenda: np.ndarray
    type_mix: tuple[float, float, float]
    mirc_size: dict[int, float]
    affinity: np.ndarray
    drift_birc: float
    drift_mirc: float
    years: tuple[int, int]
    pubs_per_country_year: float
    seed: int

    @classmethod
    def from_dict(cls, spec: dict) -> "Scenario":
        """Build a scenario from a plain key-value description.

        Unspecified parts are synthesized deterministically from the seed:
        country codes AA, AB, ...; skewed per-country topic bases (Dirichlet
        with ``base_concentration``, or one shared base when ``shared_base``
        is true); a uniform global agenda; uniform partner affinity.
        """
        if not isinstance(spec, dict):
            raise ScenarioError("scenario must be a JSON object")
        unknown = set(spec) - _KNOWN_KEYS
        if unknown:
            raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")

        seed = spec.get("seed", 1)
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ScenarioError("seed must be a non-negative integer")
        structure_rng = np.random.default_rng([seed, 0])

        if "countries" in spec:
            countries = tuple(normalize_country(c) for c in _strings(spec, "countries"))
        else:
            countries = tuple(_default_countries(_number(spec, "n_countries", 20, int)))
        if "subjects" in spec:
            subjects = tuple(_strings(spec, "subjects"))
        else:
            subjects = tuple(_default_subjects(_number(spec, "n_subjects", 40, int)))
        _check_codes(countries, subjects)
        n_c, n_s = len(countries), len(subjects)

        if "base_topic" in spec:
            base = _array(spec, "base_topic")
        else:
            alpha = _number(spec, "base_concentration", 0.2)
            if alpha <= 0:
                raise ScenarioError("base_concentration must be positive")
            if spec.get("shared_base", False):
                row = structure_rng.dirichlet(np.full(n_s, alpha))
                base = np.tile(row, (n_c, 1))
            else:
                base = structure_rng.dirichlet(np.full(n_s, alpha), size=n_c)

        if "global_agenda" in spec:
            agenda = _array(spec, "global_agenda")
        else:
            agenda = np.full(n_s, 1.0 / n_s)

        mix = spec.get("type_mix", {"domestic": 0.6, "birc": 0.25, "mirc": 0.15})
        try:
            type_mix = (float(mix["domestic"]), float(mix["birc"]), float(mix["mirc"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(
                "type_mix needs numbers under keys domestic, birc, mirc") from exc

        if "mirc_size" in spec:
            try:
                mirc_size = {int(k): float(v) for k, v in spec["mirc_size"].items()}
            except (AttributeError, TypeError, ValueError) as exc:
                raise ScenarioError("mirc_size must map sizes to weights") from exc
        else:
            sizes = [k for k in (3, 4, 5, 6) if k <= n_c]
            weights = {3: 0.6, 4: 0.25, 5: 0.1, 6: 0.05}
            total = sum(weights[k] for k in sizes) or 1.0
            mirc_size = {k: weights[k] / total for k in sizes}

        if "affinity" in spec:
            affinity = _array(spec, "affinity")
        else:
            affinity = np.ones((n_c, n_c))
            np.fill_diagonal(affinity, 0.0)

        years = spec.get("years", [2008, 2017])
        try:
            years = (int(years[0]), int(years[1]))
        except (TypeError, ValueError, OverflowError, IndexError, KeyError) as exc:
            raise ScenarioError("years must be a [first, last] pair") from exc

        scenario = cls(
            countries=countries,
            subjects=subjects,
            base_topic=base,
            global_agenda=agenda,
            type_mix=type_mix,
            mirc_size=mirc_size,
            affinity=affinity,
            drift_birc=_number(spec, "drift_birc", 0.2),
            drift_mirc=_number(spec, "drift_mirc", 0.8),
            years=years,
            pubs_per_country_year=_number(spec, "pubs_per_country_year", 50.0),
            seed=seed,
        )
        scenario.validate()
        return scenario

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path, encoding="utf-8") as fh:
            try:
                spec = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"{path}: invalid JSON: {exc.msg}") from exc
            except UnicodeDecodeError as exc:
                raise ScenarioError(f"{path}: invalid UTF-8: {exc}") from exc
        return cls.from_dict(spec)

    def validate(self) -> None:
        _check_codes(self.countries, self.subjects)
        n_c, n_s = len(self.countries), len(self.subjects)

        base = np.asarray(self.base_topic, dtype=float)
        if base.shape != (n_c, n_s):
            raise ScenarioError(
                f"base_topic must have shape ({n_c}, {n_s}), got {base.shape}")
        if (base < 0).any() or not np.allclose(base.sum(axis=1), 1.0, atol=_PROB_TOL):
            raise ScenarioError("base_topic rows must be probability vectors")
        agenda = np.asarray(self.global_agenda, dtype=float)
        if agenda.shape != (n_s,) or (agenda < 0).any() \
                or abs(agenda.sum() - 1.0) > _PROB_TOL:
            raise ScenarioError("global_agenda must be a probability vector")

        p_dom, p_birc, p_mirc = self.type_mix
        if (not all(map(math.isfinite, self.type_mix)) or min(self.type_mix) < 0
                or abs(sum(self.type_mix) - 1.0) > _PROB_TOL):
            raise ScenarioError("type_mix must be non-negative and sum to 1")
        if not all(map(math.isfinite, self.mirc_size.values())):
            raise ScenarioError("mirc_size weights must be finite")

        for drift, name in ((self.drift_birc, "drift_birc"),
                            (self.drift_mirc, "drift_mirc")):
            if not 0.0 <= drift <= 1.0:
                raise ScenarioError(f"{name} must lie in [0, 1]")

        aff = np.asarray(self.affinity, dtype=float)
        if aff.shape != (n_c, n_c):
            raise ScenarioError(f"affinity must have shape ({n_c}, {n_c})")
        if (aff < 0).any():
            raise ScenarioError("affinity must be non-negative")
        if not np.allclose(aff, aff.T, atol=1e-9):
            raise ScenarioError("affinity must be symmetric")

        off_diag = aff.copy()
        np.fill_diagonal(off_diag, 0.0)
        positive_partners = (off_diag > 0).sum(axis=1)
        if p_birc > 0:
            if n_c < 2:
                raise ScenarioError("bilateral output needs >= 2 countries")
            if (positive_partners < 1).any():
                raise ScenarioError("every country needs a positive-affinity "
                                    "partner for bilateral output")
        if p_mirc > 0:
            if not self.mirc_size:
                raise ScenarioError("mirc_size distribution is empty")
            sizes = sorted(self.mirc_size)
            probs = [self.mirc_size[k] for k in sizes]
            if sizes[0] < 3:
                raise ScenarioError("multilateral sets have at least 3 countries")
            if sizes[-1] > n_c:
                raise ScenarioError(
                    f"mirc size {sizes[-1]} exceeds country count {n_c}")
            if min(probs) < 0 or abs(sum(probs) - 1.0) > _PROB_TOL:
                raise ScenarioError("mirc_size weights must sum to 1")
            if (positive_partners < sizes[-1] - 1).any():
                raise ScenarioError("affinity rows too sparse for the largest "
                                    "multilateral set size")

        first, last = self.years
        if first > last:
            raise ScenarioError("years must satisfy first <= last")
        lo, hi = DEFAULT_YEAR_WINDOW
        if first < lo or last > hi:
            raise ScenarioError(
                f"years must lie in ingest's accepted window {lo}-{hi}")
        if not 0 <= self.pubs_per_country_year <= _MAX_PUBS_PER_COUNTRY_YEAR:
            raise ScenarioError("pubs_per_country_year must lie in "
                                f"[0, {_MAX_PUBS_PER_COUNTRY_YEAR}]")


def _draw(cdf: np.ndarray, u: float) -> int:
    idx = int(np.searchsorted(cdf, u, side="left"))
    return min(idx, len(cdf) - 1)


def generate(scenario: Scenario) -> Iterator[PublicationRecord]:
    """Yield the scenario's records in their canonical order.

    The stream is a pure function of the scenario: the same seed gives a
    byte-identical serialized corpus. Changing only the drift parameters
    preserves the draw sequence, so paired scenarios stay comparable.
    """
    scenario.validate()
    rng = np.random.default_rng([scenario.seed, 1])

    countries = scenario.countries
    subjects = scenario.subjects
    n_s = len(subjects)
    base = np.asarray(scenario.base_topic, dtype=float)
    agenda = np.asarray(scenario.global_agenda, dtype=float)

    p_dom, p_birc, _ = scenario.type_mix
    type_cdf = np.array([p_dom, p_dom + p_birc])

    # per-type subject mixtures, one CDF row per country
    mixtures = (base,
                (1.0 - scenario.drift_birc) * base + scenario.drift_birc * agenda,
                (1.0 - scenario.drift_mirc) * base + scenario.drift_mirc * agenda)
    subject_cdfs = [np.cumsum(m, axis=1) for m in mixtures]

    affinity = np.asarray(scenario.affinity, dtype=float).copy()
    np.fill_diagonal(affinity, 0.0)
    row_sums = affinity.sum(axis=1)
    partner_cdfs = [np.cumsum(affinity[i]) / row_sums[i] if row_sums[i] > 0
                    else None for i in range(len(countries))]

    mirc_sizes = sorted(scenario.mirc_size)
    mirc_cdf = np.cumsum([scenario.mirc_size[k] for k in mirc_sizes])

    first_year, last_year = scenario.years
    lam = scenario.pubs_per_country_year
    counter = 0

    for ci, country in enumerate(countries):
        for year in range(first_year, last_year + 1):
            n = int(rng.poisson(lam))
            if n == 0:
                continue
            u_type = rng.random(n)
            u_subj = rng.random(n)
            types = np.searchsorted(type_cdf, u_type, side="right")
            subject_idx = np.empty(n, dtype=np.intp)
            for t in (0, 1, 2):
                mask = types == t
                if mask.any():
                    subject_idx[mask] = np.searchsorted(
                        subject_cdfs[t][ci], u_subj[mask], side="left")
            np.clip(subject_idx, 0, n_s - 1, out=subject_idx)

            for i in range(n):
                counter += 1
                subject = subjects[subject_idx[i]]
                t = types[i]
                if t == 0:
                    members = frozenset((country,))
                elif t == 1:
                    pj = _draw(partner_cdfs[ci], rng.random())
                    members = frozenset((country, countries[pj]))
                else:
                    k = mirc_sizes[_draw(mirc_cdf, rng.random())]
                    weights = affinity[ci].copy()
                    chosen = [country]
                    for _ in range(k - 1):
                        total = weights.sum()
                        cdf = np.cumsum(weights) / total
                        pj = _draw(cdf, rng.random())
                        chosen.append(countries[pj])
                        weights[pj] = 0.0
                    members = frozenset(chosen)
                yield PublicationRecord(f"pub{counter:08d}", year,
                                        frozenset((subject,)), members)


def write_jsonl(records: Iterable[PublicationRecord], fh) -> int:
    """Serialize records one JSON object per line; returns the line count."""
    n = 0
    for record in records:
        fh.write(record_to_line(record))
        fh.write("\n")
        n += 1
    return n


def region_map_for(countries: Iterable[str]) -> RegionMap:
    """Deterministic region assignment for synthetic corpora: the sorted
    country codes are dealt round-robin over the seven region names."""
    entries = {c: WORLD_BANK_REGIONS[i % len(WORLD_BANK_REGIONS)]
               for i, c in enumerate(sorted(countries))}
    return RegionMap(entries)
