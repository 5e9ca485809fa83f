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
corresponding domestic-vs-type similarity drops. Generation is fully
determined by the scenario seed: the draws are those of a loop that takes
one record, and one partner, at a time, but they are taken in blocks and
the partner sets are built for a batch of records together (see
:func:`_rows`), which :func:`generate` turns into records and
:func:`write_corpus` into corpus lines.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, fields
from functools import partial
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from .corpus import (
    _CANONICAL_CODES,
    _LINE,
    DEFAULT_YEAR_WINDOW,
    PublicationRecord,
    RegionMap,
    _utf8_ok,
    normalize_country,
    record_to_line,
)
from .options import OutputStager

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


def _codes(codes) -> tuple:
    if isinstance(codes, str):
        raise TypeError("a string is not a sequence of codes")
    return tuple(codes)


def _numbers(number, n: int, values) -> tuple:
    values = tuple(map(number, values))
    if len(values) != n:
        raise ValueError(f"{len(values)} values, not {n}")
    return values


def _size_weights(sizes) -> Mapping[int, float]:
    return MappingProxyType({operator.index(size): float(weight)
                             for size, weight in dict(sizes).items()})


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


# Each field a scenario stores in its own form: the conversion, which raises
# TypeError or ValueError for a value of another form, and that form's name.
_STORED = (
    ("countries", _codes, "a sequence of codes"),
    ("subjects", _codes, "a sequence of codes"),
    ("type_mix", partial(_numbers, float, 3),
     "three numbers: domestic, birc, mirc"),
    ("years", partial(_numbers, operator.index, 2), "a [first, last] pair"),
    ("mirc_size", _size_weights, "a mapping of integer set sizes to weights"),
    ("base_topic", _read_only, "an array of numbers"),
    ("global_agenda", _read_only, "an array of numbers"),
    ("affinity", _read_only, "an array of numbers"),
)


def _default_countries(n: int) -> list[str]:
    if n > len(_CANONICAL_CODES):
        raise ScenarioError("at most 676 synthetic countries supported")
    return sorted(_CANONICAL_CODES)[:max(n, 0)]


def _default_subjects(n: int) -> list[str]:
    if n > _MAX_SUBJECTS:
        raise ScenarioError(f"at most {_MAX_SUBJECTS} subjects supported")
    return [f"S{i:03d}" for i in range(n)]


@dataclass(eq=False, frozen=True)
class Scenario:
    """Full parameter set for one synthetic corpus, checked when it is
    made. Its fields can be neither reassigned nor changed in place: the
    arrays are stored as read-only float copies, ``mirc_size`` as a
    read-only mapping and the sequences as tuples.

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
    mirc_size: Mapping[int, float]
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
            base = spec["base_topic"]
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
            agenda = spec["global_agenda"]
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
            affinity = spec["affinity"]
        else:
            affinity = np.ones((n_c, n_c))
            np.fill_diagonal(affinity, 0.0)

        years = spec.get("years", [2008, 2017])
        try:
            years = (int(years[0]), int(years[1]))
        except (TypeError, ValueError, OverflowError, IndexError, KeyError) as exc:
            raise ScenarioError("years must be a [first, last] pair") from exc

        return cls(
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

    def __post_init__(self) -> None:
        for name, stored, wording in _STORED:
            try:
                object.__setattr__(self, name, stored(getattr(self, name)))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ScenarioError(f"{name} must be {wording}") from exc

        _check_codes(self.countries, self.subjects)
        n_c, n_s = len(self.countries), len(self.subjects)

        base = self.base_topic
        if base.shape != (n_c, n_s):
            raise ScenarioError(
                f"base_topic must have shape ({n_c}, {n_s}), got {base.shape}")
        if (base < 0).any() or not np.allclose(base.sum(axis=1), 1.0, atol=_PROB_TOL):
            raise ScenarioError("base_topic rows must be probability vectors")
        agenda = self.global_agenda
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

        aff = self.affinity
        if aff.shape != (n_c, n_c):
            raise ScenarioError(f"affinity must have shape ({n_c}, {n_c})")
        off_diag = aff.copy()
        np.fill_diagonal(off_diag, 0.0)
        # partners are drawn from each row's cumulative sums over its total
        with np.errstate(over="ignore"):
            finite = np.isfinite(aff).all() and np.isfinite(off_diag.sum(axis=1)).all()
        if not finite:
            raise ScenarioError("affinity entries and row sums must be finite")
        if (aff < 0).any():
            raise ScenarioError("affinity must be non-negative")
        if not np.allclose(aff, aff.T, atol=1e-9):
            raise ScenarioError("affinity must be symmetric")

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

    def __reduce__(self):
        # a mappingproxy does not pickle, so copies are made anew, and
        # checked, from the field values with mirc_size as a dict
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values["mirc_size"] = dict(self.mirc_size)
        return type(self), tuple(values.values())


# Rows are held back until the multilateral sets among them are drawn, a
# batch together, one member per step. A country-year's records are drawn
# in chunks of at most this many, and a batch closes once it holds this
# many records, so fewer than twice this many rows are held back; a batch
# draws at most this many sets at once, which bounds its weight matrix
# (sets x countries).
SYNTH_BATCH = 1024

_RECORD_ID = "pub%08d"


def _scalar_draws(rng, kinds: np.ndarray, mirc_cdf: np.ndarray,
                  mirc_sizes: list[int], mean_extra: float):
    """The uniforms that one country-year's drawing records (``kinds`` 1 or
    2, in record order) take one at a time, as one block: one per bilateral
    record (its partner) and, per multilateral record, one for its size k
    and k - 1 for its members.

    The sizes are read from the block itself, so the block is drawn long
    enough, then the generator is set back and advanced by exactly the
    draws used. Returns the block, each record's first offset in it and
    each multilateral record's size.
    """
    multi = np.flatnonzero(kinds == 2)
    bitgen = rng.bit_generator
    state = bitgen.state
    block = rng.random(len(kinds) + math.ceil(len(multi) * mean_extra))
    last = len(mirc_sizes) - 1
    size_at = (np.minimum(mirc_cdf.searchsorted(block), last).tolist()
               if len(multi) else [])
    sizes = []
    extra = 0
    for j in multi.tolist():
        while j + extra >= len(block):
            more = rng.random(len(block))
            block = np.concatenate((block, more))
            size_at += np.minimum(mirc_cdf.searchsorted(more), last).tolist()
        k = mirc_sizes[size_at[j + extra]]
        sizes.append(k)
        extra += k - 1
    used = len(kinds) + extra
    if used > len(block):
        block = np.concatenate((block, rng.random(used - len(block))))
    bitgen.state = state
    bitgen.advance(used)
    steps = np.ones(len(kinds), dtype=np.intp)
    steps[multi] = sizes
    return block[:used], np.cumsum(steps) - steps, steps[multi]


def _partner_sets(weights: np.ndarray, draws: np.ndarray,
                  steps: np.ndarray) -> np.ndarray:
    """Draw the multilateral partners of a batch of records: row i takes
    ``steps[i]`` members one at a time, each by affinity without
    replacement, from ``weights[i]`` (its own copy of the anchor's affinity
    row) with the uniforms ``draws[i]``. ``steps`` must be non-increasing,
    so the rows still drawing are a prefix.

    Per row these are the scalar rule's operations: sum, cumsum, divide,
    then the left insertion point of the uniform in that CDF, clipped to
    the last country. On a non-decreasing CDF without NaN that is the first
    entry not below the uniform, or the last entry when all are below.
    """
    chosen = np.zeros(draws.shape, dtype=np.intp)
    for step in range(draws.shape[1]):
        active = np.count_nonzero(steps > step)
        w = weights[:active]
        cdf = np.cumsum(w, axis=1)
        cdf /= w.sum(axis=1)[:, None]
        below = cdf < draws[:active, step, None]
        picks = below.argmin(axis=1)
        picks[below[:, -1]] = w.shape[1] - 1
        w[np.arange(active), picks] = 0.0
        chosen[:active, step] = picks
    return chosen


class _PendingSets:
    """Multilateral records whose member sets are still to be drawn, each
    with the row-list slot its set goes into."""

    def __init__(self, affinity: np.ndarray):
        self.affinity = affinity
        self.clear()

    def clear(self) -> None:
        self.slots: list[tuple[list, int]] = []
        self.anchors: list[int] = []
        self.blocks: list[np.ndarray] = []
        self.starts: list[np.ndarray] = []
        self.sizes: list[np.ndarray] = []
        self.n_drawn = 0

    def add(self, row_list: list, rows: list[int], anchor: int,
            block: np.ndarray, first: np.ndarray, sizes: np.ndarray) -> None:
        """Queue the records ``rows`` of ``row_list``, anchored at
        ``anchor``, whose members take ``block[first + 1:first + size]``."""
        self.slots += [(row_list, r) for r in rows]
        self.anchors += [anchor] * len(rows)
        self.starts.append(first + 1 + self.n_drawn)
        self.sizes.append(sizes)
        self.blocks.append(block)
        self.n_drawn += len(block)

    def resolve(self) -> None:
        """Put each record's member indices, its anchor first and then the
        partners in draw order, into its slot."""
        if not self.slots:
            return
        anchors = np.array(self.anchors, dtype=np.intp)
        starts = np.concatenate(self.starts)
        steps = np.concatenate(self.sizes) - 1
        block = np.concatenate(self.blocks)
        for lo in range(0, len(anchors), SYNTH_BATCH):
            part = slice(lo, lo + SYNTH_BATCH)
            order = np.argsort(-steps[part])
            part_steps = steps[part][order]
            # a row's draws past its own steps are never read
            at = starts[part][order, None] + np.arange(part_steps[0])
            chosen = _partner_sets(self.affinity[anchors[part][order]],
                                   block[np.minimum(at, len(block) - 1)],
                                   part_steps)
            for i, row, n in zip((order + lo).tolist(), chosen.tolist(),
                                 part_steps.tolist()):
                row_list, r = self.slots[i]
                row_list[r] = (self.anchors[i], *row[:n])
        self.clear()


def _rows(scenario: Scenario) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Draw the scenario's records in their canonical order, each as
    ``(year, subject_index, member_indices)``; the member indices point
    into ``scenario.countries``, the anchor country first.

    Each country-year takes the draws of the one-record-at-a-time rule in
    the same order: a Poisson count, a block of type uniforms, a block of
    subject uniforms, then per record one uniform for a bilateral partner,
    or one for a multilateral size and one per further member. Those last
    come as one block per chunk of up to ``SYNTH_BATCH`` records
    (:func:`_scalar_draws`); bilateral partners are found by one search and
    multilateral sets are drawn for up to ``SYNTH_BATCH`` records together
    (:func:`_partner_sets`).
    """
    rng = np.random.default_rng([scenario.seed, 1])

    n_c = len(scenario.countries)
    n_s = len(scenario.subjects)
    base = scenario.base_topic
    agenda = scenario.global_agenda

    p_dom, p_birc, p_mirc = scenario.type_mix
    type_cdf = np.array([p_dom, p_dom + p_birc])

    # per-type subject mixtures, one CDF row per country
    mixtures = (base,
                (1.0 - scenario.drift_birc) * base + scenario.drift_birc * agenda,
                (1.0 - scenario.drift_mirc) * base + scenario.drift_mirc * agenda)
    subject_cdfs = [np.cumsum(m, axis=1) for m in mixtures]

    affinity = scenario.affinity.copy()
    np.fill_diagonal(affinity, 0.0)
    row_sums = affinity.sum(axis=1)
    partner_cdfs = [np.cumsum(affinity[i]) / row_sums[i] if row_sums[i] > 0
                    else None for i in range(n_c)]

    mirc_sizes = sorted(scenario.mirc_size)
    mirc_cdf = np.cumsum([scenario.mirc_size[k] for k in mirc_sizes])
    # further members expected per multilateral record, which sizes the
    # block of scalar draws; a scenario's weights are checked only when
    # p_mirc > 0
    mean_extra = (sum(w * (k - 1) for k, w in scenario.mirc_size.items())
                  if p_mirc > 0 else 0.0)

    sets = _PendingSets(affinity)
    pending: list = []

    def flush():
        sets.resolve()
        for year, subject_list, member_list in pending:
            yield from zip(repeat(year), subject_list, member_list)
        pending.clear()

    first_year, last_year = scenario.years
    lam = scenario.pubs_per_country_year
    n_pending = 0
    for ci in range(n_c):
        domestic = (ci,)
        pairs = [(ci, pj) for pj in range(n_c)]
        cdfs = [cdf[ci] for cdf in subject_cdfs]
        for year in range(first_year, last_year + 1):
            n = int(rng.poisson(lam))
            if n == 0:
                continue
            u_type = rng.random(n)
            u_subj = rng.random(n)
            all_kinds = type_cdf.searchsorted(u_type, side="right")

            for lo in range(0, n, SYNTH_BATCH):
                kinds = all_kinds[lo:lo + SYNTH_BATCH]
                u = u_subj[lo:lo + SYNTH_BATCH]
                subject_idx = np.choose(kinds, [cdf.searchsorted(u)
                                                for cdf in cdfs])
                np.minimum(subject_idx, n_s - 1, out=subject_idx)
                members = [domestic] * len(kinds)
                drawing = np.flatnonzero(kinds)
                if len(drawing):
                    block, first, sizes = _scalar_draws(
                        rng, kinds[drawing], mirc_cdf, mirc_sizes, mean_extra)
                    bilateral = kinds[drawing] == 1
                    if bilateral.any():
                        partners = partner_cdfs[ci].searchsorted(
                            block[first[bilateral]])
                        np.minimum(partners, n_c - 1, out=partners)
                        for r, pj in zip(drawing[bilateral].tolist(),
                                         partners.tolist()):
                            members[r] = pairs[pj]
                    if len(sizes):
                        multi = ~bilateral
                        sets.add(members, drawing[multi].tolist(), ci, block,
                                 first[multi], sizes)
                pending.append((year, subject_idx.tolist(), members))
                n_pending += len(kinds)
                if n_pending >= SYNTH_BATCH:
                    yield from flush()
                    n_pending = 0
    yield from flush()


def generate(scenario: Scenario) -> Iterator[PublicationRecord]:
    """Yield the scenario's records in their canonical order.

    The stream is a pure function of the scenario: the same seed gives a
    byte-identical serialized corpus. Changing only the drift parameters
    preserves the draw sequence, so paired scenarios stay comparable.
    """
    subjects = [frozenset((s,)) for s in scenario.subjects]
    countries = scenario.countries
    alone = [frozenset((c,)) for c in countries]
    for counter, (year, s, members) in enumerate(_rows(scenario), 1):
        yield PublicationRecord(
            _RECORD_ID % counter, year, subjects[s],
            alone[members[0]] if len(members) == 1
            else frozenset([countries[m] for m in members]))


def write_jsonl(records: Iterable[PublicationRecord], fh) -> int:
    """Serialize records one JSON object per line; returns the line count."""
    n = 0
    for record in records:
        fh.write(record_to_line(record))
        fh.write("\n")
        n += 1
    return n


def write_corpus(scenario: Scenario, fh) -> int:
    """Write the scenario's corpus, the bytes of
    ``write_jsonl(generate(scenario), fh)``, straight from the rows of
    :func:`_rows`; returns the line count.

    Each subject and country code is escaped once. A record's countries
    field is a table entry for a domestic record, a cached entry per member
    pair for a bilateral one, and the sorted codes of a multilateral set;
    codes are two letters AA..ZZ, so their escaped forms sort like them.
    """
    line = _LINE + "\n"
    record_id = _json_string(_RECORD_ID)
    subjects = [_json_string(s) for s in scenario.subjects]
    codes = [_json_string(c) for c in scenario.countries]
    pairs: dict[tuple[int, int], str] = {}
    n = 0
    for n, (year, s, members) in enumerate(_rows(scenario), 1):
        if len(members) == 1:
            countries = codes[members[0]]
        elif len(members) == 2:
            countries = pairs.get(members)
            if countries is None:
                countries = pairs[members] = ",".join(
                    sorted([codes[m] for m in members]))
        else:
            countries = ",".join(sorted([codes[m] for m in members]))
        fh.write(line % (record_id % n, year, subjects[s], countries))
    return n


def region_map_for(countries: Iterable[str]) -> RegionMap:
    """Deterministic region assignment for synthetic corpora: the sorted
    country codes are dealt round-robin over the seven region names."""
    return {c: WORLD_BANK_REGIONS[i % len(WORLD_BANK_REGIONS)]
            for i, c in enumerate(sorted(countries))}


def run_synth(scenario_path, out_path, regions_out=None) -> int:
    """Generate a synthetic corpus (and optionally its region map); both
    files are committed together or not at all, and a failed run removes
    the directories it created for them."""
    scenario = Scenario.load(scenario_path)
    # the paths are relative to the working directory
    with OutputStager(Path.cwd()) as stager:
        with stager.open(out_path) as fh:
            write_corpus(scenario, fh)
        if regions_out is not None:
            region_map = region_map_for(scenario.countries)
            rows = [[c, region_map[c]] for c in sorted(region_map)]
            stager.stage_csv(regions_out, ["country", "region"], rows)
    return 0
