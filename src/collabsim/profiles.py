"""Per-country disciplinary and partner profiles built by whole counting.

A publication contributes one count per (country, subject) pair and one per
ordered (country, partner) pair; there is no fractionalization. All counts
are integers, so shard-local tables merge exactly and the build is
deterministic for any record order or partitioning.

:class:`ProfileFold` is the bulk path: it interns each distinct country
and subject set of a bounded chunk of records once and folds the chunk into
integer count arrays. :func:`accumulate` is the per-record path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, count
from typing import Iterable, Iterator

import numpy as np

from .aggregates import REGION_COUNTING_MODES, REGION_DEDUP, RegionYearCounts
from .classify import (_KINDS, CollaborationType, TypeCounts,
                       check_mega_threshold, kind_index)
from .corpus import PublicationRecord, RegionMap, region_of

SUBJECT_SPACE = "subject"
PARTNER_SPACE = "partner"

DOMESTIC = "domestic"
INTERNATIONAL = "international"
BIRC = "birc"
MIRC = "mirc"
MEGA = "mega"

DISC_FAMILIES = (DOMESTIC, INTERNATIONAL, BIRC, MIRC, MEGA)
PARTNER_FAMILIES = (INTERNATIONAL, BIRC, MIRC, MEGA)

# the family of each kind index of ProfileFold's count arrays (kind_index)
_KIND_FAMILIES = (DOMESTIC, BIRC, MIRC, MEGA)
_FAMILY_BY_KIND = dict(zip(_KINDS, _KIND_FAMILIES))


@dataclass
class Profile:
    """Sparse non-negative count vector over one dimension namespace.

    Zero counts are never stored, so equality means identical support and
    counts. The namespace tag ("subject" or "partner") guards against
    comparing vectors from different key spaces.
    """

    namespace: str
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def is_empty(self) -> bool:
        return not self.counts

    def increment(self, key: str, by: int = 1) -> None:
        if by < 0:
            raise ValueError("profile counts are non-negative")
        if by:
            self.counts[key] = self.counts.get(key, 0) + by

    def merge(self, other: "Profile") -> "Profile":
        if self.namespace != other.namespace:
            raise ValueError(
                f"namespace mismatch: {self.namespace!r} vs {other.namespace!r}")
        merged = dict(self.counts)
        for key, n in other.counts.items():
            merged[key] = merged.get(key, 0) + n
        return Profile(self.namespace, merged)

    __add__ = merge

    def sorted_items(self) -> list[tuple[str, int]]:
        return sorted(self.counts.items())


@dataclass
class CountryProfileSet:
    """All profiles of one country plus its publication counts.

    ``disciplinary`` holds subject-count profiles per collaboration family
    (domestic, pooled international, birc, mirc, mega); ``partner`` holds
    partner-country counts for the international families. The mega buckets
    stay empty unless the mega class was enabled during classification.
    """

    country: str
    disciplinary: dict[str, Profile]
    partner: dict[str, Profile]
    pub_counts: TypeCounts

    @classmethod
    def empty(cls, country: str) -> "CountryProfileSet":
        return cls(
            country=country,
            disciplinary={f: Profile(SUBJECT_SPACE) for f in DISC_FAMILIES},
            partner={f: Profile(PARTNER_SPACE) for f in PARTNER_FAMILIES},
            pub_counts=TypeCounts(),
        )

    def merge(self, other: "CountryProfileSet") -> "CountryProfileSet":
        if self.country != other.country:
            raise ValueError(
                f"cannot merge profiles of {self.country} and {other.country}")
        return CountryProfileSet(
            country=self.country,
            disciplinary={f: self.disciplinary[f] + other.disciplinary[f]
                          for f in DISC_FAMILIES},
            partner={f: self.partner[f] + other.partner[f]
                     for f in PARTNER_FAMILIES},
            pub_counts=self.pub_counts + other.pub_counts,
        )

    __add__ = merge

    def decomposition_ok(self) -> bool:
        """Check the sum identities: birc + mirc + mega == international for
        both profile families, and the country never partners itself."""
        disc_sum = (self.disciplinary[BIRC] + self.disciplinary[MIRC]
                    + self.disciplinary[MEGA])
        part_sum = self.partner[BIRC] + self.partner[MIRC] + self.partner[MEGA]
        return (disc_sum == self.disciplinary[INTERNATIONAL]
                and part_sum == self.partner[INTERNATIONAL]
                and self.country not in self.partner[INTERNATIONAL].counts)


def accumulate(table: dict[str, CountryProfileSet], record: PublicationRecord,
               ctype: CollaborationType) -> None:
    """Fold one classified record into the per-country table.

    Every listed country gains one count per subject in the family matching
    the collaboration type; international types also feed the pooled
    international family and add one partner count per co-country.
    """
    family = _FAMILY_BY_KIND[ctype.kind]
    international = ctype.is_international
    for country in record.countries:
        ps = table.get(country)
        if ps is None:
            ps = table[country] = CountryProfileSet.empty(country)
        disc = ps.disciplinary[family]
        disc_int = ps.disciplinary[INTERNATIONAL]
        for subject in record.subjects:
            disc.increment(subject)
            if international:
                disc_int.increment(subject)
        if international:
            part = ps.partner[family]
            part_int = ps.partner[INTERNATIONAL]
            for partner in record.countries:
                if partner != country:
                    part.increment(partner)
                    part_int.increment(partner)
        ps.pub_counts.add(ctype.kind)


@dataclass(frozen=True)
class BuildConfig:
    """Build-time knobs: analysis year slice and the mega class threshold."""

    year_min: int | None = None
    year_max: int | None = None
    mega_threshold: int | None = None

    def keeps(self, year: int) -> bool:
        return ((self.year_min is None or year >= self.year_min)
                and (self.year_max is None or year <= self.year_max))


# Pending pair work, k * (k + m) per record of k countries and m subjects,
# at which ProfileFold flushes. It bounds the flush temporaries whatever the
# consortium sizes; a bound on the record count does not.
FLUSH_PAIRS = 1 << 14


class _Ids(dict):
    """Code -> dense id, assigned in order of first lookup."""

    def __missing__(self, key) -> int:
        self[key] = n = len(self)
        return n


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of range(start, start + length) over the groups."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) - np.repeat(ends - lengths - starts, lengths)


def _scatter_add(total: np.ndarray, index: np.ndarray) -> None:
    """Add one count per entry of ``index`` into the flat cells of ``total``."""
    counts = np.bincount(index)
    total.reshape(-1)[:len(counts)] += counts


def _grown(total: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``total`` zero-padded to ``shape`` (no axis shrinks)."""
    if total.shape == shape:
        return total
    grown = np.zeros(shape, dtype=np.int64)
    grown[tuple(slice(0, n) for n in total.shape)] = total
    return grown


def _remap(ids: dict, codes) -> np.ndarray:
    """The ids in ``ids`` of ``codes``, a sized iterable, in order; with an
    :class:`_Ids`, codes new to ``ids`` are interned."""
    return np.fromiter(map(ids.__getitem__, codes), dtype=np.intp,
                       count=len(codes))


def _distinct_sets(ids: _Ids, sets: list) -> tuple[np.ndarray, ...]:
    """Each set's index among the distinct ``sets`` in order of first
    appearance, and the distinct sets' sizes and code ids, concatenated;
    interning them in that order gives each code the id that interning
    every set in turn would."""
    index = dict(zip(dict.fromkeys(sets), count()))
    sizes = np.fromiter(map(len, index), dtype=np.intp, count=len(index))
    return (_remap(index, sets), sizes,
            _remap(ids, list(chain.from_iterable(index))))


def _profile(namespace: str, row: np.ndarray, names: list[str]) -> Profile:
    nonzero = np.flatnonzero(row)
    return Profile(namespace, dict(zip([names[j] for j in nonzero.tolist()],
                                       row[nonzero].tolist())))


class ProfileFold:
    """Whole-counting fold of records into interned-id count arrays.

    ``add`` only appends the record's year, country set and subject set to
    buffers. Every ``FLUSH_PAIRS`` of pending pair work, each distinct set
    of the buffers is interned once, in order of first appearance, and
    (in dedup mode) its regions found once; numpy expands the sets per
    record and counts them into ``disc[kind, country, subject]``,
    ``partner[kind, country, partner]`` and ``regions[region, kind,
    year]``; only the region counts keep a year axis, because only
    regional growth reads one. The partner diagonal ``partner[kind, c, c]``
    counts the records of each kind that list ``c``. ``table`` and
    ``region_counts`` then give the same results as :func:`accumulate` and
    :meth:`RegionYearCounts.add` over the same records. The pooled
    international family is derived as birc + mirc + mega.
    """

    def __init__(self, mega_threshold: int | None = None,
                 region_map: RegionMap | None = None,
                 region_counting: str = REGION_DEDUP):
        check_mega_threshold(mega_threshold)
        if region_counting not in REGION_COUNTING_MODES:
            raise ValueError(
                f"unknown region counting mode {region_counting!r}")
        self.mega_threshold = mega_threshold
        self.region_map = region_map
        self.region_counting = region_counting
        self._countries, self._subjects, self._years = _Ids(), _Ids(), _Ids()
        self._regions = _Ids()
        self._region_of: list[int] = []  # country id -> region id
        self._disc = np.zeros((4, 0, 0), dtype=np.int64)
        self._partner = np.zeros((4, 0, 0), dtype=np.int64)
        self._region_years = np.zeros((0, 4, 0), dtype=np.int64)
        self._reset_buffers()

    def _reset_buffers(self) -> None:
        # the year, countries and subjects of each pending record
        self._y, self._cs, self._ss = [], [], []
        self._pending = 0

    def __getstate__(self) -> dict:
        """Flush first, so that only counts and intern dicts are pickled."""
        self._flush()
        return self.__dict__

    def add(self, record: PublicationRecord) -> None:
        """Fold one record: buffer its year and code sets."""
        self.add_codes(record.year, record.countries, record.subjects)

    def add_codes(self, year: int, countries: frozenset[str],
                  subjects: frozenset[str]) -> None:
        """Fold one record given as its year and its distinct country and
        subject codes."""
        k = len(countries)
        if k < 1:
            raise ValueError("record has no countries")
        self._y.append(year)
        self._cs.append(countries)
        self._ss.append(subjects)
        self._pending += k * (k + len(subjects))
        if self._pending >= FLUSH_PAIRS:
            self._flush()

    def _grow(self) -> tuple[int, int, int, int]:
        """Place every interned country in its region, size the count
        arrays to the interned codes and return their numbers."""
        n_c, n_s, n_y = len(self._countries), len(self._subjects), len(self._years)
        for country in list(self._countries)[len(self._region_of):]:
            self._region_of.append(
                self._regions[region_of(self.region_map, country)])
        n_r = len(self._regions)
        self._disc = _grown(self._disc, (4, n_c, n_s))
        self._partner = _grown(self._partner, (4, n_c, n_c))
        self._region_years = _grown(self._region_years, (n_r, 4, n_y))
        return n_c, n_s, n_y, n_r

    def _flush(self) -> None:
        if not self._y:
            return
        years, cs, ss = self._y, self._cs, self._ss
        self._reset_buffers()
        year = _remap(self._years, years)
        c_set, k_d, c_codes = _distinct_sets(self._countries, cs)
        s_set, m_d, s_codes = _distinct_sets(self._subjects, ss)
        n_c, n_s, n_y, n_r = self._grow()

        # per record: its set's size and the offset of its codes
        k, c_at = k_d[c_set], (np.cumsum(k_d) - k_d)[c_set]
        m, s_at = m_d[s_set], (np.cumsum(m_d) - m_d)[s_set]
        kind = kind_index(k, self.mega_threshold)
        # one entry per (record, country)
        rec = np.repeat(np.arange(len(k)), k)
        row = kind[rec] * n_c + c_codes[_ranges(c_at, k)]
        _scatter_add(self._disc, np.repeat(row, m[rec]) * n_s
                     + s_codes[_ranges(s_at[rec], m[rec])])
        # every ordered (country, partner) pair, diagonal included: the
        # table reads the diagonal as the publication counts, then drops it
        # and the domestic kind from the partner profiles
        _scatter_add(self._partner, np.repeat(row, k[rec]) * n_c
                     + c_codes[_ranges(c_at[rec], k[rec])])

        # each distinct country set's regions (once each in dedup mode)
        region = np.asarray(self._region_of, dtype=np.intp)[c_codes]
        owner = np.repeat(np.arange(len(k_d)), k_d)
        if self.region_counting == REGION_DEDUP:
            distinct = np.unique(owner * n_r + region)
            owner, region = distinct // n_r, distinct % n_r
        r_d = np.bincount(owner, minlength=len(k_d))
        r, r_at = r_d[c_set], (np.cumsum(r_d) - r_d)[c_set]
        rec = np.repeat(np.arange(len(k)), r)
        _scatter_add(self._region_years, (region[_ranges(r_at, r)] * 4
                                          + kind[rec]) * n_y + year[rec])

    def merge(self, other: "ProfileFold") -> "ProfileFold":
        """Add the counts of ``other``, a fold with the same settings, into
        this one and return it.

        ``other``'s country, subject, year and region codes are interned
        here and its arrays added at the remapped ids, so folds of a
        partitioned corpus merge to the fold of the whole, in any grouping.
        """
        if ((other.mega_threshold, other.region_counting, other.region_map)
                != (self.mega_threshold, self.region_counting, self.region_map)):
            raise ValueError("cannot merge folds with different settings")
        self._flush()
        other._flush()
        c = _remap(self._countries, other._countries)
        s = _remap(self._subjects, other._subjects)
        y = _remap(self._years, other._years)
        self._grow()
        r = _remap(self._regions, other._regions)
        kinds = np.arange(4)
        self._disc[np.ix_(kinds, c, s)] += other._disc
        self._partner[np.ix_(kinds, c, c)] += other._partner
        self._region_years[np.ix_(r, kinds, y)] += other._region_years
        return self

    def table(self) -> dict[str, CountryProfileSet]:
        """The per-country profile sets of every record folded so far."""
        self._flush()
        subjects, countries = list(self._subjects), list(self._countries)
        partner = self._partner.copy()
        diagonal = np.arange(len(countries))
        pubs = partner[:, diagonal, diagonal].T.tolist()
        partner[:, diagonal, diagonal] = 0
        table: dict[str, CountryProfileSet] = {}
        for i, country in enumerate(countries):
            disc = self._disc[:, i]
            part = partner[:, i]
            table[country] = CountryProfileSet(
                country=country,
                disciplinary={
                    INTERNATIONAL: _profile(SUBJECT_SPACE, disc[1:].sum(axis=0),
                                            subjects),
                    **{family: _profile(SUBJECT_SPACE, disc[j], subjects)
                       for j, family in enumerate(_KIND_FAMILIES)}},
                partner={
                    INTERNATIONAL: _profile(PARTNER_SPACE, part[1:].sum(axis=0),
                                            countries),
                    **{family: _profile(PARTNER_SPACE, part[j], countries)
                       for j, family in enumerate(_KIND_FAMILIES) if j}},
                pub_counts=TypeCounts(*pubs[i]),
            )
        return table

    def region_counts(self) -> RegionYearCounts:
        """Per-region annual counts by kind of every record folded so far."""
        self._flush()
        years = list(self._years)
        counts: dict[str, dict[str, dict[int, int]]] = {}
        regions = list(self._regions)
        for r, j, t in np.argwhere(self._region_years).tolist():
            by_kind = counts.setdefault(regions[r], {})
            by_kind.setdefault(_KINDS[j].value, {})[years[t]] = int(
                self._region_years[r, j, t])
        return RegionYearCounts(self.region_counting, counts)


def build_profiles(records: Iterable[PublicationRecord],
                   config: BuildConfig | None = None,
                   ) -> dict[str, CountryProfileSet]:
    """Single-pass profile build over validated records.

    Records outside the configured year slice are ignored. The result
    covers exactly the countries appearing in the kept records.
    """
    config = config or BuildConfig()
    fold = ProfileFold(config.mega_threshold)
    for record in records:
        if config.keeps(record.year):
            fold.add(record)
    return fold.table()


def merge_tables(a: dict[str, CountryProfileSet],
                 b: dict[str, CountryProfileSet],
                 ) -> dict[str, CountryProfileSet]:
    """Merge two per-country tables (parallel-fold combiner).

    Entries present in only one input are shared, not copied; treat the
    inputs as frozen once merged.
    """
    merged = dict(a)
    for country, ps in b.items():
        merged[country] = merged[country] + ps if country in merged else ps
    return merged


def dump_rows(table: dict[str, CountryProfileSet],
              ) -> Iterator[tuple[str, str, str, str, int]]:
    """Profile dump rows (country, family, collab type, dimension, count)
    in lexicographic sort order for deterministic export."""
    for country in sorted(table):
        ps = table[country]
        for family_name, profiles in (("disciplinary", ps.disciplinary),
                                      ("partner", ps.partner)):
            for collab in sorted(profiles):
                for dimension, count in profiles[collab].sorted_items():
                    yield country, family_name, collab, dimension, count
