"""Per-country disciplinary and partner profiles built by whole counting.

A publication contributes one count per (country, subject) pair and one per
ordered (country, partner) pair; there is no fractionalization. All counts
are integers, so shard-local tables merge exactly and the build is
deterministic for any record order or partitioning.

:class:`ProfileFold` is the bulk path: it takes the accepted rows of a
corpus chunk as columns (:class:`~collabsim.columns.Block`), or records one
at a time, buffers them in one compressed-row buffer of interned ids and
folds each bounded piece of it into integer count arrays with numpy.
:func:`accumulate` is the per-record path.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .aggregates import REGION_COUNTING_MODES, REGION_DEDUP, RegionYearCounts
from .classify import (_KINDS, CollaborationType, TypeCounts, _summed,
                       check_mega_threshold, kind_index)
from .columns import Block, _distinct
from .corpus import (_CODES, FIELD_CACHE_SIZE, PublicationRecord, RegionMap,
                     _check_choice, region_of)

DOMESTIC = "domestic"
INTERNATIONAL = "international"
BIRC = "birc"
MIRC = "mirc"
MEGA = "mega"

DISC_FAMILIES = (DOMESTIC, INTERNATIONAL, BIRC, MIRC, MEGA)
PARTNER_FAMILIES = (INTERNATIONAL, BIRC, MIRC, MEGA)

# the family of each kind index of ProfileFold's count arrays (kind_index)
_KIND_FAMILIES = (DOMESTIC, BIRC, MIRC, MEGA)


@dataclass
class CountryProfileSet:
    """All profiles of one country plus its publication counts.

    ``disciplinary`` holds subject-count profiles per collaboration family
    (domestic, pooled international, birc, mirc, mega); ``partner`` holds
    partner-country counts for the international families. Each profile is
    a plain ``{code: count}`` dict that never stores a zero count, so
    equality means identical support and counts. The mega buckets stay
    empty unless the mega class was enabled during classification.
    """

    country: str
    disciplinary: dict[str, dict[str, int]]
    partner: dict[str, dict[str, int]]
    pub_counts: TypeCounts

    @classmethod
    def empty(cls, country: str) -> "CountryProfileSet":
        return cls(
            country=country,
            disciplinary={f: {} for f in DISC_FAMILIES},
            partner={f: {} for f in PARTNER_FAMILIES},
            pub_counts=TypeCounts(),
        )

    def merge(self, other: "CountryProfileSet") -> "CountryProfileSet":
        if self.country != other.country:
            raise ValueError(
                f"cannot merge profiles of {self.country} and {other.country}")
        return CountryProfileSet(
            self.country, _summed(self.disciplinary, other.disciplinary),
            _summed(self.partner, other.partner),
            self.pub_counts + other.pub_counts)

    __add__ = merge

    def decomposition_ok(self) -> bool:
        """Check the sum identities: birc + mirc + mega == international for
        both profile families, and the country never partners itself."""
        return (all(_summed(_summed(p[BIRC], p[MIRC]), p[MEGA])
                    == p[INTERNATIONAL]
                    for p in (self.disciplinary, self.partner))
                and self.country not in self.partner[INTERNATIONAL])


def accumulate(table: dict[str, CountryProfileSet], record: PublicationRecord,
               ctype: CollaborationType) -> None:
    """Fold one classified record into the per-country table.

    Every listed country gains one count per subject in the family matching
    the collaboration type; international types also feed the pooled
    international family and add one partner count per co-country.
    """
    family = _KIND_FAMILIES[_KINDS.index(ctype.kind)]
    international = ctype.is_international
    for country in record.countries:
        ps = table.get(country)
        if ps is None:
            ps = table[country] = CountryProfileSet.empty(country)
        disc = ps.disciplinary[family]
        disc_int = ps.disciplinary[INTERNATIONAL]
        for subject in record.subjects:
            disc[subject] = disc.get(subject, 0) + 1
            if international:
                disc_int[subject] = disc_int.get(subject, 0) + 1
        if international:
            part = ps.partner[family]
            part_int = ps.partner[INTERNATIONAL]
            for partner in record.countries:
                if partner != country:
                    part[partner] = part.get(partner, 0) + 1
                    part_int[partner] = part_int.get(partner, 0) + 1
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


# Pending pair work, k * (k + m) per row of k countries and m subjects,
# at which ProfileFold flushes; a block is cut at the row where it is
# reached. It bounds the flush temporaries, the index arrays of one entry
# per code pair that np.add.at consumes, whatever the consortium sizes; a
# bound on the record count does not. Measured on a 2-vCPU Xeon with the
# seed-404 benchmark corpora and the fold reading columns: run_pipeline
# process time on one core (best of 3, median of 5 processes) and CLI report
# peak RSS (median of 5 alternating runs).
#
#   bound     consortia fold   bulk fold   bulk peak RSS   consortia peak RSS
#   1 << 14   0.066 s          0.112 s     36.89 MB        40.82 MB
#   1 << 15   0.062 s          0.112 s     37.02 MB        40.74 MB
#   1 << 16   0.061 s          0.122 s     38.07 MB        41.35 MB
FLUSH_PAIRS = 1 << 15


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


def _scatter_add(total: np.ndarray, index: np.ndarray,
                 weights: np.ndarray | int) -> None:
    """Add ``weights[i]`` (or ``weights``, a scalar) into the flat cell
    ``index[i]`` of ``total``, a C-contiguous array, for every entry; the
    cost follows the entries, not the cells."""
    np.add.at(total.reshape(-1), index, weights)


def _weights(w: np.ndarray | None, rows: np.ndarray,
             counts: np.ndarray | int) -> np.ndarray | int:
    """The weight of each entry, ``counts[i]`` of them for the row
    ``rows[i]`` of weight ``w[rows[i]]``; 1 for rows all of weight 1
    (``w`` None), which spares the expansion."""
    return 1 if w is None else np.repeat(w[rows], counts)


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


def _family_rows(counts: np.ndarray, family: str) -> np.ndarray:
    """The rows of ``family`` in ``counts``, a count array whose first axis
    is the kind index: its kind's slice, or for the pooled international
    family the sum over the international kinds."""
    if family == INTERNATIONAL:
        return counts[1:].sum(axis=0)
    return counts[_KIND_FAMILIES.index(family)]


def _profile(row: np.ndarray, names: list[str]) -> dict[str, int]:
    """The nonzero cells of ``row`` as a ``{name: count}`` profile."""
    nonzero = np.flatnonzero(row)
    return dict(zip([names[j] for j in nonzero.tolist()],
                    row[nonzero].tolist()))


class _SubjectIds(dict):
    """Subjects entry of a :class:`~collabsim.columns.Block` -> the ids in
    ``ids`` of its distinct codes, interning new ones. An entry is a layout
    subjects text, whose items are stripped, or a set of codes taken as
    they are. At most ``FIELD_CACHE_SIZE`` entries are kept: a miss at the
    bound clears the cache."""

    def __init__(self, ids: _Ids):
        super().__init__()
        self.ids = ids

    def __missing__(self, key) -> tuple[int, ...]:
        if len(self) >= FIELD_CACHE_SIZE:
            self.clear()
        codes = (map(str.strip, key[1:-1].decode("ascii").split('","'))
                 if type(key) is bytes else key)
        self[key] = ids = tuple(dict.fromkeys(map(self.ids.__getitem__,
                                                  codes)))
        return ids


class ProfileFold:
    """Whole-counting fold of records into interned-id count arrays.

    ``add_block`` and ``add_codes`` intern a row's codes and append the
    row, its year, weight n (it stands for n equal records), country ids
    and subject ids, to one compressed-row buffer: a list of each block's
    or row's columns, with each row's code counts. Countries are interned
    through the fixed ids of a block (:data:`~collabsim.corpus._CODES`), a
    table of 676, and subjects through a bounded text cache
    (:class:`_SubjectIds`). Whenever the pending pair work reaches
    ``FLUSH_PAIRS``, at the row where it does, the buffer is flushed:
    numpy expands it per row and adds the row's weight per (row, code pair)
    with ``np.add.at`` into ``disc[kind, country, subject]``,
    ``partner[kind, country, partner]`` and ``regions[region, kind,
    year]``, each region once per row in dedup mode; only the region counts
    keep a year axis, because only regional growth reads one. The partner
    diagonal ``partner[kind, c, c]`` counts the records of each kind that
    list ``c``. ``table`` (a :class:`ProfileTable` over copies of the
    arrays) and ``region_counts`` then give the same results as
    :func:`accumulate` and :meth:`RegionYearCounts.add` over the same
    records. The pooled international family is derived as birc + mirc +
    mega.
    """

    def __init__(self, mega_threshold: int | None = None,
                 region_map: RegionMap | None = None,
                 region_counting: str = REGION_DEDUP):
        check_mega_threshold(mega_threshold)
        _check_choice("region counting mode", region_counting,
                      REGION_COUNTING_MODES)
        self.mega_threshold = mega_threshold
        self.region_map = region_map
        self.region_counting = region_counting
        self._countries, self._subjects, self._years = _Ids(), _Ids(), _Ids()
        self._regions = _Ids()
        self._region_of: list[int] = []  # country id -> region id
        # fixed id -> country id, -1 until a block looks the code up
        self._country_of = np.full(len(_CODES), -1, dtype=np.intp)
        self._subject_ids = _SubjectIds(self._subjects)
        self._disc = np.zeros((len(_KINDS), 0, 0), dtype=np.int64)
        self._partner = np.zeros((len(_KINDS), 0, 0), dtype=np.int64)
        self._region_years = np.zeros((0, len(_KINDS), 0), dtype=np.int64)
        self._reset_buffers()

    def _reset_buffers(self) -> None:
        # per block or row: year ids, weights, country counts, country ids,
        # subject counts and subject ids
        self._y, self._w, self._k, self._cs, self._m, self._ss = (
            [], [], [], [], [], [])
        self._pending = 0

    def __getstate__(self) -> dict:
        """Flush first, so that only counts and intern dicts are pickled."""
        self._flush()
        self._subject_ids.clear()
        return self.__dict__

    def add(self, record: PublicationRecord) -> None:
        """Fold one record: buffer its year and code sets."""
        self.add_codes(record.year, record.countries, record.subjects)

    def add_codes(self, year: int, countries: frozenset[str],
                  subjects: frozenset[str], n: int = 1) -> None:
        """Fold ``n`` records given as their year and their distinct country
        and subject codes."""
        k = len(countries)
        if k < 1:
            raise ValueError("record has no countries")
        subject_ids = self._subject_ids[subjects]
        self._y.append((self._years[year],))
        self._w.append((n,))
        self._k.append((k,))
        self._cs.append(tuple(map(self._countries.__getitem__, countries)))
        self._m.append((len(subject_ids),))
        self._ss.append(subject_ids)
        self._pending += k * (k + len(subject_ids))
        if self._pending >= FLUSH_PAIRS:
            self._flush()

    def add_block(self, block: Block) -> None:
        """Fold the rows of ``block``."""
        n, year, k, fixed, subjects = block
        if not len(k):
            return
        if k.min() < 1:
            raise ValueError("record has no countries")
        countries = self._country_of[fixed]
        if countries.min() < 0:
            for code in _distinct(fixed[countries < 0]).tolist():
                self._country_of[code] = self._countries[_CODES[code]]
            countries = self._country_of[fixed]
        subject_ids = list(map(self._subject_ids.__getitem__, subjects))
        m = np.fromiter(map(len, subject_ids), dtype=np.intp, count=len(k))
        subject_ids = np.fromiter(chain.from_iterable(subject_ids),
                                  dtype=np.intp, count=int(m.sum()))
        years = _distinct(year)
        year = _remap(self._years, years.tolist())[np.searchsorted(years, year)]
        # the buffer takes the rows up to the one where the pending pair
        # work reaches FLUSH_PAIRS, and is flushed, as with add_codes
        work, c_at, s_at = (np.concatenate(([0], np.cumsum(x)))
                            for x in (k * (k + m), k, m))
        a = 0
        while a < len(k):
            b = min(int(np.searchsorted(
                work, work[a] + FLUSH_PAIRS - self._pending)), len(k))
            self._y.append(year[a:b])
            self._w.append(n[a:b])
            self._k.append(k[a:b])
            self._cs.append(countries[c_at[a]:c_at[b]])
            self._m.append(m[a:b])
            self._ss.append(subject_ids[s_at[a]:s_at[b]])
            self._pending += int(work[b] - work[a])
            if self._pending >= FLUSH_PAIRS:
                self._flush()
            a = b

    def _grow(self) -> tuple[int, int, int, int]:
        """Place every interned country in its region, size the count
        arrays to the interned codes and return their numbers."""
        n_c, n_s, n_y = len(self._countries), len(self._subjects), len(self._years)
        for country in list(self._countries)[len(self._region_of):]:
            self._region_of.append(
                self._regions[region_of(self.region_map, country)])
        n_r, n_k = len(self._regions), len(_KINDS)
        self._disc = _grown(self._disc, (n_k, n_c, n_s))
        self._partner = _grown(self._partner, (n_k, n_c, n_c))
        self._region_years = _grown(self._region_years, (n_r, n_k, n_y))
        return n_c, n_s, n_y, n_r

    def _flush(self) -> None:
        if not self._k:
            return
        year, w, k, c, m, s = (
            np.concatenate(part).astype(np.intp, copy=False)
            for part in (self._y, self._w, self._k, self._cs, self._m,
                         self._ss))
        self._reset_buffers()
        n_c, n_s, n_y, n_r = self._grow()
        if w.max() == 1:
            w = None

        kind = kind_index(k, self.mega_threshold)
        # one entry per (row, country), with the row's weight
        rec = np.repeat(np.arange(len(k)), k)
        row = kind[rec] * n_c + c
        _scatter_add(self._disc, np.repeat(row, m[rec]) * n_s
                     + s[_ranges((np.cumsum(m) - m)[rec], m[rec])],
                     _weights(w, rec, m[rec]))
        # every ordered (country, partner) pair, diagonal included: the
        # table reads the diagonal as the publication counts, then drops it
        # and the domestic kind from the partner profiles
        _scatter_add(self._partner, np.repeat(row, k[rec]) * n_c
                     + c[_ranges((np.cumsum(k) - k)[rec], k[rec])],
                     _weights(w, rec, k[rec]))
        del row  # released once added, before the region entries

        # each row's regions (once each in dedup mode)
        region = np.asarray(self._region_of, dtype=np.intp)[c]
        if self.region_counting == REGION_DEDUP:
            rec, region = divmod(_distinct(rec * n_r + region), n_r)
        _scatter_add(self._region_years,
                     (region * len(_KINDS) + kind[rec]) * n_y + year[rec],
                     _weights(w, rec, 1))

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
        kinds = np.arange(len(_KINDS))
        self._disc[np.ix_(kinds, c, s)] += other._disc
        self._partner[np.ix_(kinds, c, c)] += other._partner
        self._region_years[np.ix_(r, kinds, y)] += other._region_years
        return self

    def table(self) -> ProfileTable:
        """The per-country profile sets of every record folded so far."""
        self._flush()
        return ProfileTable(self._disc.copy(), self._partner.copy(),
                            list(self._countries), list(self._subjects))

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


class ProfileTable(Mapping):
    """A read-only ``{country: CountryProfileSet}`` mapping over count arrays.

    It holds ``disciplinary[kind, country, subject]`` and ``partner[kind,
    country, partner]``, indexed by the ids of ``countries`` and
    ``subjects``, and each country's publication counts by kind, which it
    takes from the partner diagonal before zeroing it. Each lookup builds
    a new profile set, so ``dict(table)`` is an independent mutable copy;
    iteration follows the country ids.
    """

    def __init__(self, disciplinary: np.ndarray, partner: np.ndarray,
                 countries: list[str], subjects: list[str]):
        diagonal = np.arange(len(countries))
        self.pubs = partner[:, diagonal, diagonal].T.tolist()
        partner[:, diagonal, diagonal] = 0
        self.disciplinary, self.partner = disciplinary, partner
        self.countries, self.subjects = countries, subjects
        self._ids = {country: i for i, country in enumerate(countries)}

    def __len__(self) -> int:
        return len(self.countries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.countries)

    def __contains__(self, country) -> bool:
        return country in self._ids

    def __getitem__(self, country: str) -> CountryProfileSet:
        i = self._ids[country]

        def profiles(counts, families, names):
            return {f: _profile(_family_rows(counts[:, i], f), names)
                    for f in families}

        return CountryProfileSet(
            country,
            profiles(self.disciplinary, DISC_FAMILIES, self.subjects),
            profiles(self.partner, PARTNER_FAMILIES, self.countries),
            TypeCounts(*self.pubs[i]))


def build_profiles(records: Iterable[PublicationRecord],
                   config: BuildConfig | None = None,
                   ) -> ProfileTable:
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


def merge_tables(a: Mapping[str, CountryProfileSet],
                 b: Mapping[str, CountryProfileSet],
                 ) -> dict[str, CountryProfileSet]:
    """Merge two per-country tables (parallel-fold combiner).

    Entries present in only one input are shared, not copied; treat the
    inputs as frozen once merged.
    """
    return _summed(a, b)


def dump_rows(table: Mapping[str, CountryProfileSet],
              ) -> Iterator[tuple[str, str, str, str, int]]:
    """Profile dump rows (country, family, collab type, dimension, count)
    in lexicographic sort order for deterministic export."""
    for country in sorted(table):
        ps = table[country]
        for family_name, profiles in (("disciplinary", ps.disciplinary),
                                      ("partner", ps.partner)):
            for collab in sorted(profiles):
                for dimension, count in sorted(profiles[collab].items()):
                    yield country, family_name, collab, dimension, count
