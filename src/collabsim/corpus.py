"""Publication corpus model: record parsing, validation and region mapping.

Input corpora are UTF-8 files with one JSON object per line::

    {"id": "p1", "year": 2010, "subjects": ["PHYS"], "countries": ["NL", "ES"]}

Unknown extra fields are ignored. Country identities are alpha-2 codes;
any free-text -> code resolution happens upstream of this module.

Ingest reads each line by one of two parsers, which give the same row or
the same defect: a line in the compact layout ``synth`` writes is matched
once by one pattern and its array texts are parsed once per cache fill
(:func:`_counted_rows`); every other line, and a layout line with a refused
field, is decoded once by the checked parser (:func:`_parse_row`), which
accepts content the field rules take at once and alone words every
rejection. A folding pass reads each distinct line of a chunk once,
with the number of its copies (:class:`_LineCounts`).

Every pass over a corpus file reads each chunk through one chunk matcher
(:class:`_ChunkMatcher`): one ``findall`` takes the layout lines whose
fields every rule takes as they stand, a year in the window, subjects that
are not blank and capital codes the region map places, and every other
line goes with its weight to the accepting loop above, which normalizes it
or words its rejection. ``validate`` reads only the counters and loads no
numpy; the profile fold decodes the taken lines in numpy
(:meth:`AcceptedRows.blocks`, :mod:`collabsim.columns`).
"""

from __future__ import annotations

import csv
import io
import json
import os
import pickle
import re
import signal
import stat
import string
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import chain, compress, repeat, starmap
from operator import not_
from typing import Callable, Iterable, Iterator

DEFAULT_YEAR_WINDOW = (1900, 2100)

# region of a country that no region map places
UNKNOWN_REGION = "UNKNOWN"

# the actions for a record with a country the region map lacks
SKIP = "skip"
FAIL = "fail"
KEEP = "keep"
UNMAPPED_ACTIONS = (SKIP, KEEP, FAIL)


def _check_choice(what: str, value, choices: tuple) -> None:
    """Raise ValueError, naming ``what``, unless ``value`` is one of
    ``choices``."""
    if value not in choices:
        raise ValueError(
            f"unknown {what} {value!r}; valid: {', '.join(choices)}")


# defect categories: RecordError carries the first three; each has a
# skipped_<category> counter in CorpusStats
MALFORMED = "malformed"
MISSING_COUNTRY = "missing_country"
MISSING_SUBJECT = "missing_subject"
UNMAPPED_COUNTRY = "unmapped_country"
DEFECT_CATEGORIES = (MALFORMED, MISSING_COUNTRY, MISSING_SUBJECT,
                     UNMAPPED_COUNTRY)
# built once: concatenating the name per skipped line slowed a dirty
# validate run by about 3 %
_SKIPPED_FIELD = {c: "skipped_" + c for c in DEFECT_CATEGORIES}

# the valid country codes, AA..ZZ, in the order of their fixed ids
# (a - 65) * 26 + (b - 65) for the letter bytes a and b; a string in this set
# is already stripped and upper case, so normalize_country leaves it unchanged
_CODES = tuple(a + b for a in string.ascii_uppercase
               for b in string.ascii_uppercase)
_CANONICAL_CODES = frozenset(_CODES)

_raw_decode = json.JSONDecoder().raw_decode


class CorpusError(Exception):
    """A corpus defect escalated by a fail-fast validation policy.

    ``line_no`` is the 1-based line of the defect, None when no line
    applies, and ``message`` the text after the ``line N: `` prefix, so
    that a worker's local line number can be made global.
    """

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message, line_no)
        self.message, self.line_no = message, line_no

    def __str__(self) -> str:
        if self.line_no is None:
            return self.message
        return f"line {self.line_no}: {self.message}"


class RegionMapError(Exception):
    """The region mapping file is unreadable or inconsistent."""


class RecordError(ValueError):
    """One input line could not be parsed into a valid record."""

    def __init__(self, message: str, line_no: int | None = None,
                 category: str = MALFORMED):
        self.message = message
        self.line_no = line_no
        self.category = category
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


def normalize_country(code: str) -> str:
    """Normalize a country identifier to upper-case form (idempotent)."""
    return code.strip().upper()


@dataclass(frozen=True)
class PublicationRecord:
    """One publication: identifier, year, subject codes, author countries."""

    id: str
    year: int
    subjects: frozenset[str]
    countries: frozenset[str]


# Corpus bytes read at a time: 16 KiB and 1 MiB read the 1M corpus 20 % slower,
# and in one series 1 MiB added 4.8 MB to a dirty validate's 17.5 MB peak RSS.
READ_CHUNK = 1 << 16


def _chunks(raw, start: int, end: int | None, sha) -> Iterator[bytes]:
    """The bytes ``[start, end)`` (``end`` None: to the end) of the binary
    file ``raw`` in chunks cut after their last LF; a partial line goes on
    as pieces, joined once and freed before the chunk is read. A BOM is
    dropped at offset 0 only; ``sha`` is updated with every byte read."""
    if start:
        raw.seek(start)
    left = float("inf") if end is None else end - start
    bom = b"" if start else b"\xef\xbb\xbf"
    pieces = []
    while left > 0 and (data := raw.read(min(left, READ_CHUNK))):
        if sha is not None:
            sha.update(data)
        left -= len(data)
        cut = data.rfind(b"\n") + 1
        if cut:
            pieces.append(data[:cut])
            chunk = b"".join(pieces).removeprefix(bom)
            pieces, bom = [data[cut:]], b""
            yield chunk
        else:
            pieces.append(data)
    yield b"".join(pieces).removeprefix(bom)


def _text_lines(chunk: bytes) -> Iterator[str]:
    """The lines of ``chunk``, decoded in C: they end at LF, CR LF or a lone
    CR, and a byte that is not UTF-8 becomes a lone surrogate."""
    return io.TextIOWrapper(io.BytesIO(chunk), "utf-8", "surrogateescape")


@contextmanager
def open_corpus(path, start: int = 0, end: int | None = None, sha=None):
    """Open a corpus, or its bytes ``[start, end)`` (``end`` None: to the
    end, of a stream too), as an iterator of its lines that is closed when
    the ``with`` block is left.

    Bytes are read :data:`READ_CHUNK` at a time, cut after an LF, and each
    chunk's lines are read in C. Lines end at LF, CR LF or a lone CR; a BOM
    is dropped at offset 0 only, and a byte that is not UTF-8 becomes a lone
    surrogate, which :func:`parse_record` counts as malformed. ``sha``, a
    hashlib object, is updated with every byte read.
    """
    with open(path, "rb", buffering=0) as raw:
        yield chain.from_iterable(
            map(_text_lines, _chunks(raw, start, end, sha)))


def _utf8_ok(text: str) -> bool:
    """True if ``text`` can be written as UTF-8: it holds no surrogate, be
    it a byte the chunk reader could not decode (:func:`open_corpus`) or an
    escaped lone surrogate."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def parse_record(line: str, line_no: int | None = None) -> PublicationRecord:
    """Parse one JSON line into a :class:`PublicationRecord`.

    Country codes are normalized to upper case and deduplicated; subject
    codes are stripped and deduplicated. Key order in the input object is
    irrelevant. Raises :class:`RecordError` with ``category`` set to
    ``malformed``, ``missing_country`` or ``missing_subject``.
    """
    return PublicationRecord(*_parse_row(line, line_no))


# raw_decode refuses a line that starts with JSON whitespace, which
# json.loads skips, or with a BOM, which json.loads words as its own error
_LOADS_FIRST = " \t\n\r\ufeff"


def _parse_row(line: str, line_no: int | None = None) -> tuple:
    """The checked parser: the ``(id, year, subjects, countries)`` row of
    one JSON line, in :class:`PublicationRecord`'s field order, with every
    field checked and normalized as :func:`parse_record` says.

    The line is decoded once, by ``raw_decode``; ``json.loads`` reads only
    a line that starts with JSON whitespace or a BOM, or that has more than
    a newline after its value. Content the rules of :func:`_subject_set`
    and :func:`_country_set` take is accepted at once; any other is walked
    item by item to word its first defect.
    """
    # a decode error is worded only after the checks of the line's text
    error = None
    try:
        try:
            obj, end = _raw_decode(line)
        except ValueError:
            if line[:1] not in _LOADS_FIRST:
                raise
            obj = json.loads(line)
        else:
            if end != len(line) and line[end:] != "\n":
                obj = json.loads(line)  # skips JSON whitespace, words text
    except json.JSONDecodeError as exc:
        obj, error = None, f"invalid JSON: {exc.msg}"
    except RecursionError:
        obj, error = None, "invalid JSON: nested too deeply"
    except ValueError:  # an integer past the int-string digit limit
        obj, error = None, "invalid JSON: integer too long"
    if type(obj) is dict:
        rec_id = obj.get("id")
        year = obj.get("year")
        subjects = obj.get("subjects")
        countries = obj.get("countries")
        if (type(rec_id) is str and rec_id and type(year) is int
                and type(subjects) is list and type(countries) is list):
            try:
                subject_set = _subject_set(subjects)
                country_set = _country_set(countries)
            except TypeError:  # a non-string subject or an unhashable country
                subject_set = country_set = frozenset()
            # an ASCII line without escapes decodes to ASCII strings only
            if (subject_set and country_set
                    and (line.isascii() and "\\" not in line
                         or _utf8_ok(line) and _utf8_ok("".join(subject_set)))):
                return rec_id, year, subject_set, country_set

    if not line.strip():
        raise RecordError("blank line", line_no)
    if not _utf8_ok(line):
        raise RecordError("invalid UTF-8", line_no)
    if error is not None:
        raise RecordError(error, line_no)
    if not isinstance(obj, dict):
        raise RecordError("record is not a JSON object", line_no)

    rec_id = obj.get("id")
    if not isinstance(rec_id, str) or not rec_id:
        raise RecordError("missing or invalid field 'id'", line_no)

    year = obj.get("year")
    if isinstance(year, bool) or not isinstance(year, int):
        raise RecordError("missing or invalid field 'year'", line_no)

    raw_subjects = obj.get("subjects")
    if raw_subjects is None:
        raise RecordError("missing field 'subjects'", line_no, MISSING_SUBJECT)
    if not isinstance(raw_subjects, list):
        raise RecordError("field 'subjects' is not an array", line_no)
    subjects = set()
    for item in raw_subjects:
        if not isinstance(item, str):
            raise RecordError("subject codes must be strings", line_no)
        code = item.strip()
        if not code:
            raise RecordError("empty subject code", line_no)
        if not _utf8_ok(code):
            raise RecordError("invalid UTF-8 in subject code", line_no)
        subjects.add(code)
    if not subjects:
        raise RecordError("empty subjects", line_no, MISSING_SUBJECT)

    raw_countries = obj.get("countries")
    if raw_countries is None:
        raise RecordError("missing field 'countries'", line_no, MISSING_COUNTRY)
    if not isinstance(raw_countries, list):
        raise RecordError("field 'countries' is not an array", line_no)
    countries = set()
    for item in raw_countries:
        if not isinstance(item, str):
            raise RecordError("country codes must be strings", line_no)
        code = normalize_country(item)
        if code not in _CANONICAL_CODES:
            raise RecordError(f"invalid country code {item!r}", line_no)
        countries.add(code)
    if not countries:
        raise RecordError("empty countries", line_no, MISSING_COUNTRY)

    return rec_id, year, frozenset(subjects), frozenset(countries)


# The canonical corpus line: json.dumps's bytes with compact separators for
# an object of a str id, an int year and sorted lists of str codes. Each
# string goes through json.encoder.encode_basestring_ascii, the encoder
# json.dumps applies to a str.
_LINE = '{"id":%s,"year":%d,"subjects":[%s],"countries":[%s]}'


# A line in the _LINE layout whose strings are printable ASCII with no '"' or
# '\\', so that each decodes to its own text, and whose year follows JSON's
# integer grammar, short of the int-string digit limit. The groups are the
# id, the year digits and the texts inside the subjects and countries arrays.
_CHAR = r'[ !#-\[\]-~]'
_STRINGS = rf'"{_CHAR}*"(?:,"{_CHAR}*")*'
_LAYOUT = re.compile(
    rf'\{{"id":"({_CHAR}+)","year":(-?(?:0|[1-9][0-9]{{0,17}})),'
    rf'"subjects":\[({_STRINGS})\],"countries":\[({_STRINGS})\]\}}\n?')

# The start of a line with a layout id: the LF that ends the line before
# it, then {"id":"<id>",. Swapping such an id for another (_SAME_ID) changes
# neither whether the line is accepted nor its year, subjects and countries:
# both parsers accept any non-empty string id, and the last of two "id" keys
# wins either way. An empty id, or one with an escape, is not swapped.
_LEAD_ID = re.compile(rb'\n\{"id":"' + _CHAR.encode() + rb'+",')
_SAME_ID = b'\n{"id":"_",'

# The subjects and countries caches of one _counted_rows call hold at most
# this many texts together; a miss at the bound clears the cache of its own
# field, so a field whose texts rarely repeat does not evict the other's. On
# the benchmark corpora this cap added at most 0.45 MB to the peak RSS, 1,024
# up to 0.8 MB (5 % of a dirty validate) and 65,536 up to 9.2 MB, to save few
# parses. With each distinct line of a chunk read once, the caches still cut
# the accepting loop by 10-30 % (see CHANGES.md). The profile fold's subjects
# cache (profiles._SubjectIds) has the same bound. Re-measured with the fold
# reading columns (2-vCPU Xeon, seed-404 corpora): one-core run_pipeline
# process time (best of 3, median of 5 processes) and CLI report peak RSS
# (median of 5 alternating runs). A larger bound also grows the line loop's
# caches, which 1,024 made up to 0.8 MB larger in a dirty validate.
#
#   bound   consortia fold   dirty fold   bulk RSS    consortia RSS
#   128     0.074 s          0.332 s      37.05 MB    40.73 MB
#   512     0.063 s          0.333 s      37.09 MB    40.75 MB
#   2048    0.060 s          0.319 s      37.01 MB    40.79 MB
FIELD_CACHE_SIZE = 512


def _subject_set(codes: list[str]) -> frozenset[str]:
    """The accept rule of both parsers for the subjects array: its stripped
    codes, or the empty frozenset, a refusal, where one is empty."""
    subjects = frozenset(map(str.strip, codes))
    return frozenset() if "" in subjects else subjects


def _country_set(codes: list[str]) -> frozenset[str]:
    """The accept rule of both parsers for the countries array: its codes
    by :func:`normalize_country`, or the empty frozenset, a refusal, unless
    each is then canonical.

    A canonical set, the common case, is returned as it stands: normalizing
    every set slowed the consortia accepting loop by 20 %. Normalizing the
    rest here keeps lower-case and padded codes off the checked parser,
    which cut the one-core accepting loop over the benchmark's dirty corpus
    from 210 to 180 ms.
    """
    countries = frozenset(codes)
    if countries <= _CANONICAL_CODES:
        return countries
    # normalize_country's rule; str's own methods refuse a non-string with
    # the TypeError _parse_row catches
    countries = frozenset(map(str.upper, map(str.strip, codes)))
    return countries if countries <= _CANONICAL_CODES else frozenset()


def record_to_line(record: PublicationRecord) -> str:
    """Serialize a record to its canonical one-line JSON form."""
    return json.dumps(
        {
            "id": record.id,
            "year": record.year,
            "subjects": sorted(record.subjects),
            "countries": sorted(record.countries),
        },
        separators=(",", ":"),
    )


@dataclass
class CorpusStats:
    """Validation counters for one pass over a corpus.

    Stats merge field-wise (``a + b``), so shard-local counters from a
    partitioned scan combine in any order. The accounting identity
    ``accepted + sum(skipped_*) == total_lines`` holds for every input.
    """

    total_lines: int = 0
    accepted: int = 0
    skipped_missing_country: int = 0
    skipped_missing_subject: int = 0
    skipped_unmapped_country: int = 0
    skipped_malformed: int = 0
    year_min: int | None = None
    year_max: int | None = None

    def _counts(self) -> dict[str, int]:
        """Every counter field, the year bounds aside, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if not f.name.startswith("year_")}

    @property
    def skipped_total(self) -> int:
        return sum(n for name, n in self._counts().items()
                   if name.startswith("skipped_"))

    @property
    def year_range(self) -> tuple[int, int] | None:
        if self.year_min is None:
            return None
        return (self.year_min, self.year_max)

    def balanced(self) -> bool:
        return self.accepted + self.skipped_total == self.total_lines

    def merge(self, other: "CorpusStats") -> "CorpusStats":
        merged = CorpusStats(**{name: n + getattr(other, name)
                                for name, n in self._counts().items()})
        years = [y for y in (self.year_min, self.year_max,
                             other.year_min, other.year_max) if y is not None]
        if years:
            merged.year_min, merged.year_max = min(years), max(years)
        return merged

    __add__ = merge

    def as_dict(self) -> dict:
        year_range = self.year_range
        return {**self._counts(),
                "year_range": list(year_range) if year_range else None}


@dataclass(frozen=True)
class ValidationPolicy:
    """How a pass handles defects.

    ``fail_fast`` stops the pass with :class:`CorpusError` at the first
    malformed line, year outside ``DEFAULT_YEAR_WINDOW`` (plausible calendar
    years, not the analysis period), or missing subject or country; when
    false, each such line is counted and dropped. A record with a country
    the region map lacks follows ``unmapped_country`` alone: ``skip`` (count
    and drop), ``keep`` (accept; downstream stages put it in the unknown
    region) or ``fail``. Other values raise TypeError or ValueError.
    """

    fail_fast: bool = False
    unmapped_country: str = SKIP

    def __post_init__(self) -> None:
        if type(self.fail_fast) is not bool:
            raise TypeError(f"fail_fast must be a bool, not {self.fail_fast!r}")
        _check_choice("unmapped_country action", self.unmapped_country,
                      UNMAPPED_ACTIONS)


def _counted_rows(lines: Iterable[tuple[str, int]],
                  region_map: "RegionMap | None" = None,
                  policy: ValidationPolicy | None = None,
                  stats: CorpusStats | None = None,
                  ids: list | None = None) -> Iterator[tuple]:
    """The accepting loop over ``(line, n)`` pairs, each standing for n
    equal lines: one ``(n, year, subjects, countries)`` row per accepted
    pair, with n added to every counter the line moves; ``ids``, a list,
    gets each row's id as the row is yielded.

    A line in the canonical layout is matched once, and each of its
    subjects and countries texts is parsed at most once per cache fill
    (:data:`FIELD_CACHE_SIZE`): rows of lines that repeat a text share its
    frozenset. Any other line, and a layout line with a refused field,
    goes to :func:`_parse_row`, which alone words every rejection. ``stats``
    is updated in place while the stream is consumed, so callers that stop
    early still get exact counters for the consumed prefix. A
    :class:`CorpusError` names the line the weights add up to.
    """
    policy = policy or ValidationPolicy()
    stats = stats if stats is not None else CorpusStats()
    lo, hi = DEFAULT_YEAR_WINDOW
    fail_fast = policy.fail_fast
    fail_unmapped = policy.unmapped_country == FAIL
    mapped = (frozenset(region_map)
              if region_map is not None and policy.unmapped_country != KEEP
              else None)
    layout = _LAYOUT.fullmatch
    subject_sets: dict[str, frozenset[str]] = {}
    country_sets: dict[str, frozenset[str]] = {}
    line_no = 0
    for line, n in lines:
        line_no += n
        stats.total_lines += n
        match = layout(line)
        if match is not None:
            rec_id, year, subjects, countries = match.groups()
            subject_set = subject_sets.get(subjects)
            if subject_set is None:
                if len(subject_sets) + len(country_sets) >= FIELD_CACHE_SIZE:
                    subject_sets.clear()
                subject_set = subject_sets[subjects] = _subject_set(
                    subjects[1:-1].split('","'))
            country_set = country_sets.get(countries)
            if country_set is None:
                if len(subject_sets) + len(country_sets) >= FIELD_CACHE_SIZE:
                    country_sets.clear()
                country_set = country_sets[countries] = _country_set(
                    countries[1:-1].split('","'))
        if match is not None and subject_set and country_set:
            year = int(year)
        else:
            try:
                rec_id, year, subject_set, country_set = _parse_row(line)
            except RecordError as exc:
                if fail_fast:
                    raise CorpusError(exc.message, line_no) from exc
                name = _SKIPPED_FIELD[exc.category]
                setattr(stats, name, getattr(stats, name) + n)
                continue
        if not lo <= year <= hi:
            if fail_fast:
                raise CorpusError(f"year {year} outside accepted window "
                                  f"{lo}-{hi}", line_no)
            stats.skipped_malformed += n
            continue
        if mapped is not None and not country_set <= mapped:
            if fail_unmapped:
                unmapped = sorted(country_set - mapped)
                raise CorpusError(f"unmapped countries {unmapped}", line_no)
            stats.skipped_unmapped_country += n
            continue
        stats.accepted += n
        if stats.year_min is None or year < stats.year_min:
            stats.year_min = year
        if stats.year_max is None or year > stats.year_max:
            stats.year_max = year
        if ids is not None:
            ids.append(rec_id)
        yield n, year, subject_set, country_set


def _accepted(lines: Iterable[str], region_map: "RegionMap | None" = None,
              policy: ValidationPolicy | None = None,
              stats: CorpusStats | None = None) -> Iterator[tuple]:
    """The accepting loop over plain lines: one ``(id, year, subjects,
    countries)`` row, in :class:`PublicationRecord`'s field order, per
    accepted line."""
    ids = []
    for _, year, subjects, countries in _counted_rows(
            zip(lines, repeat(1)), region_map, policy, stats, ids):
        yield ids.pop(), year, subjects, countries


def iter_accepted(lines: Iterable[str], region_map: "RegionMap | None" = None,
                  policy: ValidationPolicy | None = None,
                  stats: CorpusStats | None = None,
                  ) -> Iterator[PublicationRecord]:
    """Yield validated records from an iterable of JSON lines.

    ``stats`` is updated in place while the stream is consumed, so callers
    that stop early still get exact counters for the consumed prefix.
    Parsing is pure per line; the stream may be partitioned arbitrarily and
    the per-shard stats merged afterwards.
    """
    return starmap(PublicationRecord,
                   _accepted(lines, region_map, policy, stats))


def validate_corpus(lines: Iterable[str],
                    region_map: "RegionMap | None" = None,
                    policy: ValidationPolicy | None = None) -> CorpusStats:
    """Run one full validation pass and return the counters."""
    stats = CorpusStats()
    drain(_counted_rows(zip(lines, repeat(1)), region_map, policy, stats))
    return stats


def drain(rows: Iterable[tuple]) -> None:
    """Consume ``rows`` and keep nothing: the fold of a pass that wants only
    its counters."""
    for _ in rows:
        pass


# A corpus file is folded in newline-aligned byte ranges of at least
# SHARD_MIN_BYTES, one per worker process and at most SHARD_WORKERS of them:
# the cores this process may run on, up to 4. Below that, a second range
# buys time with memory: the 1.9 MB seed-404 consortia_report corpus folds
# in 0.088 s in two ranges against 0.124 s in one (run_pipeline in a fresh
# process, 2-vCPU Xeon), and its CLI report ran 14-23 % faster in two
# series of alternating runs, but at 1.8 MB (4 %) more peak RSS.
SHARD_MIN_BYTES = 1 << 20


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


SHARD_WORKERS = min(_cores(), 4)


def _byte_ranges(path) -> list[tuple[int, int | None]]:
    """``(start, end)`` byte ranges covering the corpus at ``path``, each
    cut just after an LF byte, so that no CR LF pair and no UTF-8 sequence
    is split; the last one runs to the end (``end`` None). A stream, a
    small file or a platform without ``fork`` is one range."""
    try:
        info = os.stat(path)
    except OSError:  # opening the corpus reports it
        return [(0, None)]
    n = min(SHARD_WORKERS, info.st_size // SHARD_MIN_BYTES)
    if n < 2 or not stat.S_ISREG(info.st_mode) or not hasattr(os, "fork"):
        return [(0, None)]
    cuts = [0]
    with open(path, "rb") as fh:
        for i in range(1, n):
            fh.seek(info.st_size * i // n)
            fh.readline()  # on to just after the next LF, or to the end
            cut = fh.tell()
            if cuts[-1] < cut < info.st_size:
                cuts.append(cut)
    return list(zip(cuts, cuts[1:] + [None]))


# A counted chunk with more than this share of distinct lines sends the 15
# chunks after it (about 1 MiB) to the line path: counting costs more than
# it saves where lines do not repeat. Within one chunk, 39-50 % of the
# seed-404 bulk_report lines are distinct and 48-62 % of the dirty_validate
# ones, but 99-100 % of the consortia_report ones.
COUNTED_DISTINCT_MAX = 0.75


class _LineCounts:
    """The lines of a corpus range as ``(line, n)`` pairs, each standing
    for n equal lines; :meth:`_ChunkMatcher.chunks` reads the same chunks
    whole.

    Each chunk of :func:`_chunks` is counted in C: its layout ids are
    swapped for one (:data:`_LEAD_ID`), it is split into lines, the lines
    are counted and each distinct one is decoded once. Three kinds of chunk
    take the line path instead, each line with n = 1: one that holds a CR,
    whose lines would keep ends the layout does not match; one longer than
    two chunks, so that counting does not copy its long line twice more;
    and the chunks after one that hardly repeated
    (:data:`COUNTED_DISTINCT_MAX`); read by the chunk matcher, these last
    are matched as they are read. ``counted`` is the chunk being read whose
    lines are not taken one by one in file order, else None: a counted
    chunk, or any chunk the matcher reads. ``before`` is the number of
    lines before it.
    """

    def __init__(self, chunks: Iterable[bytes]):
        self._chunks = chunks
        self.counted: bytes | None = None
        self.before = 0

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return chain.from_iterable(self._chunk_pairs())

    @staticmethod
    def line_path(chunk: bytes) -> bool:
        """Whether ``chunk`` takes the line path whether or not its lines
        repeat: it holds a CR or is longer than two chunks."""
        return b"\r" in chunk or len(chunk) > 2 * READ_CHUNK

    def counted_chunks(self) -> Iterator[tuple[bytes, Counter | None]]:
        """Each chunk with the counts of its lines, ids swapped, or with
        None where it is not counted."""
        uncounted = 0
        for chunk in self._chunks:
            if uncounted or self.line_path(chunk):
                uncounted = max(uncounted - 1, 0)
                yield chunk, None
            else:
                lines = _LEAD_ID.sub(_SAME_ID, chunk).splitlines(keepends=True)
                if lines:  # no LF comes before the first line
                    lines[0] = _LEAD_ID.sub(_SAME_ID, b"\n" + lines[0])[1:]
                counts = Counter(lines)
                if len(counts) > COUNTED_DISTINCT_MAX * len(lines):
                    uncounted = 15
                yield chunk, counts

    def _chunk_pairs(self) -> Iterator[Iterator[tuple[str, int]]]:
        for chunk, counts in self.counted_chunks():
            if counts is None:
                self.counted = None
                lines = _text_lines(chunk).readlines()
                yield zip(lines, repeat(1))
                self.before += len(lines)
            else:
                self.counted = chunk
                yield zip(map(str, counts, repeat("utf-8"),
                              repeat("surrogateescape")), counts.values())
                self.before += sum(counts.values())


def _alternation(words: Iterable[str]) -> str:
    """A pattern that matches the strings of ``words``, all of one length,
    and no other: one branch per first character, where the characters
    whose rests match alike share a class. No word matches nothing."""
    rests: dict[str, list[str]] = {}
    for word in sorted(words):
        rests.setdefault(word[:1], []).append(word[1:])
    if not rests:
        return "(?!)"
    if "" in rests:  # the words are empty
        return ""
    heads: dict[str, str] = {}  # rest pattern -> its first characters
    for head, rest in rests.items():
        pattern = _alternation(rest)
        heads[pattern] = heads.get(pattern, "") + head
    branches = [(re.escape(head) if len(head) == 1 else
                 "[%s]" % "".join(map(re.escape, head))) + pattern
                for pattern, head in heads.items()]
    return branches[0] if len(branches) == 1 else "(?:%s)" % "|".join(branches)


class _ChunkMatcher:
    """The chunk reader of one pass: the lines of a chunk that every rule
    takes as they stand are found by one ``findall``, and only the others
    take the accepting loop :func:`_counted_rows`.

    The pattern, compiled once per pass and before any worker is forked,
    takes a line in the corpus layout with a year in
    :data:`DEFAULT_YEAR_WINDOW`, subject codes that are not blank and
    country codes of two capital letters that the region map places: any,
    under ``keep`` or with no map, and none with an empty map. Matched over
    many lines (``re.M``), it gives the year, subjects and countries texts
    of such a line, and three empty groups for any other line, blank or
    not, so that match i is line i. Lower-case and padded codes, other
    spellings and every defect go to the loop, which normalizes a line or
    alone words its rejection.
    """

    def __init__(self, region_map: "RegionMap | None",
                 policy: ValidationPolicy | None):
        self.region_map = region_map
        self.policy = policy = policy or ValidationPolicy()
        country = '"[A-Z]{2}"'
        if region_map is not None and policy.unmapped_country != KEEP:
            country = '"%s"' % _alternation(
                _CANONICAL_CODES.intersection(region_map))
        lo, hi = DEFAULT_YEAR_WINDOW
        year = _alternation(map(str, range(lo, hi + 1)))
        subject = rf'" *[!#-\[\]-~]{_CHAR}*"'
        self.pattern = re.compile(
            rf'^(?:\{{"id":"{_CHAR}+","year":({year}),'
            rf'"subjects":\[({subject}(?:,{subject})*)\],'
            rf'"countries":\[({country}(?:,{country})*)\]\}}$|.*)'.encode(),
            re.M)

    def rows(self, lines: Iterable[tuple[str, int]],
             stats: CorpusStats) -> Iterator[tuple]:
        """The accepting loop's rows of the ``(line, n)`` pairs ``lines``."""
        return _counted_rows(lines, self.region_map, self.policy, stats)

    def chunks(self, lines: _LineCounts, stats: CorpusStats) -> Iterator:
        """Per chunk of ``lines``: the ``(years, subjects, countries)``
        texts of its lines, one entry a line and empty where the pattern
        refuses the line, the lines' weights, and the loop's rows of the
        refused lines.

        ``stats`` moves by the taken lines' summed weights when a chunk is
        yielded, and by the refused ones as its rows are consumed. A chunk
        that holds a CR or is longer than two chunks goes to the loop whole.
        While a chunk is read, ``lines.counted`` is that chunk, so a
        :class:`CorpusError` makes the range read it again line by line.
        """
        for chunk, counts in lines.counted_chunks():
            lines.counted = chunk
            if counts is None and lines.line_path(chunk):
                text_lines = _text_lines(chunk).readlines()
                n_lines = len(text_lines)
                texts, weights = ((), (), ()), []
                refused = zip(text_lines, repeat(1))
            else:
                if counts is None:
                    distinct, text = None, chunk
                else:
                    distinct = list(counts)
                    text = b"".join(distinct)
                matches = self.pattern.findall(text)
                if not text or text.endswith(b"\n"):
                    del matches[-1]  # the empty match after the last LF
                weights = ([1] * len(matches) if counts is None
                           else list(counts.values()))
                n_lines = sum(weights)
                texts = tuple(zip(*matches)) or ((), (), ())
                years = texts[0]
                taken = sum(compress(weights, years))
                if taken:
                    stats.total_lines += taken
                    stats.accepted += taken
                    low = int(min(filter(None, years)))
                    high = int(max(years))
                    if stats.year_min is None or low < stats.year_min:
                        stats.year_min = low
                    if stats.year_max is None or high > stats.year_max:
                        stats.year_max = high
                if taken == n_lines:
                    refused = ()
                else:
                    if distinct is None:
                        distinct = chunk.splitlines(keepends=True)
                    keep = list(map(not_, years))
                    refused = zip(map(str, compress(distinct, keep),
                                      repeat("utf-8"),
                                      repeat("surrogateescape")),
                                  compress(weights, keep))
            yield texts, weights, self.rows(refused, stats)
            lines.before += n_lines


class AcceptedRows:
    """The accepted rows of one corpus range, for a fold to read once.

    Iterating gives ``(n, year, subjects, countries)`` rows, each standing
    for n accepted lines, from the accepting loop :func:`_counted_rows`;
    :meth:`blocks` gives the same rows as :class:`~collabsim.columns.Block`
    columns, and :meth:`tally` reads only the counters. ``stats`` moves as
    any of them is consumed. Only :meth:`blocks` loads numpy.
    """

    def __init__(self, lines: _LineCounts, matcher: _ChunkMatcher,
                 stats: CorpusStats):
        self._lines, self._matcher, self._stats = lines, matcher, stats

    def __iter__(self) -> Iterator[tuple]:
        return self._matcher.rows(self._lines, self._stats)

    def blocks(self) -> Iterator:
        from .columns import read_blocks  # numpy, which validate never loads
        return read_blocks(self._matcher.chunks(self._lines, self._stats))

    def tally(self) -> None:
        """Move ``stats`` over the range and keep no row: the fold of a
        pass that wants only its counters. The lines the chunk matcher
        takes build no row; only the others take the accepting loop."""
        for _, _, rows in self._matcher.chunks(self._lines, self._stats):
            drain(rows)


def _fold_range(path, start: int, end: int | None, fold: Callable,
                matcher: _ChunkMatcher,
                sha=None) -> tuple[CorpusStats, object]:
    stats = CorpusStats()
    with open(path, "rb", buffering=0) as raw:
        lines = _LineCounts(_chunks(raw, start, end, sha))
        try:
            result = fold(AcceptedRows(lines, matcher, stats))
        except CorpusError:
            if lines.counted is not None:
                # the line that failed stands for lines of a counted chunk,
                # or was taken out of its chunk's order: read the chunk line
                # by line to fail on its earliest failing line
                try:
                    validate_corpus(_text_lines(lines.counted),
                                    matcher.region_map, matcher.policy)
                except CorpusError as exc:
                    exc.line_no += lines.before
                    raise exc from None
            raise
    return stats, result


def _work(fd: int, *job) -> None:
    """A forked worker: fold one range, write the pickled outcome to the
    pipe ``fd`` and exit; it never returns into the caller's code."""
    status = 1
    try:
        try:
            outcome = True, _fold_range(*job)
        except BaseException as exc:  # the parent raises it
            outcome = False, exc
        with open(fd, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def fold_corpus(path, fold: Callable[[Iterator[tuple]], object],
                region_map: "RegionMap | None" = None,
                policy: ValidationPolicy | None = None,
                sha=None) -> tuple[CorpusStats, list]:
    """Fold the accepted rows of the corpus file at ``path``.

    The file is split into newline-aligned byte ranges (see
    :data:`SHARD_MIN_BYTES`); ``fold`` consumes the :class:`AcceptedRows`
    of one range, as ``(n, year, subjects, countries)`` rows, each standing
    for n accepted lines, or as :class:`~collabsim.columns.Block` columns,
    and returns a picklable result. Rows carry no id, and their order
    within a chunk is not the lines' (see :class:`_LineCounts`). The first
    range is folded in this process, every other one in a forked worker.
    Returns the merged counters and the results in file order.

    Errors keep the meaning of a one-range pass: line numbers are global,
    a fail-fast run raises the error of the earliest failing line, and a
    worker that raises or dies without a result fails the run; the other
    workers are then killed. Every worker is reaped before this returns.
    Every range is read by :func:`_chunks`, through one chunk matcher
    (:class:`_ChunkMatcher`) built before any worker is forked. With
    ``sha``, a hashlib object, the corpus is read as one range, which
    updates ``sha`` with every byte: a stream cannot be read again to
    digest it.
    """
    ranges = [(0, None)] if sha is not None else _byte_ranges(path)
    matcher = _ChunkMatcher(region_map, policy)
    workers = []  # (pid, pipe) of each worker not yet reaped, in file order
    try:
        for start, end in ranges[1:]:
            read_end, write_end = os.pipe()
            pipe = open(read_end, "rb")
            try:
                pid = os.fork()
                if pid == 0:
                    _work(write_end, path, start, end, fold, matcher)
            except OSError:
                pipe.close()
                raise
            finally:
                os.close(write_end)
            workers.append((pid, pipe))
        stats, result = _fold_range(path, *ranges[0], fold, matcher, sha)
        results = [result]
        for start, end in ranges[1:]:
            pid, pipe = workers[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[0]
            if status:
                raise ChildProcessError(
                    f"corpus worker for bytes {start}-{end} exited with "
                    f"status {os.waitstatus_to_exitcode(status)}")
            done, outcome = pickle.loads(data)
            if not done:
                if (isinstance(outcome, CorpusError)
                        and outcome.line_no is not None):
                    outcome.line_no += stats.total_lines
                raise outcome
            range_stats, result = outcome
            stats += range_stats
            results.append(result)
        return stats, results
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# country code -> region name, as load_region_map reads it from a CSV
RegionMap = dict[str, str]


def region_of(region_map: RegionMap | None, country: str) -> str:
    """The region of ``country``, or ``UNKNOWN_REGION`` when there is no
    map or the map does not place it."""
    if region_map is None:
        return UNKNOWN_REGION
    return region_map.get(country, UNKNOWN_REGION)


def _warn(message: str, *args) -> None:
    """Log a warning on this module's logger. ``logging`` loads here, at the
    first warning, and the package logger then gets its ``NullHandler``, so
    warnings stay silent unless the application configures logging."""
    import logging
    package = logging.getLogger(__package__)
    if not any(isinstance(h, logging.NullHandler) for h in package.handlers):
        package.addHandler(logging.NullHandler())
    logging.getLogger(__name__).warning(message, *args)


def load_region_map(path, sha=None) -> RegionMap:
    """Load a ``country,region`` CSV into a ``{country: region}`` dict.

    Repeated rows with the same region are tolerated; the same country code
    mapped to two different regions is an error. An empty file yields an
    empty map with a warning. The file is read once and parsed from the
    bytes read; ``sha``, a hashlib object, is updated with them.
    """
    entries: dict[str, str] = {}
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise RegionMapError(f"cannot read region map {path}: {exc}") from exc
    if sha is not None:
        sha.update(data)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:  # such as a field past csv's size limit
        raise RegionMapError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        _warn("region map %s is empty", path)
        return {}
    header = rows[0]
    if [cell.strip().lower() for cell in header[:2]] != ["country", "region"]:
        raise RegionMapError(
            f"{path}: expected header 'country,region', got {header!r}")
    for row_no, row in enumerate(rows[1:], start=2):
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise RegionMapError(f"{path}:{row_no}: expected 2 columns")
        code = normalize_country(row[0])
        region = row[1].strip()
        if code not in _CANONICAL_CODES:
            raise RegionMapError(
                f"{path}:{row_no}: invalid country code {row[0]!r}")
        if not region:
            raise RegionMapError(f"{path}:{row_no}: empty region name")
        if code in entries and entries[code] != region:
            raise RegionMapError(
                f"{path}:{row_no}: conflicting region for {code}")
        entries[code] = region
    if not entries:
        _warn("region map %s has no entries", path)
    return entries
