"""Publication corpus model: record parsing, validation and region mapping.

Input corpora are UTF-8 files with one JSON object per line::

    {"id": "p1", "year": 2010, "subjects": ["PHYS"], "countries": ["NL", "ES"]}

Unknown extra fields are ignored. Country identities are alpha-2 codes;
any free-text -> code resolution happens upstream of this module.

Ingest reads each line by one of two parsers, which give the same row or
the same defect: a line in the compact layout ``synth`` writes is matched
once by one pattern and its array texts are parsed once per cache fill
(:func:`_accepted`); every other line, and a layout line with a refused
field, is decoded once by the checked parser (:func:`_parse_row`), which
accepts canonical content at once, normalizes the rest and alone words
every rejection.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import pickle
import re
import signal
import stat
import string
from dataclasses import dataclass, fields, replace
from itertools import starmap
from json.encoder import encode_basestring_ascii as _json_string
from typing import Callable, Iterable, Iterator

log = logging.getLogger(__name__)

DEFAULT_YEAR_WINDOW = (1900, 2100)

# region of a country that no region map places
UNKNOWN_REGION = "UNKNOWN"

# defect-handling actions
SKIP = "skip"
FAIL = "fail"
KEEP = "keep"
_DEFECT_ACTIONS = (SKIP, FAIL)
UNMAPPED_ACTIONS = (SKIP, KEEP, FAIL)

# defect categories: RecordError carries the first three; each has a
# ValidationPolicy action and a skipped_<category> counter in CorpusStats
MALFORMED = "malformed"
MISSING_COUNTRY = "missing_country"
MISSING_SUBJECT = "missing_subject"
UNMAPPED_COUNTRY = "unmapped_country"
DEFECT_CATEGORIES = (MALFORMED, MISSING_COUNTRY, MISSING_SUBJECT,
                     UNMAPPED_COUNTRY)
# built once: concatenating the name per skipped line slowed a dirty
# validate run by about 3 %
_SKIPPED_FIELD = {c: "skipped_" + c for c in DEFECT_CATEGORIES}

# the valid country codes, AA..ZZ; a string in this set is already stripped
# and upper case, so normalize_country leaves it unchanged
_CANONICAL_CODES = frozenset(a + b for a in string.ascii_uppercase
                             for b in string.ascii_uppercase)

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


class _ByteRange(io.RawIOBase):
    """Raw reader of at most ``limit`` bytes (None: all) of an open binary
    file from its current position; ``sha``, a hashlib object, is updated
    with every byte read."""

    def __init__(self, raw, limit: int | None, sha=None):
        self._raw, self._left, self._sha = raw, limit, sha

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        with memoryview(buffer) as view, view[:self._left] as part:
            n = self._raw.readinto(part)
            if self._sha is not None:
                self._sha.update(part[:n])
        if self._left is not None:
            self._left -= n
        return n

    def close(self) -> None:
        self._raw.close()
        super().close()


def open_corpus(path, start: int = 0, end: int | None = None, sha=None):
    """Open a corpus, or its bytes ``[start, end)`` (``end`` None: to the
    end), for reading lines.

    Lines end at LF, CR LF or a lone CR; a BOM is dropped at offset 0
    only, and each byte that is not UTF-8 becomes a lone surrogate, so
    that :func:`parse_record` counts its line as malformed instead of
    raising. ``sha``, a hashlib object, is updated with every byte read.
    """
    raw = open(path, "rb", buffering=0)
    if start:
        raw.seek(start)
    if end is not None or sha is not None:
        raw = _ByteRange(raw, None if end is None else end - start, sha)
    return io.TextIOWrapper(io.BufferedReader(raw),
                            encoding="utf-8-sig" if start == 0 else "utf-8",
                            errors="surrogateescape")


def _utf8_ok(text: str) -> bool:
    """True if ``text`` can be written as UTF-8: it holds no surrogate, be
    it an undecodable input byte (:func:`open_corpus`) or an escaped lone
    surrogate."""
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
    a newline after its value. Content that is already canonical is
    accepted at once; any other is walked item by item to word its first
    defect.
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
                subject_set = frozenset(map(str.strip, subjects))
                country_set = frozenset(countries)
            except TypeError:  # a non-string subject or an unhashable country
                subject_set = country_set = frozenset()
            # an ASCII line without escapes decodes to ASCII strings only
            if (subject_set and "" not in subject_set and country_set
                    and country_set <= _CANONICAL_CODES
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
# string goes through _json_string, the encoder json.dumps applies to a str.
_LINE = '{"id":%s,"year":%d,"subjects":[%s],"countries":[%s]}'


# A line in the _LINE layout whose strings are printable ASCII with no '"' or
# '\\', so that each decodes to its own text, and whose year follows JSON's
# integer grammar, short of the int-string digit limit. The groups are the
# id, the year digits, the text inside the subjects array and the countries
# array with its brackets.
_CHAR = r'[ !#-\[\]-~]'
_STRINGS = rf'"{_CHAR}*"(?:,"{_CHAR}*")*'
_LAYOUT = re.compile(
    rf'\{{"id":"({_CHAR}+)","year":(-?(?:0|[1-9][0-9]{{0,17}})),'
    rf'"subjects":\[({_STRINGS})\],"countries":(\[{_STRINGS}\])\}}\n?')

# The subjects and countries caches of one _accepted call hold at most this
# many texts together; a miss at the bound clears the cache of its own field,
# so a field whose texts rarely repeat does not evict the other's. On the
# benchmark corpora this cap added at most 0.45 MB to the peak RSS, 1,024 up
# to 0.8 MB (5 % of a dirty validate) and 65,536 up to 9.2 MB, to save few
# parses (see CHANGES.md).
FIELD_CACHE_SIZE = 512
_MISS = object()


def _subject_set(text: str) -> frozenset[str] | None:
    """The stripped codes of a subjects text of the layout, or None where
    the accept test of :func:`_parse_row` would refuse them."""
    codes = frozenset(map(str.strip, text[1:-1].split('","')))
    return None if "" in codes else codes


def _country_set(text: str) -> frozenset[str] | None:
    """The codes of a countries array of the layout, or None where the
    accept test of :func:`_parse_row` would refuse them."""
    codes = frozenset(text[2:-2].split('","'))
    return codes if codes <= _CANONICAL_CODES else None


def _json_strings(codes) -> str:
    return ",".join(map(_json_string, codes))


def record_to_line(record: PublicationRecord) -> str:
    """Serialize a record to its canonical one-line JSON form."""
    subjects = sorted(record.subjects)
    countries = sorted(record.countries)
    if type(record.year) is int:
        try:
            return _LINE % (_json_string(record.id), record.year,
                            _json_strings(subjects), _json_strings(countries))
        except TypeError:  # an id or code that is not a str
            pass
    return json.dumps(
        {
            "id": record.id,
            "year": record.year,
            "subjects": subjects,
            "countries": countries,
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
    """Per-defect-class handling: ``skip`` (count and drop) or ``fail``.

    Unmapped countries additionally support ``keep``: accept the record and
    let downstream stages put it in an unknown-region bucket. Any other
    action raises :class:`ValueError`. Records whose year falls outside
    ``DEFAULT_YEAR_WINDOW`` count as malformed (the window bounds plausible
    calendar years, not the analysis period).
    """

    malformed: str = SKIP
    missing_country: str = SKIP
    missing_subject: str = SKIP
    unmapped_country: str = SKIP

    @classmethod
    def fail_fast(cls) -> "ValidationPolicy":
        return cls(**dict.fromkeys(DEFECT_CATEGORIES, FAIL))

    def __post_init__(self) -> None:
        for field in fields(self):
            valid = (UNMAPPED_ACTIONS if field.name == UNMAPPED_COUNTRY
                     else _DEFECT_ACTIONS)
            action = getattr(self, field.name)
            if action not in valid:
                raise ValueError(f"unknown {field.name} action {action!r}; "
                                 f"valid: {', '.join(valid)}")

    def with_unmapped(self, action: str) -> "ValidationPolicy":
        return replace(self, unmapped_country=action)


def _accepted(lines: Iterable[str], region_map: "RegionMap | None" = None,
              policy: ValidationPolicy | None = None,
              stats: CorpusStats | None = None) -> Iterator[tuple]:
    """The accepting loop: one ``(id, year, subjects, countries)`` row, in
    :class:`PublicationRecord`'s field order, per accepted line.

    A line in the canonical layout is matched once, and each of its
    subjects and countries texts is parsed at most once per cache fill
    (:data:`FIELD_CACHE_SIZE`): rows of lines that repeat a text share its
    frozenset. Any other line, and a layout line with a refused field,
    goes to :func:`_parse_row`, which alone words every rejection. ``stats``
    is updated in place while the stream is consumed, so callers that stop
    early still get exact counters for the consumed prefix.
    """
    policy = policy or ValidationPolicy()
    stats = stats if stats is not None else CorpusStats()
    lo, hi = DEFAULT_YEAR_WINDOW
    mapped = (frozenset(region_map.entries)
              if region_map is not None and policy.unmapped_country != KEEP
              else None)
    layout = _LAYOUT.fullmatch
    subject_sets: dict[str, frozenset[str] | None] = {}
    country_sets: dict[str, frozenset[str] | None] = {}
    for line_no, line in enumerate(lines, start=1):
        stats.total_lines += 1
        match = layout(line)
        row = None
        if match is not None:
            rec_id, year, subjects, countries = match.groups()
            subject_set = subject_sets.get(subjects, _MISS)
            if subject_set is _MISS:
                if len(subject_sets) + len(country_sets) >= FIELD_CACHE_SIZE:
                    subject_sets.clear()
                subject_set = subject_sets[subjects] = _subject_set(subjects)
            country_set = country_sets.get(countries, _MISS)
            if country_set is _MISS:
                if len(subject_sets) + len(country_sets) >= FIELD_CACHE_SIZE:
                    country_sets.clear()
                country_set = country_sets[countries] = _country_set(countries)
            if subject_set is not None and country_set is not None:
                row = rec_id, int(year), subject_set, country_set
        if row is None:
            try:
                row = _parse_row(line)
            except RecordError as exc:
                if getattr(policy, exc.category) == FAIL:
                    raise CorpusError(exc.message, line_no) from exc
                name = _SKIPPED_FIELD[exc.category]
                setattr(stats, name, getattr(stats, name) + 1)
                continue
        year = row[1]
        if not lo <= year <= hi:
            if policy.malformed == FAIL:
                raise CorpusError(f"year {year} outside accepted window "
                                  f"{lo}-{hi}", line_no)
            stats.skipped_malformed += 1
            continue
        if mapped is not None and not row[3] <= mapped:
            if policy.unmapped_country == FAIL:
                unmapped = sorted(row[3] - mapped)
                raise CorpusError(f"unmapped countries {unmapped}", line_no)
            stats.skipped_unmapped_country += 1
            continue
        stats.accepted += 1
        if stats.year_min is None or year < stats.year_min:
            stats.year_min = year
        if stats.year_max is None or year > stats.year_max:
            stats.year_max = year
        yield row


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
    for _ in _accepted(lines, region_map, policy, stats):
        pass
    return stats


# A corpus file is folded in newline-aligned byte ranges of at least
# SHARD_MIN_BYTES, one per worker process and at most SHARD_WORKERS of them:
# the cores this process may run on, up to 4. Smaller ranges do not pay for
# the fork and the merge: a 1.9 MB corpus ran slower in two ranges than in
# one.
SHARD_MIN_BYTES = 1 << 20


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


SHARD_WORKERS = min(_cores(), 4)


def _line_start(fh, pos: int) -> int:
    """The offset just after the first newline byte at or after ``pos`` in
    the binary file ``fh``, or the end of the file."""
    fh.seek(pos)
    while chunk := fh.read(1 << 16):
        i = chunk.find(b"\n")
        if i >= 0:
            return pos + i + 1
        pos += len(chunk)
    return pos


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
            cut = _line_start(fh, info.st_size * i // n)
            if cuts[-1] < cut < info.st_size:
                cuts.append(cut)
    return list(zip(cuts, cuts[1:] + [None]))


def _fold_range(path, start: int, end: int | None, fold: Callable,
                region_map, policy, sha=None) -> tuple[CorpusStats, object]:
    stats = CorpusStats()
    with open_corpus(path, start, end, sha) as lines:
        result = fold(_accepted(lines, region_map, policy, stats))
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
    :data:`SHARD_MIN_BYTES`); ``fold`` consumes the ``(id, year, subjects,
    countries)`` rows of one range and returns a picklable result. The
    first range is folded in this process, every other one in a forked
    worker. Returns the merged counters and the results in file order.

    Errors keep the meaning of a one-range pass: line numbers are global,
    a fail-fast run raises the error of the earliest failing line, and a
    worker that raises or dies without a result fails the run; the other
    workers are then killed. Every worker is reaped before this returns.
    With ``sha``, a hashlib object, the corpus is read as one range and
    ``sha`` is updated with every byte read: a stream cannot be read again
    to digest it.
    """
    ranges = [(0, None)] if sha is not None else _byte_ranges(path)
    workers = []  # (pid, pipe) of each worker not yet reaped, in file order
    try:
        for start, end in ranges[1:]:
            read_end, write_end = os.pipe()
            pipe = open(read_end, "rb")
            try:
                pid = os.fork()
                if pid == 0:
                    _work(write_end, path, start, end, fold, region_map,
                          policy)
            except OSError:
                pipe.close()
                raise
            finally:
                os.close(write_end)
            workers.append((pid, pipe))
        stats, result = _fold_range(path, *ranges[0], fold, region_map,
                                    policy, sha)
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


@dataclass(frozen=True)
class RegionMap:
    """Country code -> region name, loaded from a two-column CSV."""

    entries: dict[str, str]

    def region_of(self, country: str, default: str | None = None) -> str | None:
        return self.entries.get(country, default)

    @property
    def regions(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.entries.values())))

    def __contains__(self, country: str) -> bool:
        return country in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def region_of(region_map: RegionMap | None, country: str) -> str:
    """The region of ``country``, or ``UNKNOWN_REGION`` when there is no
    map or the map does not place it."""
    if region_map is None:
        return UNKNOWN_REGION
    return region_map.region_of(country, UNKNOWN_REGION)


def load_region_map(path, sha=None) -> RegionMap:
    """Load a ``country,region`` CSV into a :class:`RegionMap`.

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
    header = next(reader, None)
    if header is None:
        log.warning("region map %s is empty", path)
        return RegionMap({})
    if [cell.strip().lower() for cell in header[:2]] != ["country", "region"]:
        raise RegionMapError(
            f"{path}: expected header 'country,region', got {header!r}")
    for row_no, row in enumerate(reader, start=2):
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
        log.warning("region map %s has no entries", path)
    return RegionMap(entries)
