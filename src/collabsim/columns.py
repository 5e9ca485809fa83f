"""The columnar chunk reader of the profile fold.

A folding pass (``report``, ``profile``, ``similarity``, ``aggregate``,
``growth``) reads each chunk of a corpus range as :class:`Block` columns
(:meth:`~collabsim.corpus.AcceptedRows.blocks`). One pattern
(:data:`_COLUMNS`) matches every line of the chunk in one ``findall``, and
the layout lines whose fields are already canonical, capital two-letter
country codes, subjects that are not blank and a year of four digits, are
decoded in numpy; masks refuse a year outside ``DEFAULT_YEAR_WINDOW`` and
an unmapped country. Every other line goes with its weight to the
accepting loop of :mod:`collabsim.corpus`, which normalizes it or words its
rejection, so the rows and counters are the loop's. ``validate`` folds no
profile: it keeps the loop alone and imports neither this module nor
numpy.
"""

from __future__ import annotations

import re
from itertools import chain, compress, repeat
from typing import Iterator, NamedTuple

import numpy as np

from .corpus import (_CHAR, _CODES, DEFAULT_YEAR_WINDOW, KEEP, CorpusStats,
                     RegionMap, ValidationPolicy, _counted_rows, _LineCounts,
                     _text_lines)

# code -> fixed id, (a - 65) * 26 + (b - 65) for the letter bytes a and b
_CODE_IDS = {code: i for i, code in enumerate(_CODES)}


class Block(NamedTuple):
    """Accepted rows as columns: row i stands for ``n[i]`` equal lines of
    the year ``year[i]`` with ``k[i]`` distinct countries and the subjects
    ``subjects[i]``.

    ``countries`` holds the countries of every row in row order, as fixed
    ids: ``(a - 65) * 26 + (b - 65)`` for the letters a and b of a code,
    so ``_CODES[i]`` names id i. A subjects entry is the text inside the
    subjects array of a layout line, as bytes, whose quoted items are
    stripped codes once deduplicated, or a frozenset of codes. The other
    columns are int arrays.
    """

    n: np.ndarray
    year: np.ndarray
    k: np.ndarray
    countries: np.ndarray
    subjects: list

    def take(self, keep: np.ndarray) -> Block:
        """The rows where the bool array ``keep`` is true."""
        return Block(self.n[keep], self.year[keep], self.k[keep],
                     self.countries[keep.repeat(self.k)],
                     list(compress(self.subjects, keep.tolist())))


# A line in the corpus layout whose fields the columnar reader takes as they
# are: a year of four digits, subject codes that are not blank and country
# codes of two capital letters. Matched over many lines (re.M), it gives the
# year, subjects and countries texts of such a line, and three empty groups
# for any other line, blank or not, so that match i is line i.
_SUBJECT = rb'" *[!#-\[\]-~]' + _CHAR.encode() + rb'*"'
_COUNTRY = rb'"[A-Z]{2}"'
_COLUMNS = re.compile(
    rb'^(?:\{"id":"' + _CHAR.encode() + rb'+","year":([1-9][0-9]{3}),'
    rb'"subjects":\[(' + _SUBJECT + rb'(?:,' + _SUBJECT + rb')*)\],'
    rb'"countries":\[(' + _COUNTRY + rb'(?:,' + _COUNTRY + rb')*)\]\}$|.*)',
    re.M)


def read_blocks(lines: _LineCounts, region_map: RegionMap | None,
                policy: ValidationPolicy | None,
                stats: CorpusStats) -> Iterator[Block]:
    """The accepted rows of the chunks of ``lines`` as blocks, one or two a
    chunk, with ``stats`` moved as by the accepting loop.

    A chunk that holds a CR or is longer than two chunks goes to the
    accepting loop :func:`~collabsim.corpus._counted_rows` whole. Any other
    is matched by :data:`_COLUMNS` in one ``findall``, over its distinct
    lines joined when it is counted, else as it is read, and its matches
    are decoded in numpy (:func:`_column_block`). Each line that the
    pattern or a mask refuses goes with its weight to the accepting loop,
    which alone words a rejection; the rows it accepts come as a second
    block. While a chunk is read, ``lines.counted`` is that chunk, so a
    :class:`~collabsim.corpus.CorpusError` makes the range read it again
    line by line.
    """
    policy = policy or ValidationPolicy()
    mapped = None
    if region_map is not None and policy.unmapped_country != KEEP:
        mapped = np.zeros(len(_CODES), dtype=bool)
        mapped[[_CODE_IDS[c] for c in region_map if c in _CODE_IDS]] = True
    for chunk, counts in lines.counted_chunks():
        lines.counted = chunk
        if counts is None and _LineCounts.line_path(chunk):
            text_lines = _text_lines(chunk).readlines()
            refused = zip(text_lines, repeat(1))
            n_lines = len(text_lines)
        else:
            if counts is None:
                distinct, text = None, chunk
            else:
                distinct = list(counts)
                text = b"".join(distinct)
            matches = _COLUMNS.findall(text)
            if not text or text.endswith(b"\n"):
                del matches[-1]  # the empty match after the last LF
            weights = [1] * len(matches) if counts is None else list(
                counts.values())
            block, at = _column_block(matches, weights, mapped, stats)
            if len(block.k):
                yield block
            if at and distinct is None:
                distinct = chunk.splitlines(keepends=True)
            refused = ((str(distinct[i], "utf-8", "surrogateescape"),
                        weights[i]) for i in at)
            n_lines = sum(weights)
        rows = list(_counted_rows(refused, region_map, policy, stats))
        if rows:
            yield _rows_block(rows)
        lines.before += n_lines


def _code_ids(text: bytes) -> np.ndarray:
    """The fixed ids of the codes in ``text``, quoted two-letter codes
    joined by commas, such as ``"NL","ES"``: each sits at a 5-byte
    stride."""
    data = np.frombuffer(text, dtype=np.uint8)
    return data[1::5].astype(np.intp) * 26 + data[2::5] - 65 * 27


def _column_block(matches: list[tuple[bytes, bytes, bytes]],
                  weights: list[int], mapped: np.ndarray | None,
                  stats: CorpusStats) -> tuple[Block, list[int]]:
    """The block of the lines of ``matches``, one :data:`_COLUMNS` match
    per line and each line of the weight ``weights[i]``, that every rule
    takes, and the indices of the others.

    A row's country codes are deduplicated by a sort on (row, code); masks
    refuse a year outside ``DEFAULT_YEAR_WINDOW`` and, with ``mapped``, a
    bool array over the fixed ids, a country it leaves out. ``stats``
    counts the block's lines as accepted."""
    if not matches:
        return Block(*(np.zeros(0, dtype=np.intp),) * 4, []), []
    years, subjects, countries = zip(*matches)
    line = np.flatnonzero(np.fromiter(map(len, years), dtype=np.intp,
                                      count=len(years)))
    countries = list(filter(None, countries))
    k = (np.fromiter(map(len, countries), dtype=np.intp,
                     count=len(countries)) + 1) // 5
    codes = _code_ids(b",".join(countries))
    # each row's distinct codes, in ascending order
    key = _distinct(np.repeat(np.arange(len(k)), k) * len(_CODES) + codes)
    row, codes = np.divmod(key, len(_CODES))
    k = np.bincount(row, minlength=len(k))
    year = (np.frombuffer(b"".join(years), dtype=np.uint8).reshape(-1, 4)
            @ np.array([1000, 100, 10, 1])) - 48 * 1111
    lo, hi = DEFAULT_YEAR_WINDOW
    accept = (year >= lo) & (year <= hi)
    if mapped is not None:
        accept[row[~mapped[codes]]] = False
    block = Block(np.array(weights, dtype=np.int64)[line], year, k, codes,
                  list(filter(None, subjects)))
    if not accept.all():
        block = block.take(accept)
    taken = np.zeros(len(matches), dtype=bool)
    taken[line[accept]] = True
    if len(block.k):
        n = int(block.n.sum())
        stats.total_lines += n
        stats.accepted += n
        low, high = int(block.year.min()), int(block.year.max())
        if stats.year_min is None or low < stats.year_min:
            stats.year_min = low
        if stats.year_max is None or high > stats.year_max:
            stats.year_max = high
    return block, np.flatnonzero(~taken).tolist()


def _rows_block(rows: list[tuple]) -> Block:
    """The block of ``(n, year, subjects, countries)`` rows of code sets."""
    n, year, subjects, countries = zip(*rows)
    codes = '"%s"' % '","'.join(chain.from_iterable(countries))
    return Block(np.array(n, dtype=np.int64), np.array(year, dtype=np.int64),
                 np.fromiter(map(len, countries), dtype=np.intp,
                             count=len(rows)),
                 _code_ids(codes.encode()), list(subjects))


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of ``values``, an int array, in ascending order:
    ``np.unique(values)`` without the ``numpy.ma`` import it costs."""
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]
