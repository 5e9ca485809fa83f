"""The columnar chunk reader of the profile fold.

A folding pass (``report``, ``profile``, ``similarity``, ``aggregate``,
``growth``) reads each chunk of a corpus range as :class:`Block` columns
(:meth:`~collabsim.corpus.AcceptedRows.blocks`). The chunk matcher of
:mod:`collabsim.corpus` finds in one ``findall`` the layout lines that every
rule takes as they stand: a year in ``DEFAULT_YEAR_WINDOW``, subject codes
that are not blank and capital two-letter country codes that the region map
places. Their country codes are decoded here in numpy. Every other line
goes with its weight to the accepting loop, which normalizes it or words its
rejection, and its rows come as a second block, so the rows and counters
are the loop's. ``validate`` reads only the matcher's counters and imports
neither this module nor numpy.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .corpus import _CODES


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


def read_blocks(chunks: Iterable[tuple]) -> Iterator[Block]:
    """The accepted rows of the chunks of
    :meth:`~collabsim.corpus._ChunkMatcher.chunks` as blocks, one or two a
    chunk: the lines the matcher takes, decoded in numpy
    (:func:`_column_block`), then the rows the accepting loop takes of the
    others."""
    for (years, subjects, countries), weights, rows in chunks:
        if any(years):
            yield _column_block(years, subjects, countries, weights)
        rows = list(rows)
        if rows:
            yield _rows_block(rows)


def _code_ids(text: bytes) -> np.ndarray:
    """The fixed ids of the codes in ``text``, quoted two-letter codes
    joined by commas, such as ``"NL","ES"``: each sits at a 5-byte
    stride."""
    data = np.frombuffer(text, dtype=np.uint8)
    return data[1::5].astype(np.intp) * 26 + data[2::5] - 65 * 27


def _column_block(years: tuple[bytes, ...], subjects: tuple[bytes, ...],
                  countries: tuple[bytes, ...], weights: list[int]) -> Block:
    """The block of the lines the chunk matcher takes: line i has the year,
    subjects and countries texts ``years[i]``, ``subjects[i]`` and
    ``countries[i]``, all empty where the matcher refuses it, and the
    weight ``weights[i]``. A row's country codes are deduplicated by a sort
    on (row, code)."""
    countries = list(filter(None, countries))
    k = (np.fromiter(map(len, countries), dtype=np.intp,
                     count=len(countries)) + 1) // 5
    codes = _code_ids(b",".join(countries))
    # each row's distinct codes, in ascending order
    key = _distinct(np.repeat(np.arange(len(k)), k) * len(_CODES) + codes)
    row, codes = np.divmod(key, len(_CODES))
    year = (np.frombuffer(b"".join(years), dtype=np.uint8).reshape(-1, 4)
            @ np.array([1000, 100, 10, 1])) - 48 * 1111
    return Block(np.array(list(compress(weights, years)), dtype=np.int64),
                 year, np.bincount(row, minlength=len(k)), codes,
                 list(filter(None, subjects)))


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
