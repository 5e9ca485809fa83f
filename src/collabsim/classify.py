"""Collaboration-type classification and additive publication counts."""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

from .corpus import PublicationRecord


class CollabKind(str, Enum):
    DOMESTIC = "domestic"
    BILATERAL = "bilateral"
    MULTILATERAL = "multilateral"
    MEGA = "mega_multilateral"


_KINDS = tuple(CollabKind)  # in kind index order


def check_mega_threshold(mega_threshold: int | None) -> None:
    """Reject a mega class threshold below three countries."""
    if mega_threshold is not None and mega_threshold < 3:
        raise ValueError("mega_threshold must be >= 3")


def kind_index(k, mega_threshold: int | None = None):
    """Kind index of ``k`` >= 1 distinct countries: 0 domestic (one), 1
    bilateral (two), 2 multilateral (more), 3 mega (at least a threshold
    that is not None). ``k`` may be an int or an integer array."""
    index = (k > 1) * 1 + (k > 2)
    if mega_threshold is not None:
        index = index + (k >= mega_threshold)
    return index


@dataclass(frozen=True)
class CollaborationType:
    kind: CollabKind
    country_count: int

    @property
    def is_international(self) -> bool:
        return self.kind is not CollabKind.DOMESTIC


def classify(record: PublicationRecord,
             mega_threshold: int | None = None) -> CollaborationType:
    """Classify a record by its number of distinct author countries, as
    :func:`kind_index` does; ``mega_threshold`` is None or at least 3."""
    check_mega_threshold(mega_threshold)
    k = len(record.countries)
    if k < 1:
        raise ValueError("record has no countries")
    return CollaborationType(_KINDS[kind_index(k, mega_threshold)], k)


@dataclass
class TypeCounts:
    """Publication counts per collaboration type.

    Merges as a field-wise additive monoid, so shard-local counts combine
    in any order.
    """

    n_domestic: int = 0
    n_bilateral: int = 0
    n_multilateral: int = 0
    n_mega: int = 0

    @property
    def n_international(self) -> int:
        return self.n_bilateral + self.n_multilateral + self.n_mega

    @property
    def n_total(self) -> int:
        return self.n_domestic + self.n_international

    def add(self, kind: CollabKind, n: int = 1) -> None:
        # the fields are declared in kind index order
        name = fields(self)[_KINDS.index(kind)].name
        setattr(self, name, getattr(self, name) + n)

    def merge(self, other: "TypeCounts") -> "TypeCounts":
        return TypeCounts(*(getattr(self, f.name) + getattr(other, f.name)
                            for f in fields(self)))

    __add__ = merge


def _summed(a: dict, b: dict) -> dict:
    """The key-wise sum of two nested count dicts, in new dicts all the way
    down: dict values are summed in turn, and any other value is added with
    ``+`` or, under a key of one input only, kept as it is."""
    total = {}
    for source in (a, b):
        for key, value in source.items():
            if isinstance(value, dict):
                value = _summed(total.get(key, {}), value)
            elif key in total:
                value = total[key] + value
            total[key] = value
    return total


def birc_share(counts: TypeCounts) -> float | None:
    """Bilateral share of international output; None when there is none."""
    denom = counts.n_international
    if denom == 0:
        return None
    return counts.n_bilateral / denom
