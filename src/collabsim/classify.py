"""Collaboration-type classification and additive publication counts."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .corpus import PublicationRecord

DEFAULT_MEGA_THRESHOLD = 20


class CollabKind(str, Enum):
    DOMESTIC = "domestic"
    BILATERAL = "bilateral"
    MULTILATERAL = "multilateral"
    MEGA = "mega_multilateral"


INTERNATIONAL_KINDS = frozenset(
    {CollabKind.BILATERAL, CollabKind.MULTILATERAL, CollabKind.MEGA})

_COUNT_FIELD = {
    CollabKind.DOMESTIC: "n_domestic",
    CollabKind.BILATERAL: "n_bilateral",
    CollabKind.MULTILATERAL: "n_multilateral",
    CollabKind.MEGA: "n_mega",
}


@dataclass(frozen=True)
class CollaborationType:
    kind: CollabKind
    country_count: int

    @property
    def is_international(self) -> bool:
        return self.kind in INTERNATIONAL_KINDS


def classify(record: PublicationRecord,
             mega_threshold: int | None = None) -> CollaborationType:
    """Classify a record by its number of distinct author countries.

    One country is domestic, two bilateral, three or more multilateral.
    When ``mega_threshold`` is set (>= 3), records with at least that many
    countries form a separate mega-multilateral class; when it is None the
    class is disabled and such records stay multilateral.
    """
    if mega_threshold is not None and mega_threshold < 3:
        raise ValueError("mega_threshold must be >= 3")
    k = len(record.countries)
    if k < 1:
        raise ValueError("record has no countries")
    if k == 1:
        kind = CollabKind.DOMESTIC
    elif k == 2:
        kind = CollabKind.BILATERAL
    elif mega_threshold is not None and k >= mega_threshold:
        kind = CollabKind.MEGA
    else:
        kind = CollabKind.MULTILATERAL
    return CollaborationType(kind, k)


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
        attr = _COUNT_FIELD[kind]
        setattr(self, attr, getattr(self, attr) + n)

    def merge(self, other: "TypeCounts") -> "TypeCounts":
        return TypeCounts(
            n_domestic=self.n_domestic + other.n_domestic,
            n_bilateral=self.n_bilateral + other.n_bilateral,
            n_multilateral=self.n_multilateral + other.n_multilateral,
            n_mega=self.n_mega + other.n_mega,
        )

    __add__ = merge


def birc_share(counts: TypeCounts) -> float | None:
    """Bilateral share of international output; None when there is none."""
    denom = counts.n_bilateral + counts.n_multilateral + counts.n_mega
    if denom == 0:
        return None
    return counts.n_bilateral / denom
