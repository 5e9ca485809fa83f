"""Run options: the choice sets of the analysis flags, :class:`RunConfig`
and the ``validate`` run.

Nothing here imports numpy, so ``collabsim validate`` loads only this
module and :mod:`collabsim.corpus`.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .corpus import (
    SKIP,
    UNMAPPED_ACTIONS,
    ValidationPolicy,
    fold_corpus,
    load_region_map,
)

CAGR = "cagr"
LOGLINEAR = "loglinear"
GROWTH_METHODS = (CAGR, LOGLINEAR)

REGION_DEDUP = "dedup"
REGION_COUNTRY_SUM = "country"
REGION_COUNTING_MODES = (REGION_DEDUP, REGION_COUNTRY_SUM)

SHARE_OF_INTERNATIONAL = "international"
SHARE_OF_TOTAL = "total"
SHARE_DENOMINATORS = (SHARE_OF_INTERNATIONAL, SHARE_OF_TOTAL)


class UsageError(Exception):
    """Bad flags or configuration (exit code 1)."""


@dataclass
class RunConfig:
    """Everything one analysis run needs; validated before any work."""

    input: Path
    regions: Path | None
    out: Path
    year_min: int = 2008
    year_max: int = 2017
    mega_threshold: int | None = None
    min_pubs: int = 1
    threshold: float = 0.5
    growth_method: str = CAGR
    fig2_denominator: str = SHARE_OF_INTERNATIONAL
    region_counting: str = REGION_DEDUP
    scatter_region: str | None = None
    fail_fast: bool = False
    unmapped_policy: str = SKIP

    def validate(self) -> None:
        if self.year_min > self.year_max:
            raise UsageError(f"year filter {self.year_min}:{self.year_max} "
                             "has min > max")
        if not 0.0 <= self.threshold <= 1.0:
            raise UsageError("threshold must lie in [0, 1]")
        if self.mega_threshold is not None and self.mega_threshold < 3:
            raise UsageError("mega threshold must be >= 3")
        if self.min_pubs < 0:
            raise UsageError("min-pubs must be >= 0")
        if self.growth_method not in GROWTH_METHODS:
            raise UsageError(f"unknown growth method {self.growth_method!r}")
        if self.fig2_denominator not in SHARE_DENOMINATORS:
            raise UsageError(
                f"unknown fig2 denominator {self.fig2_denominator!r}")
        if self.region_counting not in REGION_COUNTING_MODES:
            raise UsageError(
                f"unknown region counting mode {self.region_counting!r}")
        if self.unmapped_policy not in UNMAPPED_ACTIONS:
            raise UsageError(f"unknown unmapped policy {self.unmapped_policy!r}")

    def policy(self) -> ValidationPolicy:
        policy = (ValidationPolicy.fail_fast() if self.fail_fast
                  else ValidationPolicy())
        return policy.with_unmapped(self.unmapped_policy)

    def public_dict(self) -> dict:
        """Every field, with the year window as one ``years`` pair and the
        paths as strings (the ``config`` of ``manifest.json``)."""
        public = {f.name: getattr(self, f.name) for f in fields(self)}
        public["years"] = [public.pop("year_min"), public.pop("year_max")]
        for name in ("input", "regions", "out"):
            public[name] = str(public[name])
        return public


def _drain(rows) -> None:
    """The fold of ``validate``, which keeps only the counters."""
    for _ in rows:
        pass


def run_validate(cfg: RunConfig, stream=None) -> int:
    """Validate the corpus and print the counters as one JSON line."""
    cfg.validate()
    region_map = load_region_map(cfg.regions) if cfg.regions else None
    stats, _ = fold_corpus(cfg.input, _drain, region_map, cfg.policy())
    out = stream if stream is not None else sys.stdout
    json.dump(stats.as_dict(), out)
    out.write("\n")
    return 0
