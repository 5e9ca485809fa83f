"""Run options: the choice sets of the analysis flags, :class:`RunConfig`,
the ``validate`` run and the staged writing of output files.

Nothing here imports numpy, so ``collabsim validate`` loads only this
module and :mod:`collabsim.corpus`, and ``collabsim synth`` adds
:mod:`collabsim.synthgen` and numpy but no profile, similarity or
aggregate module.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import takewhile
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


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class OutputStager:
    """Write-all-then-rename output directory handling.

    Files are staged under temporary names; ``commit`` renames everything in
    one pass, so a failed run never leaves partial outputs in place, and
    ``abort`` also removes the directories the stager created, if empty.
    """

    def __init__(self, outdir: Path):
        self.outdir = Path(outdir)
        self._staged: list[tuple[Path, Path]] = []
        self._created: list[Path] = []  # in creation order, parents first
        self._make_dirs(self.outdir)

    def _make_dirs(self, path: Path) -> None:
        """Create ``path`` and its missing parents, recording each one."""
        for missing in reversed(list(takewhile(
                lambda p: not p.exists(), (path, *path.parents)))):
            missing.mkdir(exist_ok=True)
            self._created.append(missing)

    @contextmanager
    def open(self, name: str | Path):
        """A text file to write ``name`` (a path relative to the output
        directory, whose missing directories are created): written as
        ``.<name>.part`` beside it, removed if the block fails, renamed by
        :meth:`commit`."""
        final = self.outdir / name
        if any(final == staged for _, staged in self._staged):
            raise FileExistsError(f"output named twice: {final}")
        self._make_dirs(final.parent)
        temp = final.with_name(f".{final.name}.part")
        try:
            with open(temp, "w", encoding="utf-8", newline="") as fh:
                yield fh
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
        self._staged.append((temp, final))

    def stage_text(self, name: str, text: str) -> None:
        with self.open(name) as fh:
            fh.write(text)

    def stage_csv(self, name: str, header: list[str], rows) -> None:
        self.stage_text(name, _csv_text(header, rows))

    @property
    def staged_names(self) -> list[str]:
        return sorted(final.name for _, final in self._staged)

    def commit(self) -> None:
        """Rename every staged file into place, or none if a target is a
        directory."""
        for _, final in self._staged:
            if final.is_dir():
                raise IsADirectoryError(f"output is a directory: {final}")
        for temp, final in self._staged:
            os.replace(temp, final)
        self._staged, self._created = [], []

    def abort(self) -> None:
        """Remove every staged file, then every directory the stager
        created that is empty, deepest first."""
        for temp, _ in self._staged:
            temp.unlink(missing_ok=True)
        for made in reversed(self._created):
            try:
                made.rmdir()
            except OSError:  # not empty: something else wrote into it
                pass
        self._staged, self._created = [], []
