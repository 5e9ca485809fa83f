"""Run options: the choice sets of the analysis flags, :class:`RunConfig`,
the ``validate`` run and the staged writing of output files.

Nothing here imports numpy, so ``collabsim validate`` loads only this
module, :mod:`collabsim.classify` and :mod:`collabsim.corpus`, and
``collabsim synth`` adds :mod:`collabsim.synthgen` and numpy but no
profile, similarity or aggregate module.
"""

from __future__ import annotations

import csv
import json
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import takewhile
from pathlib import Path

from .classify import check_mega_threshold
from .corpus import (
    SKIP,
    AcceptedRows,
    ValidationPolicy,
    _check_choice,
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


@dataclass(frozen=True)
class RunConfig:
    """Everything one analysis run needs, checked when it is made: a bad
    value raises :class:`UsageError` before any work."""

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

    def __post_init__(self) -> None:
        if self.year_min > self.year_max:
            raise UsageError(f"year filter {self.year_min}:{self.year_max} "
                             "has min > max")
        if not 0.0 <= self.threshold <= 1.0:
            raise UsageError("threshold must lie in [0, 1]")
        if self.min_pubs < 0:
            raise UsageError("min-pubs must be >= 0")
        # the rules the library states, in its words
        try:
            check_mega_threshold(self.mega_threshold)
            _check_choice("growth method", self.growth_method, GROWTH_METHODS)
            _check_choice("denominator", self.fig2_denominator,
                          SHARE_DENOMINATORS)
            _check_choice("region counting mode", self.region_counting,
                          REGION_COUNTING_MODES)
            self.policy()
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    def policy(self) -> ValidationPolicy:
        return ValidationPolicy(self.fail_fast, self.unmapped_policy)

    def public_dict(self) -> dict:
        """Every field, with the year window as one ``years`` pair and the
        paths as strings (the ``config`` of ``manifest.json``)."""
        public = {f.name: getattr(self, f.name) for f in fields(self)}
        public["years"] = [public.pop("year_min"), public.pop("year_max")]
        for name in ("input", "regions", "out"):
            public[name] = str(public[name])
        return public


def run_validate(cfg: RunConfig, stream=None) -> int:
    """Validate the corpus and print the counters as one JSON line.

    Each chunk's layout lines with a year in the window, subjects that are
    not blank and capital country codes the region map places (any, under
    ``keep`` or with no map) are counted by the chunk matcher's ``findall``
    alone (:meth:`~collabsim.corpus.AcceptedRows.tally`); only the other
    lines take the accepting loop, which normalizes them or words their
    rejection. No row is built for a taken line, and numpy is not loaded.
    """
    region_map = load_region_map(cfg.regions) if cfg.regions else None
    stats, _ = fold_corpus(cfg.input, AcceptedRows.tally, region_map,
                           cfg.policy())
    out = stream if stream is not None else sys.stdout
    json.dump(stats.as_dict(), out)
    out.write("\n")
    return 0


class OutputStager:
    """Write-all-then-rename output directory handling, used as
    ``with OutputStager(outdir) as stager:``.

    Files are staged under temporary names. When the block ends cleanly
    the stager commits: it renames everything in one pass. When the block
    or the commit raises, it removes every staged file and every directory
    it created that is left empty, and the exception propagates; so a
    failed run never leaves partial outputs in place.
    """

    def __init__(self, outdir: Path):
        self.outdir = Path(outdir)
        self._staged: list[tuple[Path, Path]] = []
        self._created: list[Path] = []  # in creation order, parents first
        self._make_dirs(self.outdir)

    def __enter__(self) -> OutputStager:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self.commit()
        finally:  # after a commit nothing is left to remove
            for temp, _ in self._staged:
                temp.unlink(missing_ok=True)
            for made in reversed(self._created):
                try:
                    made.rmdir()
                except OSError:  # not empty: something else wrote into it
                    pass
            self._staged, self._created = [], []

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
        with self.open(name) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    @property
    def staged_names(self) -> list[str]:
        return sorted(final.name for _, final in self._staged)

    def commit(self) -> None:
        """Rename every staged file into place, or none if a target exists
        and is not a regular file (a symlink counts as what it points to)."""
        for _, final in self._staged:
            try:
                mode = final.stat().st_mode
            except FileNotFoundError:
                continue
            if stat.S_ISDIR(mode):
                raise IsADirectoryError(f"output is a directory: {final}")
            if not stat.S_ISREG(mode):
                raise OSError(f"output is not a regular file: {final}")
        for temp, final in self._staged:
            os.replace(temp, final)
        self._staged, self._created = [], []
