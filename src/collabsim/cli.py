"""Command line entry point.

Subcommands: validate, profile, similarity, aggregate, growth, report
(all-in-one) and synth. Exit codes: 0 success, 1 usage error, 2 data error.
Failures print one machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .corpus import (DEFAULT_YEAR_WINDOW, UNMAPPED_ACTIONS, CorpusError,
                     RegionMapError)
from .options import (
    GROWTH_METHODS,
    REGION_COUNTING_MODES,
    SHARE_DENOMINATORS,
    RunConfig,
    UsageError,
    run_validate,
)

EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through UsageError so
    # usage problems exit 1 and data problems keep 2.
    def error(self, message):
        raise UsageError(message)


def _years(text: str) -> tuple[int, int]:
    try:
        first, last = text.split(":")
        return int(first), int(last)
    except ValueError as exc:
        raise UsageError(f"--years expects A:B, got {text!r}") from exc


def _add_analysis_args(sub: argparse.ArgumentParser,
                       regions_required: bool = True) -> None:
    # ``sub`` suppresses absent options, so RunConfig supplies their defaults
    sub.add_argument("--input", required=True, type=Path,
                     help="corpus file, one JSON record per line")
    sub.add_argument("--regions", required=regions_required, type=Path,
                     default=None, help="country,region CSV")
    sub.add_argument("--out", type=Path, default=Path("out"),
                     help="output directory")
    sub.add_argument("--years", type=_years, metavar="A:B",
                     help="analysis year window (default "
                          f"{RunConfig.year_min}:{RunConfig.year_max})")
    sub.add_argument("--mega-threshold", type=int, metavar="N",
                     help="enable the mega class at >= N countries")
    sub.add_argument("--min-pubs", type=int, metavar="N",
                     help="eligibility floor for world baselines")
    sub.add_argument("--threshold", type=float, metavar="T",
                     help="highlight countries with similarity below T")
    sub.add_argument("--growth-method", choices=GROWTH_METHODS)
    sub.add_argument("--fig2-denominator", choices=SHARE_DENOMINATORS,
                     help="denominator of the bilateral share")
    sub.add_argument("--region-counting", choices=REGION_COUNTING_MODES,
                     help="regional counts: once per region or per country")
    sub.add_argument("--scatter-region", metavar="REGION",
                     help="restrict scatter datasets to one region")
    sub.add_argument("--fail-fast", action="store_true",
                     help="stop at the first malformed line, year outside "
                          "{}-{}, or missing subject or country; an unmapped "
                          "record follows --unmapped-policy alone".format(
                              *DEFAULT_YEAR_WINDOW))
    sub.add_argument("--unmapped-policy", choices=UNMAPPED_ACTIONS,
                     help="how to treat countries missing from the region map")


def _config(args: argparse.Namespace) -> RunConfig:
    given = vars(args)
    options = {f.name: given[f.name] for f in fields(RunConfig)
               if f.name in given}
    if "years" in given:
        options["year_min"], options["year_max"] = given["years"]
    return RunConfig(**options)


# The commands that fold profiles or generate corpora import numpy, through
# reporting and synthgen, only when they run; validate needs neither, and
# synth needs no profile, similarity or aggregate module.

def _run_outputs(args: argparse.Namespace) -> int:
    from .reporting import run_outputs
    return run_outputs(args.command, _config(args))


def _run_synth(args: argparse.Namespace) -> int:
    from .synthgen import ScenarioError, run_synth
    try:
        return run_synth(args.scenario, args.out, args.regions_out)
    except ScenarioError as exc:
        return _fail(str(exc), EXIT_DATA)


def build_parser() -> _Parser:
    parser = _Parser(prog="collabsim",
                     description="Collaboration-type profiles, similarity "
                                 "indicators and regional aggregates for "
                                 "publication corpora.")
    parser.add_argument("--version", action="version",
                        version=f"collabsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    descriptions = {
        "validate": "check the corpus and print validation counters",
        "profile": "write the per-country profile dump (profiles.csv)",
        "similarity": "write the per-country indicator report (countries.csv)",
        "aggregate": "write regional boxplots, flags and scatter datasets",
        "growth": "write regional growth rates (growth.csv)",
        "report": "write all outputs in one run",
    }
    for name, desc in descriptions.items():
        cmd = sub.add_parser(name, help=desc,
                             argument_default=argparse.SUPPRESS)
        _add_analysis_args(cmd, regions_required=(name != "validate"))
        if name == "validate":
            cmd.set_defaults(func=lambda args: run_validate(_config(args)))
        else:
            cmd.set_defaults(func=_run_outputs)

    synth = sub.add_parser("synth", help="generate a synthetic corpus")
    synth.add_argument("--scenario", required=True, type=Path,
                       help="scenario description (JSON)")
    synth.add_argument("--out", required=True, type=Path,
                       help="output corpus file (JSON lines)")
    synth.add_argument("--regions-out", type=Path, default=None,
                       help="also write a matching country,region CSV")
    synth.set_defaults(func=_run_synth)
    return parser


def _fail(message: str, code: int) -> int:
    print(json.dumps({"error": message, "exit_code": code}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except (CorpusError, RegionMapError, OSError) as exc:
        return _fail(str(exc), EXIT_DATA)


def entry() -> int:
    """The process entry of ``python -m collabsim`` and the ``collabsim``
    script: :func:`main` with one OpenBLAS thread unless the caller set
    ``OPENBLAS_NUM_THREADS``, then ``gc.freeze()``.

    numpy is not loaded yet, so its BLAS starts no pool of a thread per
    extra core, which no command uses and which costs every import of
    numpy about 35 ms on a 2-vCPU host; the freeze spares the exit of the
    interpreter a sweep of the objects the run leaves, numpy's among them.
    A caller of :func:`main` in its own process keeps its environment and
    collector as they were.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(entry())
