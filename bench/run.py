#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark for collabsim.

Run from the repository root:

    python3 bench/run.py --workload bulk_report --seed 404 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Each workload writes its corpus with ``collabsim synth`` from the seed, then
(``--trace 0``) runs one CLI command as a child process, sequentially, for
``--seconds`` seconds, checking every repetition's outputs. Its times are
scaled to a fixed host speed with ``reference.py`` (see ``HostSpeed``).
``--trace 1``
instead runs the traced in-process layer pass of ``layers.py``. Work files
go to ``.bench_work/<workload>/`` under the repository root. The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the same metrics by
name with units, the run's environment and its spread.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import (
    CORPUS,
    COUNTRIES_CSV,
    DIRTY,
    OUT,
    REGIONS,
    SCENARIO,
    VALIDATE_OUT,
    WORKLOADS,
    Workload,
    check_countries,
    check_validate,
    inject_defects,
    recount,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"
REFERENCE = BENCH / "reference.py"
# Times are scaled to a host on which reference.py takes this long; it is
# close to the reference's fastest runs on a 2-vCPU Intel Xeon VM.
REFERENCE_S = 0.5

# golden digests are pinned for this seed at full size
DEFAULT_SEED = 404
SETUP_REPS = 3
MIN_REPS = 3


class BenchError(Exception):
    """The benchmark cannot run here (exit 2, no result line)."""


# --- child processes --------------------------------------------------------

@dataclass(frozen=True)
class ChildRun:
    seconds: float
    exit_code: int
    peak_rss_mb: float


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


# Runs in ``python -S``: reads "cwd NUL stdout NUL stderr NUL argv..." lines,
# runs each command to completion and answers "exit_code seconds maxrss_kb".
_SPAWNER_CODE = r"""
import os, sys, time
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
for line in sys.stdin:
    cwd, stdout, stderr, *argv = line.rstrip("\n").split("\0")
    os.chdir(cwd)
    started = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ,
                         file_actions=[
                             (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                             (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
                             (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644)])
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - started
    print(os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss, flush=True)
"""


class Spawner:
    """Runs ``python -m collabsim ARGS`` children one at a time.

    A child's ``ru_maxrss`` starts from the peak RSS of the process it is
    forked from, so children are spawned by a minimal ``python -S`` helper
    (about 8 MB) instead of this process. Each child's wall time and its own
    peak RSS come from the rusage ``wait4`` returns for it.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-S", "-c", _SPAWNER_CODE], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()

    def run(self, args: list[str], cwd: Path, stdout: Path) -> ChildRun:
        """Run ``python -m collabsim ARGS``."""
        return self.spawn(["-m", "collabsim", *args], cwd, stdout)

    def spawn(self, argv: list[str], cwd: Path, stdout: Path) -> ChildRun:
        """Run ``python ARGV``."""
        stderr = cwd / "stderr.txt"
        request = [str(cwd), str(stdout), str(stderr), *argv]
        self._proc.stdin.write("\0".join(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline().split()
        if len(reply) != 3:
            raise BenchError("the spawner process died")
        exit_code, seconds, maxrss_kb = int(reply[0]), float(reply[1]), int(reply[2])
        if exit_code != 0:
            tail = stderr.read_text(errors="replace")[-2000:]
            print(f"python {' '.join(argv)} exited {exit_code}: {tail}",
                  file=sys.stderr)
        return ChildRun(seconds, exit_code, maxrss_kb / 1024)


class HostSpeed:
    """Scales wall times to a host of fixed speed.

    The shared host's speed drifts by tens of percent within a minute, and
    every process on it slows down together. So ``reference.py``, a fixed
    CPython workload that uses none of collabsim, runs once at ``start`` and
    again after each measured command. A command's scaled time is its wall
    time times REFERENCE_S over the geometric mean of the two reference runs
    around it: what it would take on a host where the reference takes
    REFERENCE_S seconds. A slower program still reads slower.
    """

    def __init__(self, spawner: Spawner, wd: Path):
        self._spawner = spawner
        self._wd = wd
        self._output = None
        self._last = None
        self.samples: list[float] = []

    def _reference(self) -> float:
        stdout = self._wd / "reference.out"
        run = self._spawner.spawn(["-S", str(REFERENCE)], self._wd, stdout)
        output = stdout.read_text()
        if run.exit_code != 0 or self._output not in (None, output):
            raise BenchError("reference.py failed or changed its output")
        self._output = output
        self.samples.append(run.seconds)
        return run.seconds

    def start(self) -> None:
        """Run the reference right before the next measured command."""
        self._last = self._reference()

    def scale(self, seconds: float) -> float:
        """Scale the wall time of the measured command that just ended."""
        before, self._last = self._last, self._reference()
        return seconds * REFERENCE_S / math.sqrt(before * self._last)


# --- digests and environment -------------------------------------------------

def fsync(path: Path) -> None:
    """Flush a written input to disk now, so its write-back does not land
    in the timed repetitions."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def output_digests(wd: Path, workload: Workload) -> dict[str, str]:
    if workload.subcommand == "validate":
        return {VALIDATE_OUT: sha256(wd / VALIDATE_OUT)}
    out = wd / OUT
    return {p.name: sha256(p) for p in sorted(out.iterdir())} if out.is_dir() else {}


def load_golden(workload: Workload, seed: int, smoke: bool) -> dict | None:
    if smoke or seed != DEFAULT_SEED:
        return None
    return json.loads(GOLDEN.read_text()).get(workload.name)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    """What every result is recorded with."""
    source = hashlib.sha256()
    for path in sorted((SRC / "collabsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "orjson_importable": importlib.util.find_spec("orjson") is not None,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
    }


# --- set-up -------------------------------------------------------------------

@dataclass
class Setup:
    wd: Path
    lines: int
    host: HostSpeed
    setup_times: list[float]
    setup_scaled: list[float]
    inputs: dict[str, str]
    expected: dict
    golden: dict | None
    problems: list[str]


def prepare(workload: Workload, seed: int, smoke: bool, spawner: Spawner,
            reps: int = SETUP_REPS) -> Setup:
    """Write the scenario and run ``collabsim synth`` ``reps`` times (each
    timed and host-scaled, each checked byte-identical), then derive the
    dirty corpus and the expected counts."""
    wd = WORK / workload.name
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    (wd / SCENARIO).write_text(json.dumps(workload.scenario_for(seed, smoke),
                                          sort_keys=True) + "\n")
    problems: list[str] = []
    host = HostSpeed(spawner, wd)
    host.start()
    times, scaled = [], []
    inputs = None
    for _ in range(reps):
        run = spawner.run(["synth", "--scenario", SCENARIO, "--out", CORPUS,
                           "--regions-out", REGIONS], wd, wd / "synth.out")
        times.append(run.seconds)
        scaled.append(host.scale(run.seconds))
        if run.exit_code != 0:
            raise BenchError(f"collabsim synth exited {run.exit_code}")
        for name in (CORPUS, REGIONS):
            fsync(wd / name)
        digests = {CORPUS: sha256(wd / CORPUS), REGIONS: sha256(wd / REGIONS)}
        if inputs is not None and digests != inputs:
            problems.append("synth output differs between repetitions")
        inputs = digests
    if workload.dirty:
        expected = inject_defects(wd / CORPUS, wd / DIRTY, seed)
        inputs[DIRTY] = sha256(wd / DIRTY)
    else:
        expected = recount(wd / CORPUS, workload.mega_threshold)
    for name in inputs:
        fsync(wd / name)
    golden = load_golden(workload, seed, smoke)
    if golden is not None and golden["inputs"] != inputs:
        problems.append(f"input digests {inputs} != golden {golden['inputs']}")
    with open(wd / workload.input, "rb") as fh:
        lines = sum(1 for _ in fh)
    return Setup(wd, lines, host, times, scaled, inputs, expected, golden,
                 problems)


# --- end-to-end run -------------------------------------------------------------

@dataclass
class Rep:
    run: ChildRun
    scaled_s: float
    problems: list[str]


def check_rep(workload: Workload, setup: Setup, run: ChildRun,
              outputs: dict[str, str], reference: dict[str, str]) -> list[str]:
    problems = list(setup.problems)
    if run.exit_code != 0:
        problems.append(f"exit code {run.exit_code}")
    if workload.subcommand == "validate":
        problems += check_validate(setup.wd / VALIDATE_OUT, setup.expected)
    else:
        problems += check_countries(setup.wd / OUT / COUNTRIES_CSV,
                                    setup.expected)
    if outputs != reference:
        problems.append("outputs differ from the first repetition")
    if setup.golden is not None and outputs != setup.golden["outputs"]:
        problems.append("output digests differ from golden")
    return problems


def measure(workload: Workload, seed: int, seconds: float, spawner: Spawner,
            smoke: bool = False, after_rep=None) -> dict:
    """Set up, then run the workload's command for ``seconds`` (at least
    MIN_REPS times). ``after_rep(wd, index)`` runs after each repetition,
    before its checks; the self-test uses it to corrupt an output."""
    setup = prepare(workload, seed, smoke, spawner)
    stdout = setup.wd / (VALIDATE_OUT if workload.subcommand == "validate"
                         else "report.out")
    reps: list[Rep] = []
    reference = None
    started = time.perf_counter()
    setup.host.start()
    while len(reps) < MIN_REPS or time.perf_counter() - started < seconds:
        shutil.rmtree(setup.wd / OUT, ignore_errors=True)
        run = spawner.run(workload.args(), setup.wd, stdout)
        scaled_s = setup.host.scale(run.seconds)
        if after_rep is not None:
            after_rep(setup.wd, len(reps))
        outputs = output_digests(setup.wd, workload)
        if reference is None:
            reference = outputs
        problems = check_rep(workload, setup, run, outputs, reference)
        for problem in problems:
            print(f"{workload.name} rep {len(reps)}: {problem}", file=sys.stderr)
        reps.append(Rep(run, scaled_s, problems))

    times = [r.scaled_s for r in reps]
    wall = [r.run.seconds for r in reps]
    run_s = statistics.median(times)
    q1, _, q3 = statistics.quantiles(times, n=4)
    failed = sum(1 for r in reps if r.problems)
    return {
        "workload": workload.name,
        "attempted": len(reps),
        "failed": failed,
        "lines": setup.lines,
        "metrics": {
            "run_s": (run_s, "s"),
            "records_per_s": (setup.lines / run_s, "1/s"),
            "peak_rss_mb": (statistics.median(r.run.peak_rss_mb for r in reps),
                            "MB"),
            "setup_s": (statistics.median(setup.setup_scaled), "s"),
        },
        "error_rate": failed / len(reps),
        "run_wall_s": statistics.median(wall),
        "setup_wall_s": statistics.median(setup.setup_times),
        "reference_s": statistics.median(setup.host.samples),
        "run_s_spread": {"q1": q1, "q3": q3, "samples": len(times)},
        "setup_s_samples": setup.setup_scaled,
        "setup_wall_s_samples": setup.setup_times,
        "run_s_samples": times,
        "run_wall_s_samples": wall,
        "reference_s_samples": setup.host.samples,
        "inputs": setup.inputs,
        "outputs": reference,
    }


def report_lines(result: dict) -> list[str]:
    name = result["workload"]
    spread = result["run_s_spread"]
    lines = []
    for metric, (value, unit) in result["metrics"].items():
        note = ""
        if metric == "run_s":
            note = (f"  host-scaled, median of {spread['samples']}, "
                    f"q1 {spread['q1']:.4f}, q3 {spread['q3']:.4f}")
        elif metric == "setup_s":
            note = (f"  host-scaled, median of "
                    f"{len(result['setup_s_samples'])}")
        elif metric == "records_per_s":
            note = f"  at {result['lines']} corpus lines"
        lines.append(f"{name:17s} {metric:14s} {value:14.4f} {unit}{note}")
    lines.append(f"{name:17s} {'error_rate':14s} {result['error_rate']:14.4f} "
                 f"ratio  {result['failed']} failed of {result['attempted']}")
    for metric in ("run_wall_s", "setup_wall_s", "reference_s"):
        lines.append(f"{name:17s} {metric:14s} {result[metric]:14.4f} s"
                     f"  median wall time, not scaled")
    return lines


# --- command line ---------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "collabsim" / "__init__.py").is_file():
        print(f"bench: no collabsim sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True))
    attempted = failed = 0
    metrics = {}
    try:
        with Spawner() as spawner:
            for name in names:
                if args.trace:
                    from layers import traced_run  # imports collabsim and numpy
                    result = traced_run(WORKLOADS[name], args.seed, args.seconds,
                                        spawner, args.smoke)
                    for line in result["lines"]:
                        print(line)
                else:
                    result = measure(WORKLOADS[name], args.seed, args.seconds,
                                     spawner, args.smoke)
                    for line in report_lines(result):
                        print(line)
                result["env"] = env
                (WORK / name / f"result_trace{args.trace}.json").write_text(
                    json.dumps(result, indent=1, sort_keys=True) + "\n")
                attempted += result["attempted"]
                failed += result["failed"]
                prefix = "" if len(names) == 1 else name + "."
                metrics.update({prefix + metric: {"value": value, "unit": unit}
                                for metric, (value, unit)
                                in result["metrics"].items()})
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
