#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny corpus sizes.

    python3 bench/selftest.py

Checks that, for every workload and both trace modes, the result line is
correct and names every metric of BENCHMARK.json with its unit; that
flipping one byte of one output makes exactly that repetition fail; that
every workload has golden digests; and that the benchmark exits non-zero
without a result line where the collabsim sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from workloads import COUNTRIES_CSV, OUT, VALIDATE_OUT, WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 7
failures: list[str] = []


def check(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


def bench(root, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=root, capture_output=True, text=True)


def check_result_lines() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in WORKLOADS:
            done = bench(run.ROOT, "--workload", name, "--seed", str(SEED),
                         "--seconds", "0", "--trace", str(trace), "--smoke")
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            label = f"{name} --trace {trace}"
            ok = done.returncode == 0 and set(result) == {
                "correct", "attempted", "failed", "metrics"}
            check(ok, f"{label}: exit 0 and a result line"
                      + ("" if ok else f" ({done.stderr[-300:]})"))
            check(result.get("correct") is True and result.get("failed") == 0,
                  f"{label}: correct, no failed runs")
            got = {m: v.get("unit") for m, v in result.get("metrics", {}).items()}
            check(got == wanted, f"{label}: every metric with its unit")
            if trace == 0:
                named = {line.split()[1]: line.split()[3] for line in lines
                         if line.startswith(name)}
                check(all(named.get(m) == u for m, u in wanted.items())
                      and "error_rate" in named,
                      f"{label}: metrics and error_rate printed by name")


def flip_one_byte(rep: int):
    def after_rep(wd, index):
        if index == rep:
            path = (wd / VALIDATE_OUT if (wd / VALIDATE_OUT).exists()
                    else wd / OUT / COUNTRIES_CSV)
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x01
            path.write_bytes(bytes(data))
    return after_rep


def check_corruption_fails() -> None:
    for name in ("bulk_report", "dirty_validate"):
        with run.Spawner() as spawner:
            result = run.measure(WORKLOADS[name], SEED, 0, spawner, smoke=True,
                                 after_rep=flip_one_byte(1))
        check(result["attempted"] == run.MIN_REPS and result["failed"] == 1,
              f"{name}: one flipped output byte fails exactly that run "
              f"({result['failed']} of {result['attempted']} failed)")


def check_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(bare, "--workload", "bulk_report", "--seed", str(SEED),
                 "--seconds", "1", "--trace", "0")
    check(done.returncode != 0 and '"metrics"' not in done.stdout,
          f"without sources: exit {done.returncode}, no result line")
    shutil.rmtree(bare)


def main() -> int:
    golden = json.loads(run.GOLDEN.read_text())
    check(set(golden) == set(WORKLOADS), "golden digests for every workload")
    check_result_lines()
    check_corruption_fails()
    check_bare_directory()
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
