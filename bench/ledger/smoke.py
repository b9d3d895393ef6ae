#!/usr/bin/env python3
"""Smoke test for bench_ledger (registered as the ledger_smoke ctest).

Runs every workload at a 1 s simulated horizon with one timed repetition,
untraced and traced, and checks that each run exits 0, reports
failed_runs == 0, and writes a ledger file that parses as JSON.

    smoke.py BENCH_LEDGER OUT_DIR
"""
import json
import subprocess
import sys
from pathlib import Path


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    binary, out = sys.argv[1], Path(sys.argv[2])
    listing = subprocess.run([binary, "--list"], check=True,
                             capture_output=True, text=True).stdout
    names = [line.split()[0] for line in listing.splitlines() if line.strip()]
    if len(names) != 4:
        print(f"expected 4 workloads, --list gave {names}", file=sys.stderr)
        return 1
    failures = 0
    for name in names:
        for traced in (False, True):
            cmd = [binary, "--workload", name, "--seconds", "0",
                   "--horizon-s", "1", "--out", str(out)]
            if traced:
                cmd.append("--traced")
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            suffix = "_traced" if traced else ""
            try:
                ledger = json.loads(
                    (out / f"ledger_{name}{suffix}.json").read_text())
                ok = (proc.returncode == 0 and ledger["failed_runs"] == 0
                      and ledger["correct"] and ledger["runs"] >= 2)
            except (OSError, ValueError, KeyError) as e:
                ok = False
                print(f"{name}{suffix}: {e}", file=sys.stderr)
            print(f"{'ok  ' if ok else 'FAIL'} {name}{suffix}")
            if not ok:
                failures += 1
                sys.stderr.write(proc.stdout + proc.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
