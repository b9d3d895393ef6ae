#!/usr/bin/env python3
"""Build bench_ledger from this checkout and run one workload.

    python3 bench/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
ledger package (bench/ledger/CMakeLists.txt, Release) under
$CARGO_TARGET_DIR/ledger, default .bench_build/ledger; later calls only
re-check the build. The binary's own report goes to stderr; the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics, where metrics holds every end_to_end metric of BENCHMARK.json
(--trace 0) or every per_layer metric (--trace 1).
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build(out: Path) -> Path:
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(out), "--target", "bench_ledger",
                    "-j", "4"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out / "bench_ledger"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: no simulator sources under {ROOT / 'src'}; run from "
              "a full checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "ledger"
    try:
        binary = build(out)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    results = out / "results"
    ledger_file = results / (f"ledger_{args.workload}"
                             f"{'_traced' if args.trace else ''}.json")
    ledger_file.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(results)]
    if args.trace:
        cmd.append("--traced")
    try:
        subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        ledger = json.loads(ledger_file.read_text())
    except (subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"run.py: bench_ledger produced no ledger: {e}", file=sys.stderr)
        return 2

    correct = bool(ledger["correct"]) and ledger["failed_runs"] == 0
    metrics = {}
    for m in wanted:
        got = ledger["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            if not correct:
                continue  # a failed traced run leaves its rows out
            print(f"run.py: ledger lacks {m['name']} in {m['unit']}",
                  file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": correct, "attempted": ledger["runs"],
                      "failed": ledger["failed_runs"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
