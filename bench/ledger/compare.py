#!/usr/bin/env python3
"""Compare two sets of ledger results against the bounds in BENCHMARK.json.

    python3 bench/ledger/compare.py BASE_DIR NEW_DIR

Each directory holds the untraced ledger_<workload>.json files of one set
(bench_ledger --out DIR). For every workload present in both and every
end_to_end metric of BENCHMARK.json this prints both medians, the change
toward "worse" and a verdict:

  ok          no worse than the bound allows
  worse       worse by more than the bound, with a spread inside it
  unresolved  the spread (q3 - q1 over the median, either side) exceeds
              the bound, and not every new repetition beats every base one

A workload whose new set has failed runs, or whose digest changed at the
same seed, is reported as worse. host.probe_s is printed beside each
workload so host drift can be told from a regression; it never gates.
Exits 1 when anything is worse, else 0.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(d: Path) -> dict:
    out = {}
    for f in sorted(d.glob("ledger_*.json")):
        if not f.stem.endswith("_traced"):
            led = json.loads(f.read_text())
            out[led["workload"]] = led
    return out


def spread(m: dict) -> float:
    if not m.get("value") or "q1" not in m:
        return 0.0
    return (m["q3"] - m["q1"]) / abs(m["value"])


def verdict(base: dict, new: dict, better: str, bound: float):
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new["value"] - base["value"]) / abs(base["value"])
    s = max(spread(base), spread(new))
    if s > bound:
        b, n = base.get("samples", []), new.get("samples", [])
        beats = b and n and (max(n) < min(b) if better == "lower"
                             else min(n) > max(b))
        return worse_by, s, "ok" if beats else "unresolved"
    return worse_by, s, "worse" if worse_by > bound else "ok"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(sys.argv[1])), load(Path(sys.argv[2]))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    common = [w for w in base if w in new]
    if not common:
        print("no workload appears in both directories", file=sys.stderr)
        return 2
    bad = False
    print(f"{'workload':22} {'metric':12} {'base':>12} {'new':>12} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for w in common:
        b, n = base[w], new[w]
        for m in metrics:
            name = m["name"]
            if name not in b["metrics"] or name not in n["metrics"]:
                print(f"{w:22} {name:12} missing")
                bad = True
                continue
            bm, nm = b["metrics"][name], n["metrics"][name]
            worse_by, s, v = verdict(bm, nm, m["better"], m["bound"])
            bad |= v == "worse"
            print(f"{w:22} {name:12} {bm['value']:12.6g} {nm['value']:12.6g} "
                  f"{worse_by:+9.1%} {s:7.1%} {m['bound']:6.0%}  {v}")
        if n["failed_runs"] > 0:
            print(f"{w:22} failed_runs {n['failed_runs']} of {n['runs']}  worse")
            bad = True
        if b["seed"] == n["seed"] and b["digest"] != n["digest"]:
            print(f"{w:22} digest {b['digest']} -> {n['digest']} at seed "
                  f"{b['seed']}  worse")
            bad = True
        probe = (b["metrics"].get("host.probe_s", {}).get("value"),
                 n["metrics"].get("host.probe_s", {}).get("value"))
        if None not in probe:
            print(f"{w:22} host.probe_s {probe[0]:.4g} -> {probe[1]:.4g} s "
                  "(host drift, not gated)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
