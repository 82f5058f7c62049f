#!/usr/bin/env python3
"""Compare two sets of benchmark runs made with the same seeds.

    python3 perfbench/compare.py OUT_A OUT_B

OUT_A and OUT_B are ``--out`` directories of ``run.py``.  For every run
present in both (same workload, seed and trace mode) the deterministic
counters must be identical.  For each workload and end-to-end metric it
prints each set's median and spread (interquartile range over median, by
``statistics.quantiles(values, n=4)``) and how far B's median is from A's,
against the metric's bound in BENCHMARK.json.  Exits 1 when a counter
differs, a spread exceeds its bound, or B is worse
than A by more than the bound.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(out: Path) -> dict:
    runs = {}
    for path in sorted(out.glob("*/seed*-trace*.json")):
        d = json.loads(path.read_text())
        runs[d["workload"], d["seed"], d["trace"]] = d
    return runs


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (load(Path(p)) for p in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    common = sorted(set(a) & set(b))
    for key in common:
        if a[key]["counters"] != b[key]["counters"]:
            status = 1
            diff = {k for k in set(a[key]["counters"]) | set(b[key]["counters"])
                    if a[key]["counters"].get(k) != b[key]["counters"].get(k)}
            print(f"COUNTERS DIFFER {key}: {sorted(diff)}")
    print(f"{len(common)} runs in both sets; deterministic counters "
          f"{'identical' if status == 0 else 'differ'}")
    for w in sorted({k[0] for k in common}):
        seeds = [k for k in common if k[0] == w and k[2] == 0]
        if len(seeds) < 2:
            continue
        print(f"\n{w} ({len(seeds)} seeds)")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [a[k]["metrics"][name]["value"] for k in seeds]
            vb = [b[k]["metrics"][name]["value"] for k in seeds]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(va), spread(vb)
            flags = []
            if max(sa, sb) > bound:
                flags.append("SPREAD>BOUND")
            if worse > bound:
                flags.append("WORSE>BOUND")
            if flags:
                status = 1
            print(f"  {name:22s} {m['unit']:4s} A {ma:11.5g} ({sa:.3f})  B {mb:11.5g} ({sb:.3f})"
                  f"  B worse by {worse:+.3f}  bound {bound}  {' '.join(flags)}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
