"""Compare two sets of benchmark results, workload by workload.

    python3 forgebench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds result lines as run.py appends them to
.forgebench/results.jsonl.  For every workload and end-to-end metric in
BENCHMARK.json the medians of both sets are printed with the change as a
share of the base median, flagged `WORSE` beyond the metric's bound and
`unresolved` when the base runs themselves spread wider than the bound.
Results from different kernel backends are refused: the keep-or-delete
decision on the compiled backend needs like-for-like numbers.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    rows = [json.loads(ln) for ln in Path(path).read_text().splitlines()
            if ln.strip()]
    return [r for r in rows if r["context"]["trace"] == 0 and r["correct"]]


def backends(rows):
    return {r["context"]["kernel_backend"] for r in rows}


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    mixed = backends(base) | backends(change)
    if len(mixed) > 1:
        print(f"refused: results come from different kernel backends "
              f"{sorted(mixed)}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    worse = 0
    for wl in spec["workloads"]:
        name = wl["name"]
        a = [r for r in base if r["context"]["workload"] == name]
        b = [r for r in change if r["context"]["workload"] == name]
        if not a or not b:
            print(f"{name}: no runs in {'base' if not a else 'change'}")
            continue
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a]
            vb = [r["metrics"][m["name"]]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1 if m["better"] == "lower" else -1
            delta = sign * (mb - ma) / ma
            spread = 0.0
            if len(va) >= 2:
                q1, _, q3 = statistics.quantiles(va, n=4)
                spread = (q3 - q1) / ma
            flag = ""
            if delta > m["bound"]:
                flag = "WORSE"
                worse += 1
            elif spread > m["bound"]:
                flag = "unresolved"
            print(f"{name:10s} {m['name']:12s} {ma:12.4f} -> {mb:12.4f} "
                  f"{m['unit']:6s} worse by {delta:+.1%} "
                  f"(bound {m['bound']:.0%}, base spread {spread:.1%}, "
                  f"{len(va)}/{len(vb)} runs) {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
