#!/usr/bin/env python3
"""Compare two sets of benchmark results written by run.py --out.

    python3 simbench/compare.py --base a1.json a2.json ... \
                                --new b1.json b2.json ...

Prints, per workload and metric, each side's median over the files, the
change as a share of the base median, and whether it stays within the
bound BENCHMARK.json fixes. Refuses (exit 2) when the results were not
measured alike: every provenance field except the git revision (build
type and flags, compiler, nproc, CPU model) must agree across all files,
and all files must be untraced or all traced.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    docs = [json.loads(Path(p).read_text()) for p in paths]
    for d, p in zip(docs, paths):
        d["_path"] = p
    return docs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)

    def measured_as(d):
        prov = {k: v for k, v in d["provenance"].items() if k != "git_rev"}
        return json.dumps(dict(prov, trace=d["trace"]), sort_keys=True)

    kinds = {measured_as(d) for d in base + new}
    if len(kinds) != 1:
        print("compare: refusing to compare results measured differently:",
              file=sys.stderr)
        for d in base + new:
            print(f"  {d['_path']}: {measured_as(d)}", file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    section = "per_layer" if base[0]["trace"] else "end_to_end"
    worse_beyond = 0
    for wl in sorted({d["workload"] for d in base + new}):
        b = [d for d in base if d["workload"] == wl]
        n = [d for d in new if d["workload"] == wl]
        if not b or not n:
            print(f"{wl}: missing on one side, skipped")
            continue
        print(f"{wl}  ({len(b)} base / {len(n)} new results)")
        for name in sorted(set().union(*(d[section] for d in b + n))):
            bv = [d[section][name]["value"] for d in b if name in d[section]]
            nv = [d[section][name]["value"] for d in n if name in d[section]]
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / abs(bm) if bm else 0.0
            verdict = ""
            if name in bounds:
                m = bounds[name]
                worse = change if m["better"] == "lower" else -change
                verdict = "WORSE beyond bound" if worse > m["bound"] \
                    else "within bound"
                worse_beyond += worse > m["bound"]
            print(f"  {name:28s} {bm:14.6g} -> {nm:14.6g} "
                  f"{change:+8.2%}  {verdict}")
    return 1 if worse_beyond else 0


if __name__ == "__main__":
    sys.exit(main())
