#!/usr/bin/env python3
"""Compare result sets of bench/e2e/run.sh against the bounds in BENCHMARK.json.

A result set is a directory holding one or more runs' <workload>.json files
(searched recursively), e.g. the --out directories of several runs.

  compare.py --repeat A B
      Two sets of runs of the same commit agree when, for every end-to-end
      metric and workload, their medians differ by no more than the metric's
      bound. Exits 0 only when every pair agrees.

  compare.py --parent P --change C
      Runs are paired by seed. A gain needs at least 10 pairs, the change
      winning at least 9 in 10 of them (ties count for neither), and a median
      difference larger than the parent's interquartile range. A regression
      is a median worse than the parent's by more than the bound. Exits 1 on
      any regression.

Both print one row per workload. A metric whose run-to-run spread (the
interquartile range as a share of the median) exceeds its bound is reported
as "unresolved" rather than as unchanged, unless every run of the change
beats every run of the parent.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_set(directory, spec):
    """{workload: [run, ...]} for every <workload>.json under directory."""
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for path in sorted(pathlib.Path(directory).rglob(f"{workload}.json")):
            run = json.loads(path.read_text())
            if run.get("end_to_end"):
                runs.setdefault(workload, []).append(run)
    return runs


def values(runs, metric):
    return [r["end_to_end"][metric]["value"] for r in runs if metric in r["end_to_end"]]


def spread(vals):
    """Interquartile range as a share of the median (0 for fewer than 2 runs)."""
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def worse_by(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`."""
    delta = change - parent if better == "lower" else parent - change
    return delta / parent


def repeat(a_dir, b_dir, spec):
    a, b = load_set(a_dir, spec), load_set(b_dir, spec)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        cells = []
        for m in spec["end_to_end"]:
            va, vb = values(a.get(workload, []), m["name"]), values(b.get(workload, []), m["name"])
            if not va or not vb:
                cells.append(f"{m['name']}: missing")
                ok = False
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            diff = abs(mb - ma) / ma
            sp = max(spread(va), spread(vb))
            if sp > m["bound"]:
                verdict = "unresolved"
            elif diff <= m["bound"]:
                verdict = "agree"
            else:
                verdict = "DIFFER"
            ok = ok and verdict == "agree"
            cells.append(f"{m['name']} {ma:.4g}|{mb:.4g} {verdict} "
                         f"(diff {diff:.1%}, spread {sp:.1%}, bound {m['bound']:.0%})")
        print(f"{workload} [{len(a.get(workload, []))}|{len(b.get(workload, []))} runs]: "
              + "; ".join(cells))
    return 0 if ok else 1


def paired(parent_runs, change_runs, metric):
    by_seed = {r["seed"]: r["end_to_end"][metric]["value"]
               for r in parent_runs if metric in r["end_to_end"]}
    return [(by_seed[r["seed"]], r["end_to_end"][metric]["value"])
            for r in change_runs if metric in r["end_to_end"] and r["seed"] in by_seed]


def parent_change(p_dir, c_dir, spec):
    p, c = load_set(p_dir, spec), load_set(c_dir, spec)
    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        cells = []
        for m in spec["end_to_end"]:
            pairs = paired(p.get(workload, []), c.get(workload, []), m["name"])
            if not pairs:
                cells.append(f"{m['name']}: missing")
                continue
            vp = [x for x, _ in pairs]
            vc = [y for _, y in pairs]
            mp, mc = statistics.median(vp), statistics.median(vc)
            wins = sum(worse_by(x, y, m["better"]) < 0 for x, y in pairs)
            q1, _, q3 = statistics.quantiles(vp, n=4) if len(vp) > 1 else (mp, mp, mp)
            worse = worse_by(mp, mc, m["better"])
            all_better = all(worse_by(x, y, m["better"]) < 0 for x in vp for y in vc)
            if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and worse < 0
                    and abs(mc - mp) > q3 - q1):
                verdict = "GAIN"
            elif all_better:
                verdict = "better in every run"
            elif max(spread(vp), spread(vc)) > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressed = True
            else:
                verdict = "within bound"
            cells.append(f"{m['name']} {mp:.4g}->{mc:.4g} {verdict} "
                         f"(worse {worse:+.1%}, wins {wins}/{len(pairs)}, bound {m['bound']:.0%})")
        print(f"{workload}: " + "; ".join(cells))
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--repeat", nargs=2, metavar=("A", "B"))
    group.add_argument("--parent", metavar="P")
    parser.add_argument("--change", metavar="C")
    args = parser.parse_args()
    spec = load_spec()
    if args.repeat:
        return repeat(*args.repeat, spec)
    if not args.change:
        parser.error("--parent needs --change")
    return parent_change(args.parent, args.change, spec)


if __name__ == "__main__":
    sys.exit(main())
