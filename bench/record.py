"""Write the benchmark record and re-check the baseline table of ROADMAP.md.

Usage: python3 bench/record.py [--seed N] [--seconds S] [--out PATH]

Runs every workload untraced (end-to-end metrics) and traced (per-layer
metrics), then times the ROADMAP.md baseline rows in fresh processes, and
writes one JSON record (default ``bench/results/BENCH_1.json``).  Each entry
names its caches (cold or warm), gives the median, quartiles and sample
count, and the record names nproc, Python, numpy, the commit and the seed.
A baseline row whose median lies more than a tenth outside the roadmap's
figure is flagged.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import run

# (key, what the roadmap timed, its figure as (low, high) seconds, caches)
ROADMAP_BASELINE = (
    ("verify_cold_s", "verify_cosmological(), cold memo", (1.18, 1.26), "cold"),
    ("verify_warm_s", "verify_cosmological(), warm memo", (0.18, 0.18), "warm"),
    ("cosmology.verify_jobs2_s", "verify, jobs=2", (1.35, 1.35), "cold"),
    ("growth_b10_60_s", 'empirical_growth("1", base 10, 60)', (1.69, 1.69), "cold"),
    ("enumerate_16_s", "enumerating length-16 essential ancients", (0.067, 0.067), "cold"),
    ("step_147673_s", "step of the 147,673-digit base-3 iterate of 1 "
     "(the roadmap timed the private _step_text; this is the public lookandsay_step)",
     (0.005, 0.005), "warm"),
)
BASELINE_REPS = 5


def baseline() -> list[dict]:
    samples: dict[str, list[float]] = {key: [] for key, *_ in ROADMAP_BASELINE}
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=run.ROOT) as work:
        runner = run.Runner(Path(work), time.monotonic() + 600)
        rows = runner.spec(commands=[], probes={"baseline": None})
        jobs2 = runner.spec(commands=[], probes={"verify_jobs2": None})
        for _ in range(BASELINE_REPS):
            for spec in (rows, jobs2):
                for key, value in runner.child(spec)["layers"].items():
                    samples[key].append(value)
    out = []
    for key, what, (low, high), caches in ROADMAP_BASELINE:
        stats = run.summarize(samples[key])
        flag = not low * 0.9 <= stats["median"] <= high * 1.1
        out.append({"what": what, "roadmap_s": [low, high], **stats, "unit": "s",
                    "caches": caches, "differs_by_more_than_a_tenth": flag})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run.read_benchmark()["run_seconds"])
    parser.add_argument("--out", type=Path, default=run.BENCH / "results" / "BENCH_1.json")
    args = parser.parse_args(argv)
    spec = run.read_benchmark()
    record = {"env": run.environment(args.seed), "seconds": args.seconds,
              "gauge_ref_s": run.GAUGE_REF_S, "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        plain = run.run(name, args.seed, args.seconds, trace=False)
        traced = run.run(name, args.seed, args.seconds, trace=True)
        tallies = (plain["tally"], traced["tally"])
        attempted = sum(t.attempted for t in tallies)
        failed = sum(t.failed for t in tallies)
        entry = {
            "why": workload["why"],
            "end_to_end": {m: {**stats, "caches": "cold"}
                           for m, stats in run.end_to_end_metrics(plain["samples"], spec).items()},
            "raw_samples": plain["samples"],
            "fail_share": failed / attempted,
            "attempted": attempted,
            "failed": failed,
            "problems": [p for t in tallies for p in t.problems][:20],
            "per_layer": {m["name"]: {"value": (traced["layers"] or {}).get(m["name"], 0), "unit": m["unit"]}
                          for m in spec["per_layer"]},
        }
        record["workloads"][name] = entry
        wall = entry["end_to_end"]["wall_s"]
        print(f"{name}: wall_s median {wall['median']:.4f} s (n={wall['n']}), "
              f"fail_share {failed}/{attempted}", file=sys.stderr)
    record["baseline"] = baseline()
    for row in record["baseline"]:
        mark = "DIFFERS" if row["differs_by_more_than_a_tenth"] else "ok"
        print(f"baseline {row['what']}: {row['median']:.4f} s vs {row['roadmap_s']} {mark}", file=sys.stderr)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
