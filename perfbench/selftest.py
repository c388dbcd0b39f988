#!/usr/bin/env python3
"""Toy-size self-test of the ordering benchmark (n <= 8, under a minute).

    python3 perfbench/selftest.py

For every workload it asserts that
  1. every named metric is printed with its unit and sample count, and a
     clean run is correct;
  2. a planted wrong reference makes fail_ratio > 0;
  3. the counts that must repeat exactly are identical across two runs
     and across threads 1 and 4.
Exits 0 when all hold.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as R  # noqa: E402
import workloads as W  # noqa: E402

SEED = 7
EXACT_COUNTS = ("core.table_cells", "core.compactions", "core.dedup_lookups",
                "core.dedup_probes", "reorder.oracle_evals", "rt.ckpt_bytes")


def printed(lines, name, unit):
    return any((" %s " % name) in line and (" %s " % unit) in line and
               "(n=" in line for line in lines)


def counts(trace_recs):
    return {t["id"]: tuple(t["counters"].get(k, 0) for k in EXACT_COUNTS)
            for t in trace_recs}


def check_workload(w):
    res, lines, _ = R.run_workload(w, SEED, 2, 0, scale=W.TOY)
    assert res["correct"] and res["failed"] == 0, (w, res)
    for name, unit in R.END_TO_END + [("fail_ratio", "ratio")]:
        assert printed(lines, name, unit), (w, name)
    assert set(res["metrics"]) == {n for n, _ in R.END_TO_END}, w

    res, lines, first = R.run_workload(w, SEED, 2, 1, scale=W.TOY)
    assert res["correct"], (w, res)
    for name, unit in R.PER_LAYER:
        assert printed(lines, name, unit), (w, name)
    assert set(res["metrics"]) == {n for n, _ in R.PER_LAYER}, w

    bad, _, _ = R.run_workload(w, SEED, 1, 0, scale=W.TOY, plant_wrong=True)
    assert bad["failed"] > 0 and not bad["correct"], (w, bad)

    base = counts(first["trace"])
    for threads in (4, 1):
        _, _, again = R.run_workload(w, SEED, 2, 1, threads=threads,
                                     scale=W.TOY)
        other = counts(again["trace"])
        common = set(base) & set(other)
        assert common, w
        for iid in common:
            assert base[iid] == other[iid], (w, threads, iid, base[iid],
                                             other[iid])
    print("selftest %-20s ok" % w, flush=True)


def main():
    R.build()
    for w in R.WORKLOADS:
        check_workload(w)
    print("selftest: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
