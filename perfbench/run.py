#!/usr/bin/env python3
"""The ordering benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload exact-dense --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout of it).  The first run
builds the program and the helper binary into .bench_build/ and computes
the references of the seed-independent instances; later runs reuse both.

--trace 0 measures the end-to-end metrics (untraced).  --trace 1 makes a
separate traced replay and reports the per-layer metrics, with the
tracing overhead against an untraced pass over the same instances.
The last line of standard output is the JSON result; the lines before it
are the same numbers for people, with units and sample counts.

See NOTES.md for why each workload exists and which per-layer metric
should move which end-to-end metric.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as W  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORK = BUILD / "work"
OVO = BUILD / "program" / "tools" / "ovo"
PROBE = BUILD / "probe"
REFS = BUILD / "refs.json"
THREADS = 4
# Set-up samples per cycle (batch-small: three per stream segment), taken
# between segments so that they spread over the run like the solves do.
SETUP_SAMPLES = 6
MIN_CYCLES = 3
# The traced replay makes the same calls on every workload, so every
# layer is measured on every workload's inputs.  These spans are the
# solve itself; the tracing overhead compares their sum with the
# untraced solve time.
SOLVE_SPANS = {
    "exact-dense": ("tt.load", "core.fs_minimize"),
    "exact-pruned": ("tt.load", "reorder.seed", "core.fs_minimize"),
    "exact-checkpointed": ("tt.load", "reorder.auto"),
    "batch-small": ("tt.load", "core.fs_minimize", "reorder.sift",
                    "obs.render"),
}

# Generator, ovo flags (None: --checkpoint per instance), and the seconds
# one cycle takes on the 4-core reference machine.  A run is a fixed
# number of whole cycles, --seconds / that time, so every run has the
# same instance count (the tail's rank depends on it).
EXACT = {
    "exact-dense": (W.exact_dense, [], 4.0),
    "exact-pruned": (W.exact_pruned, ["--prune", "bounds"], 4.0),
    "exact-checkpointed": (W.exact_checkpointed, None, 5.0),
}
WORKLOADS = list(EXACT) + ["batch-small"]
BATCH_BASES = 48
# batch-small runs as this many stream processes of equal length, one
# after another; per-segment figures are combined by their median, so
# one process that lands on a busy stretch of the machine does not move
# the result.
BATCH_SEGMENTS = 10
# Instances per second of --seconds that batch-small streams (about its
# rate on the reference machine); fixed, so every run solves the same
# count.
BATCH_RATE = 75

END_TO_END = [("solve_s.p50", "s"), ("solve_s.tail", "s"),
              ("instances_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("ok_ratio", "ratio"),
              ("size_over_opt", "ratio")]
PER_LAYER = [
    ("tt.load_s", "s"), ("tt.load_share", "ratio"),
    ("core.dp_s", "s"), ("core.ns_per_cell", "ns"),
    ("core.kernel_ns_per_cell", "ns"), ("core.table_cells", "count"),
    ("core.compactions", "count"), ("core.peak_cells", "count"),
    ("core.prune.ratio", "ratio"), ("core.prune.surviving", "count"),
    ("core.prune.sparse_cells", "count"),
    ("ds.probes_per_lookup", "ratio"), ("ds.hit_ratio", "ratio"),
    ("reorder.seed_s", "s"), ("reorder.oracle_evals", "count"),
    ("reorder.memo_hit_ratio", "ratio"), ("reorder.ns_per_cell", "ns"),
    ("reorder.sift_s", "s"),
    ("par.graphs", "count"), ("par.tasks", "count"),
    ("par.barrier_wait_s", "s"), ("par.overlap_s", "s"),
    ("par.cpu_util", "ratio"), ("par.speedup", "ratio"),
    ("rt.ckpt_count", "count"), ("rt.ckpt_bytes", "bytes"),
    ("rt.ckpt_overhead_s", "s"), ("rt.write_s", "s"), ("rt.load_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Build, build guard, run-info


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("program sources not found under %s" % ROOT)
    BUILD.mkdir(exist_ok=True)
    logf = BUILD / "build.log"
    with open(logf, "a") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD)],
                           stdout=out, stderr=subprocess.STDOUT, check=False)
        r = subprocess.run(["cmake", "--build", str(BUILD), "-j",
                            str(os.cpu_count() or THREADS)],
                           stdout=out, stderr=subprocess.STDOUT, check=False)
    if r.returncode != 0 or not OVO.exists() or not PROBE.exists():
        raise BenchError("build failed; see %s" % logf)


def probe_lines(args):
    r = subprocess.run([str(PROBE)] + [str(a) for a in args],
                       capture_output=True, text=True, check=False)
    if r.returncode != 0:
        raise BenchError("probe %s failed: %s" % (args[0], r.stderr.strip()))
    return [json.loads(x) for x in r.stdout.splitlines() if x.strip()]


def cmake_cache(path, key):
    try:
        for line in open(path):
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def mount_fstype(path):
    best, fstype = "", "unknown"
    try:
        for line in open("/proc/self/mountinfo"):
            left, right = line.split(" - ", 1)
            mnt = left.split()[4]
            p = str(path)
            if (p == mnt or p.startswith(mnt.rstrip("/") + "/")) and \
                    len(mnt) >= len(best):
                best, fstype = mnt, right.split()[0]
    except OSError:
        pass
    return fstype


def run_info(threads):
    """Stamp for every result; refuses Debug and sanitizer builds."""
    info = probe_lines(["info", threads])[0]
    program_cache = BUILD / "program" / "CMakeCache.txt"
    build_type = cmake_cache(program_cache, "CMAKE_BUILD_TYPE")
    sanitize = cmake_cache(program_cache, "OVO_SANITIZE")
    if build_type.lower() == "debug" or info["build"].lower() == "debug":
        raise BenchError("refusing to time a Debug build")
    if sanitize not in ("", "OFF") or info["sanitizer"] or not info["ndebug"]:
        raise BenchError("refusing to time a sanitizer or assert build")
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git = info["git"]
    if git == "unknown":
        r = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                            "--dirty", "--tags"], capture_output=True,
                           text=True, check=False)
        git = r.stdout.strip() or "unknown (not a git checkout)"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "compiler": "gcc " + info["compiler"], "build": build_type,
            "ovo_trace": bool(info["ovo_trace"]), "git": git,
            "threads": threads, "snapshot_fs": mount_fstype(WORK)}


# ---------------------------------------------------------------------------
# Instances on disk


def write_instances(insts, sub):
    """Writes each instance's text and truth table, then flushes them, so
    the kernel's writeback does not overlap a timed region."""
    d = WORK / sub
    d.mkdir(parents=True, exist_ok=True)
    ext = {"formula": ".txt", "pla": ".pla", "blif": ".blif"}
    for inst in insts:
        inst["text_path"] = d / (inst["id"] + ext[inst["format"]])
        inst["tt_path"] = d / (inst["id"] + ".tt")
        inst["text_path"].write_text(inst["text"])
        inst["tt_path"].write_text("%d\n%s\n" % (
            inst["n"], W.table_bits(inst["table"], inst["n"])))
    os.sync()


def write_manifest(insts, path):
    with open(path, "w") as f:
        for i in insts:
            f.write("%s %s %s %s %s\n" % (i["id"], i["format"],
                                          i["text_path"], i["tt_path"],
                                          i["kind"]))


# ---------------------------------------------------------------------------
# Independent references


def load_refs():
    try:
        return json.loads(REFS.read_text())
    except (OSError, ValueError):
        return {}


def rebuild_sizes(items):
    """Sizes of (tt_path, kind, order) rebuilt by a bdd/zdd manager."""
    if not items:
        return []
    lst = WORK / "check.lst"
    with open(lst, "w") as f:
        for tt, kind, order in items:
            f.write("%s %s %s\n" % (tt, kind,
                                    ",".join(str(v) for v in order) or "0"))
    return probe_lines(["check", lst])


def ref_key(inst):
    """Cache key of a searched reference: the kind and the function under
    the identity labelling (every relabelling has the same optimum)."""
    bits = W.table_bits(inst["canon"], inst["n"])
    return "%s-%d-%s" % (inst["kind"], inst["n"],
                         hashlib.sha1(bits.encode()).hexdigest()[:20])


def resolve_refs(insts, plant_wrong=False):
    """Fills inst['ref'] and inst['ref_source'] outside any timed region.

    Closed forms: read-once AND/OR/NOT formulas and pair-sum(m) have an
    optimum of n internal nodes (one per variable).  Symmetric functions
    have the same size under every order, so one manager rebuild is the
    optimum.  Everything else comes from branch-and-bound, cached by
    ref_key in .bench_build/refs.json."""
    refs = load_refs()
    todo = {}
    for i in insts:
        if i["canon"] is not None:
            i["ref_key"] = ref_key(i)
            if i["ref_key"] not in refs:
                todo.setdefault(i["ref_key"], i)
    for kind in ("bdd", "zdd"):
        group = [(k, i) for k, i in todo.items() if i["kind"] == kind]
        if not group:
            continue
        out = probe_lines(["ref", kind] + [i["tt_path"] for _, i in group])
        for (key, _), r in zip(group, out):
            if not r["optimal"]:
                raise BenchError("reference search did not complete: " + key)
            refs[key] = r["nodes"]
    sym = [i for i in insts if i["symmetric"]]
    for i, r in zip(sym, rebuild_sizes(
            [(i["tt_path"], i["kind"], list(range(1, i["n"] + 1)))
             for i in sym])):
        i["ref"], i["ref_source"] = r["nodes"], "symmetric"
    for i in insts:
        if i["closed"] is not None:
            i["ref"], i["ref_source"] = i["closed"], "closed-form"
        elif i["canon"] is not None:
            i["ref"], i["ref_source"] = refs[i["ref_key"]], "bnb"
        if plant_wrong:
            i["ref"] += 1
    if todo:
        tmp = REFS.with_suffix(".tmp")
        tmp.write_text(json.dumps(refs, sort_keys=True))
        tmp.replace(REFS)


def ensure_fixed_refs():
    """References of the exact workloads' searched functions, which do not
    depend on the seed: computed once per checkout right after the build
    (bnb takes seconds at n = 16-18)."""
    insts = []
    for gen, _, _ in EXACT.values():
        insts += [i for i in gen(0, 0, W.FULL) if i["canon"] is not None]
    refs = load_refs()
    missing = [i for i in insts if ref_key(i) not in refs]
    if missing:
        write_instances(missing, "fixed")
        resolve_refs(missing)


# ---------------------------------------------------------------------------
# Measurement


def spawn_timed(argv):
    """Runs argv; returns (wall_s, peak_rss_mb, exit code, stdout)."""
    t0 = time.monotonic()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.monotonic() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return (wall, ru.ru_maxrss / 1024.0, p.returncode,
            out.decode(errors="replace"))


def setup_times(manifest, threads, count=SETUP_SAMPLES):
    """Fresh processes that start like the program: static init, read the
    inputs of one segment, start the worker pool.  Seconds to ready."""
    out = []
    for _ in range(count):
        t0 = time.monotonic_ns()
        line = probe_lines(["ready", threads, manifest])[0]
        out.append((line["ready_ns"] - t0) / 1e9)
    return out


def ovo_argv(workload, inst, threads):
    flags = EXACT[workload][1]
    if flags is None:
        flags = ["--checkpoint", str(WORK / "ckpt" / (inst["id"] + ".snap"))]
    arg = inst["text"] if inst["format"] == "formula" else inst["text_path"]
    return [str(OVO), "order", "--json", "--threads", str(threads)] + \
        flags + [str(arg)]


def run_ovo(workload, inst, threads):
    wall, rss, code, out = spawn_timed(ovo_argv(workload, inst, threads))
    snap = WORK / "ckpt" / (inst["id"] + ".snap")
    if snap.exists():
        snap.unlink()
    rec = {"inst": inst, "wall": wall, "rss": rss, "exit": code}
    try:
        rec["report"] = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        rec["report"] = None
    return rec


def exact_loop(workload, seed, seconds, threads, scale):
    """Closed loop, one client: each instance is a fresh `ovo order`.
    Whole cycles only, so every run holds the same mix of functions.
    Returns the records and the set-up samples taken after each cycle."""
    gen, _, cycle_s = EXACT[workload]
    (WORK / "ckpt").mkdir(parents=True, exist_ok=True)
    recs, setup = [], []
    for cycle in range(max(MIN_CYCLES, round(seconds / cycle_s))):
        insts = gen(seed, cycle, scale)
        write_instances(insts, "c%d" % cycle)
        for inst in insts:
            recs.append(run_ovo(workload, inst, threads))
            recs[-1]["segment"] = cycle
        manifest = WORK / ("setup%d.lst" % cycle)
        write_manifest(insts, manifest)
        setup += setup_times(manifest, threads)
    return recs, setup


def batch_stream(seed, seconds, threads, scale, segments=BATCH_SEGMENTS,
                 setup_per_segment=3):
    """batch-small: the seeded stream through `segments` successive
    `probe stream` processes, each streaming its share like a library
    caller; returns the per-instance records and set-up samples."""
    bases = W.batch_bases(seed, BATCH_BASES, scale)
    # Whole repetitions of the bases per segment, so every segment has
    # the same mix.
    reps = max(1, round(seconds * BATCH_RATE / segments / len(bases)))
    share = reps * len(bases)
    total = share * segments
    insts = [W.batch_instance(k % len(bases), k // len(bases),
                              bases[k % len(bases)], seed)
             for k in range(total)]
    write_instances(insts, "stream")
    recs, setup = [], []
    for seg in range(segments):
        part = insts[seg * share:(seg + 1) * share]
        manifest = WORK / ("stream%d.lst" % seg)
        write_manifest(part, manifest)
        # The time cap only guards against a hung or very slow machine.
        _, rss, code, out = spawn_timed(
            [str(PROBE), "stream", str(threads), str(manifest),
             str(5.0 * seconds / segments)])
        lines = [json.loads(x) for x in out.splitlines() if x.strip()]
        by_id = {i["id"]: i for i in part}
        if code != 0 or len(lines) < 2:
            raise BenchError("stream process failed (exit %d)" % code)
        for line in lines[1:]:
            recs.append({"inst": by_id[line["id"]], "rss": rss, "exit": code,
                         "wall": line.get("ns", 0) / 1e9, "segment": seg,
                         "report": line.get("exact"),
                         "heuristic": line.get("heuristic")})
        setup += setup_times(manifest, threads, setup_per_segment)
    return recs, setup


# ---------------------------------------------------------------------------
# Correctness


def check(recs, plant_wrong=False):
    """Counts failures; fills rec['ok'].  A failure is an exception or
    non-zero exit, a non-`complete` outcome, a non-permutation, a size
    that differs from the independent reference, or an order whose
    rebuilt diagram has another size than reported."""
    insts = {r["inst"]["id"]: r["inst"] for r in recs}
    resolve_refs(list(insts.values()), plant_wrong)
    rebuild = []
    for r in recs:
        for key in ("report", "heuristic"):
            rep = r.get(key)
            if rep is not None:
                rebuild.append((r, key))
    sizes = rebuild_sizes([(r["inst"]["tt_path"], r["inst"]["kind"],
                            r[key]["order"]) for r, key in rebuild])
    got = {}
    for (r, key), s in zip(rebuild, sizes):
        got[(id(r), key)] = s
    failed = 0
    for r in recs:
        inst, rep = r["inst"], r["report"]
        ok = (r["exit"] == 0 and rep is not None and
              rep.get("outcome") == "complete" and rep.get("optimal") and
              rep.get("nodes") == inst["ref"])
        for key in ("report", "heuristic"):
            if ok and r.get(key) is not None:
                s = got[(id(r), key)]
                ok = s["permutation"] and s["nodes"] == r[key]["nodes"]
        if ok and r.get("heuristic") is not None:
            ok = r["heuristic"]["nodes"] >= inst["ref"]
        r["ok"] = bool(ok)
        failed += 0 if ok else 1
    return failed


# ---------------------------------------------------------------------------
# Metrics


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[0], 0.0
    return v[n - 11], 100.0 * (n - 10) / n


def geomean(xs):
    return math.exp(statistics.fmean(math.log(x) for x in xs)) if xs else 1.0


def end_to_end(recs, setup, failed):
    """The tail pools every instance of the run.  The median, throughput
    and peak memory are taken per segment (a cycle of the exact workloads,
    a stream process of batch-small) and combined by their median."""
    walls = [r["wall"] for r in recs]
    t, pct = tail(walls)
    segs = {}
    for r in recs:
        segs.setdefault(r["segment"], []).append(r)
    ratios = []
    for r in recs:
        rep = r.get("heuristic") or r["report"]
        ref = r["inst"]["ref"]
        if rep is not None and ref > 0 and rep["nodes"] > 0:
            ratios.append(rep["nodes"] / ref)
    m = {
        "solve_s.p50": (statistics.median(
            statistics.median(r["wall"] for r in g) for g in segs.values()),
            len(walls)),
        "solve_s.tail": (t, len(walls)),
        "instances_per_s": (statistics.median(
            len(g) / sum(r["wall"] for r in g) for g in segs.values()),
            len(walls)),
        "peak_rss_mb": (statistics.median(
            max(r["rss"] for r in g) for g in segs.values()), len(segs)),
        "setup_s": (statistics.median(setup), len(setup)),
        "ok_ratio": (1.0 - failed / len(recs), len(recs)),
        "size_over_opt": (geomean(ratios), len(ratios)),
    }
    return m, "p%.1f" % pct


def self_times(spans):
    """Per span name: (total, self) seconds; self = span minus the part
    its direct children cover (children are sequential here)."""
    child = [0] * len(spans)
    for name, parent, ns in spans:
        if parent >= 0:
            child[parent] += ns
    out = {}
    for k, (name, parent, ns) in enumerate(spans):
        tot, slf = out.get(name, (0.0, 0.0))
        out[name] = (tot + ns / 1e9, slf + (ns - child[k]) / 1e9)
    return out


def per_layer(workload, trace_recs, untraced_s, threads):
    k = len(trace_recs)
    span = {}
    cnt = {}
    for r in trace_recs:
        for name, (tot, slf) in self_times(r["spans"]).items():
            a, b = span.get(name, (0.0, 0.0))
            span[name] = (a + tot, b + slf)
        for key, v in r["counters"].items():
            cnt[key] = cnt.get(key, 0.0) + v

    def s(name):
        return span.get(name, (0.0, 0.0))[0]

    def c(key):
        return cnt.get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    dp = s("core.fs_minimize")
    m = {
        "tt.load_s": s("tt.load") / k,
        "tt.load_share": ratio(s("tt.load"), s("instance")),
        "core.dp_s": dp / k,
        "core.ns_per_cell": ratio(1e9 * dp, c("core.table_cells")),
        "core.kernel_ns_per_cell": ratio(1e9 * s("core.kernel"),
                                         c("core.kernel_cells")),
        "core.table_cells": c("core.table_cells") / k,
        "core.compactions": c("core.compactions") / k,
        "core.peak_cells": c("core.peak_cells") / k,
        "core.prune.ratio": c("core.prune.ratio") / k,
        "core.prune.surviving": c("core.prune.surviving") / k,
        "core.prune.sparse_cells": c("core.prune.sparse_cells") / k,
        "ds.probes_per_lookup": ratio(c("core.dedup_probes"),
                                      c("core.dedup_lookups")),
        "ds.hit_ratio": ratio(c("core.dedup_hits"), c("core.dedup_lookups")),
        "reorder.seed_s": s("reorder.seed") / k,
        "reorder.oracle_evals": c("reorder.oracle_evals") / k,
        "reorder.memo_hit_ratio": ratio(c("reorder.memo_hits"),
                                        c("reorder.queries")),
        "reorder.ns_per_cell": ratio(1e9 * s("reorder.seed"),
                                     c("reorder.seed_cells")),
        "reorder.sift_s": s("reorder.sift") / k,
        "par.graphs": c("par.graphs") / k,
        "par.tasks": c("par.tasks") / k,
        "par.barrier_wait_s": c("par.barrier_wait_ns") / 1e9 / k,
        "par.overlap_s": c("par.overlap_ns") / 1e9 / k,
        "par.cpu_util": ratio(c("par.cpu_s"), c("par.wall_s") * threads),
        "par.speedup": ratio(s("core.fs_minimize.serial"),
                             s("core.fs_minimize")),
        "rt.ckpt_count": c("rt.ckpt_count") / k,
        "rt.ckpt_bytes": c("rt.ckpt_bytes") / k,
        "rt.ckpt_overhead_s": (s("reorder.auto") + s("core.fs_minimize.ckpt")
                               - s("core.fs_minimize.barrier")) / k,
        "rt.write_s": s("rt.write") / k,
        "rt.load_s": s("rt.load") / k,
        "trace.overhead_ratio": ratio(
            sum(s(x) for x in SOLVE_SPANS[workload]), untraced_s) - 1.0,
    }
    return m, span


def traced(workload, seed, seconds, threads, scale, plant_wrong):
    """Untraced pass and traced replay over the same instances."""
    if workload == "batch-small":
        recs, _ = batch_stream(seed, seconds / 6.0, threads, scale, 1, 0)
        insts = [r["inst"] for r in recs]
        untraced = sum(r["wall"] for r in recs)
    else:
        insts = EXACT[workload][0](seed, 0, scale)
        write_instances(insts, "c0")
        (WORK / "ckpt").mkdir(parents=True, exist_ok=True)
        recs = [run_ovo(workload, i, threads) for i in insts]
        untraced = sum(r["wall"] for r in recs)
    manifest = WORK / "trace.lst"
    write_manifest(insts, manifest)
    scratch = WORK / "ckpt"
    scratch.mkdir(parents=True, exist_ok=True)
    trace_recs = probe_lines(["trace", threads, workload, manifest, scratch])
    failed = check(recs, plant_wrong)
    by_id = {i["id"]: i for i in insts}
    for t in trace_recs:  # the replay's own answers are checked too
        if int(t["counters"]["nodes"]) != by_id[t["id"]]["ref"]:
            failed += 1
    return recs, trace_recs, untraced, failed


def input_lines(workload, recs, trace_recs=None):
    """Input properties and their share: per (family, n, format, kind),
    the count and share of solve time, plus the traced prune ratio and
    tt share.  Every instance also goes to work/instances.jsonl."""
    by_id = {t["id"]: t for t in trace_recs or []}
    total = sum(r["wall"] for r in recs)
    groups = {}
    with open(WORK / "instances.jsonl", "w") as f:
        for r in recs:
            i = r["inst"]
            row = {k: i[k] for k in ("id", "family", "n", "format", "kind",
                                     "ref", "ref_source")}
            row.update(wall_s=r["wall"], rss_mb=r["rss"], ok=r["ok"])
            t = by_id.get(i["id"])
            if t is not None:
                row["prune_ratio"] = t["counters"].get("core.prune.ratio", 0)
                spans = self_times(t["spans"])
                row["tt_share"] = spans["tt.load"][0] / spans["instance"][0]
            f.write(json.dumps(row) + "\n")
            groups.setdefault((i["family"], i["n"], i["format"], i["kind"]),
                              []).append(row)
    out = ["%s inputs: %-15s %3s %-7s %-4s %6s %9s %11s %8s" % (
        workload, "family", "n", "format", "kind", "count", "time_share",
        "prune_ratio", "tt_share")]
    for (fam, n, fmt, kind), rows in sorted(groups.items()):
        share = sum(x["wall_s"] for x in rows) / total

        def mean(key):
            vals = [x[key] for x in rows if key in x]
            return "%.4f" % statistics.fmean(vals) if vals else "-"
        out.append("%s inputs: %-15s %3d %-7s %-4s %6d %9.4f %11s %8s" % (
            workload, fam, n, fmt, kind, len(rows), share,
            mean("prune_ratio"), mean("tt_share")))
    return out


def run_workload(workload, seed, seconds, trace, threads=THREADS,
                 scale=W.FULL, plant_wrong=False):
    """One benchmark run; returns (result dict, report lines, details)."""
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir(parents=True)
    info = run_info(threads)
    lines = ["run_info: " + json.dumps(info, sort_keys=True)]
    if trace:
        recs, trace_recs, untraced, failed = traced(
            workload, seed, seconds, threads, scale, plant_wrong)
        metrics, span = per_layer(workload, trace_recs, untraced, threads)
        attempted = len(recs) + len(trace_recs)
        lines.append("%s traced replay: %d instances (untraced pass %.3f s)"
                     % (workload, len(trace_recs), untraced))
        lines.append("  %-28s %12s %12s" % ("span", "total_s", "self_s"))
        for name, (tot, slf) in sorted(span.items()):
            lines.append("  %-28s %12.6f %12.6f" % (name, tot, slf))
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in PER_LAYER}
        for name, unit in PER_LAYER:
            lines.append("  %-28s %14.6g %-6s (n=%d)" % (
                name, metrics[name], unit, len(trace_recs)))
        lines += input_lines(workload, recs, trace_recs)
        details = {"recs": recs, "trace": trace_recs}
    else:
        if workload == "batch-small":
            recs, setup = batch_stream(seed, seconds, threads, scale)
        else:
            recs, setup = exact_loop(workload, seed, seconds, threads, scale)
        failed = check(recs, plant_wrong)
        attempted = len(recs)
        metrics, pct = end_to_end(recs, setup, failed)
        out = {}
        for name, unit in END_TO_END:
            value, n = metrics[name]
            out[name] = {"value": value, "unit": unit}
            extra = " at %s" % pct if name == "solve_s.tail" else ""
            lines.append("%s %-16s %14.6g %-6s (n=%d%s)" % (
                workload, name, value, unit, n, extra))
        lines.append("%s %-16s %14.6g %-6s (n=%d; wrong, exceptions and "
                     "non-complete outcomes over attempted)" % (
                         workload, "fail_ratio", failed / attempted, "ratio",
                         attempted))
        lines += input_lines(workload, recs)
        details = {"recs": recs}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": out}
    return result, lines, details


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        ensure_fixed_refs()
        result, lines, _ = run_workload(args.workload, args.seed,
                                        args.seconds, args.trace)
    except BenchError as e:
        print("perfbench: error: %s" % e, file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
