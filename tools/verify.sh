#!/usr/bin/env bash
# Verification sweep.
#
# Full mode (default): tier-1 tests on the default preset, then the whole
# suite again under ASan+UBSan and TSan.  Each preset configures, builds,
# and runs ctest (per-test timeout comes from the test registration:
# 300 s).  On the TSan build it then repeats CrashSim.* and
# FsFrame.WriterFaultSurfacesAsTheSerialWriteDid 20 times each, since a
# fence's snapshot commits on a thread of its own while the next layer
# computes.  Any failure stops the script.  The default preset builds with
# -DOVO_WERROR=ON in both modes, so a new compiler warning fails the
# sweep.
#
# Full mode also builds the `notrace` preset (-DOVO_TRACE=OFF) and checks
# with nm that the CLI binary references no obs::trace symbols — the
# span macros must compile out completely.
#
# Full mode finishes with the deep CLI chaos sweep (tools/chaos.sh): the
# full fault-site x event grid through main()'s exit paths.
#
# Quick mode (--quick): default preset only, plus a governed smoke run of
# the two scaling benches so the bench JSON surface is exercised too —
# the FS bench runs with --prune bounds and its rows must carry the
# pruning ledger — and an ungoverned run of each whose --json output must
# equal the checked-in BENCH_fs.json / BENCH_quantum.json byte for byte
# apart from "git" (the benches report the paper's counts only, so the
# artifacts are pinned), and a CLI guard on bound-pruned `ovo order`
# runs: on pair-sum(8), whose sift seed is proven at layer 0, the pruned
# run prints the dense nodes, "optimal":true, "states":0 and the
# incumbent it proved, and `ovo size --order` of its order rebuilds its
# nodes; on a formula whose seed is above its optimum (asserted from the
# JSON) the DP reaches its last layer and prints the dense order.  A fixed
# 12-variable formula with no symmetric pair of inputs runs through
# `ovo order --json` at --threads 1 and 4: both must report Theorem 5's
# 2n*3^(n-1) = 4,251,528 table cells, the same positive cut_cells (cells
# the DP's cut sweeps never read) and the same output apart from
# "threads", so the compaction kernel's per-thread pair tables run on
# pool threads through the CLI; traced, the fs.fence spans' cut_cells
# args must sum to the JSON's.  A 12-variable formula with five symmetric
# pairs must report its orbit count (849,954 cells over 971 states) at
# both thread counts.  A 15-variable formula with no symmetric pair
# cancelled mid-DP (--fault-cancel-at) at --threads 4 and at --threads 1
# must leave byte-identical snapshots from a fence of at least 2 MiB at
# one byte per cell, whose CRC the 4-thread run folds from pool chunks,
# and resuming each at the other thread count must print the straight
# run's JSON apart from "threads"; a 14-variable formula with six
# symmetric pairs makes the same round trip through its canonical states
# and tie sets.  A pruned ZDD of
# a function with negated conjuncts must return the dense optimum with
# `optimal` true, and a tripped run of it a lower bound no larger than
# its size; `--strategy bnb`, which prunes with the same bound, must
# return fs's node count on it and on the 14-variable formula with six
# symmetric pairs as a BDD and as a ZDD.  exact-dense's 16-input multiplier text must complete with
# its optimum under --mem-limit-mb 48, which tripped it when every cell
# was a u32, and peak below that limit plus a one-variable run's
# resident size; a v6 snapshot must be refused as a version skew.  The
# default strategy (`fs`, the same
# governed ladder as `auto`) must end cancelled on --fault-cancel-at 3,
# end at the deadline under --work-limit 100000 on the 14-variable
# formula, and print the same JSON for a `--prune bounds --prune-seed
# restarts` run with and without --checkpoint.  `--strategy sift` and
# the sift-seeded `--prune bounds` run on the 14-variable formula with six
# symmetric pairs (which proves sift's order at fence 13 of 14) must
# print their pinned order, nodes and work_units at --threads 1 and 4
# (sift sizes each step's positions from one prefix
# chain; its results and governor work are those of one chain per
# position), and so must `--strategy window`, `anneal` and
# `exact-window` on it, as a BDD and as a ZDD, with no memo hit (each
# sizes its candidates from one kept prefix chain), and a formula of
# more than 128 KiB read from standard input (`-`) must print what its
# short equivalent prints.  It runs
# malformed formulas (also on standard input, and an empty one), a
# formula over more than 26 variables, bad numeric
# flag values, an unknown --prune-seed, --strategy or --engine name, a
# missing input file, BLIF
# netlists with an undefined signal or a combinational cycle, a v2, a
# v3, a v7 and a v8 snapshot (the payload is v9), and inputs past an
# engine's limit (`--strategy
# brute` over 11 variables, `--strategy dynamic --zdd`, `--shared` on a
# 26-input, 2-output PLA), --resume, --checkpoint or --checkpoint-every
# on a route that keeps no snapshot (`--strategy sift`, `--strategy
# bnb`, `--shared`), --prune-seed on a route other than fs and auto,
# --prune on a strategy that runs no FS* DP, a flag that only qualifies
# another without it (--json-out without --json, --checkpoint-every
# without --checkpoint, --prune-seed without --prune bounds, --fault-seed
# without --fault-prob), and malformed --prune and
# --fault-fileop values through `ovo order`, an unknown flag of `ovo
# size`, `compare`, `tables` and `dot`, every value-taking flag of `ovo
# order`, `compare --threads`, `size --order`, `tables --k` and `tables
# --iters` given `bogus` and given last with no value, and `ovo tables
# --k` at 12 (runs), 13 and 40 (past Table 1's double-precision range),
# and checks each exit code (an old snapshot must name the version skew,
# a BLIF error its line and signal, an engine limit the limit, a refused
# DP-only flag the flag and the route, a lone qualifier the flag it
# needs, with no file written) and that no internal-check text reaches
# stderr.  In a git checkout the JSON's "git" must equal `git describe
# --always --dirty --tags`, since the stamp is taken at build time.
# Quick mode
# also smokes `ovo order --trace` (the exported Chrome trace must be
# valid JSON with fs.group/fs.fence/task spans and per-thread monotone
# timestamps; with --checkpoint, every fs.checkpoint span carries a
# positive `bytes` arg and is committed by exactly one
# fs.checkpoint.write of the same layer and bytes, on a lane that runs
# no fs.group, whose last span equals the snapshot file's size),
# builds the OVO_FUZZ targets for a fixed-seed random smoke
# plus corpus replay, and runs the trimmed CLI chaos sweep
# (tools/chaos.sh --quick): torn-write/fault injection through the CLI
# with typed exit codes and resume-to-identical-bytes checks.
#
# Both modes check that the strategy table in README.md (between the
# `<!-- strategies:begin -->` / `<!-- strategies:end -->` markers) matches
# `ovo --list-strategies` exactly — the registry is the source of truth,
# and the docs must not drift from it.
#
# Usage: tools/verify.sh [--quick] [-jN]
#        (parallelism forwarded to build and ctest)

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
JOBS="-j$(nproc)"
for arg in "$@"; do
  case "${arg}" in
    --quick) QUICK=1 ;;
    -j*) JOBS="${arg}" ;;
    *)
      echo "usage: tools/verify.sh [--quick] [-jN]" >&2
      exit 2
      ;;
  esac
done

# The README strategy table must be byte-equivalent (modulo column
# whitespace) to the registry's own listing.
check_strategy_table() {
  local ovo_bin="$1"
  local expected actual
  expected="$(sed -n '/<!-- strategies:begin -->/,/<!-- strategies:end -->/p' README.md |
    grep '^|' | tail -n +3 |
    sed -e 's/^| *`//' -e 's/` *| */ /' -e 's/ *|$//' |
    tr -s ' ')"
  actual="$("${ovo_bin}" --list-strategies | tr -s ' ')"
  if ! diff <(printf '%s\n' "${expected}") <(printf '%s\n' "${actual}"); then
    echo "FAIL: README.md strategy table drifted from" \
         "'ovo --list-strategies' (registry is the source of truth)" >&2
    exit 1
  fi
  echo "strategy table: README.md matches --list-strategies"
}

# Extra arguments after the preset name go to the configure step.
run_preset() {
  local preset="$1"
  shift
  echo "==== preset: ${preset} ===================================="
  cmake --preset "${preset}" "$@"
  cmake --build --preset "${preset}" "${JOBS}"
  ctest --preset "${preset}" "${JOBS}"
}

run_preset default -DOVO_WERROR=ON
check_strategy_table build/tools/ovo

if [[ "${QUICK}" -eq 1 ]]; then
  echo "==== quick: governed bench smoke ==========================="
  smoke_dir="$(mktemp -d)"
  trap 'rm -rf "${smoke_dir}"' EXIT
  build/bench/bench_fs_scaling --work-limit 200000 --prune bounds \
    --json "${smoke_dir}/fs.json"
  build/bench/bench_quantum_scaling --work-limit 200000 \
    --json "${smoke_dir}/quantum.json"
  # The governed rows must carry the unified oracle counters and (FS,
  # under --prune bounds) the bound-pruning ledger.
  grep -q '"oracle_memo_hits"' "${smoke_dir}/fs.json"
  grep -q '"oracle_memo_hits"' "${smoke_dir}/quantum.json"
  grep -q '"states_pruned"' "${smoke_dir}/fs.json"
  grep -q '"prune_ratio"' "${smoke_dir}/fs.json"
  echo "==== quick: pinned bench artifacts ========================="
  # The ungoverned sweeps print the paper's counts (Theorem 5 cells and
  # Remark 1 peak space; OptOBDD's simulated and charged cells), the
  # same on every run: a fresh run must equal the checked-in artifact
  # byte for byte once the build's "git" stamp is dropped.
  build/bench/bench_fs_scaling --json "${smoke_dir}/fs_counts.json" \
    > /dev/null
  build/bench/bench_quantum_scaling --json "${smoke_dir}/quantum_counts.json" \
    > /dev/null
  python3 - BENCH_fs.json "${smoke_dir}/fs_counts.json" \
    BENCH_quantum.json "${smoke_dir}/quantum_counts.json" <<'PY'
import re, sys
def unstamped(path):
    return re.sub(r',"git":"[^"]*"', "", open(path).read()).splitlines()
for pinned, fresh in zip(sys.argv[1::2], sys.argv[2::2]):
    want, got = unstamped(pinned), unstamped(fresh)
    for i, (w, g) in enumerate(zip(want, got)):
        assert w == g, f"{pinned} line {i + 1} drifted:\n  {w}\n  {g}"
    assert len(want) == len(got), (pinned, len(want), len(got))
    print(f"{pinned}: {len(want) - 2} rows match a fresh run")
PY
  echo "==== quick: bound-pruned runs against the dense DP ========"
  # On pair-sum(8) the sift seed's size (8) is certified at layer 0, so
  # `--prune bounds` builds no layer: it must print the dense run's
  # nodes, "optimal":true, "states":0 and the incumbent it proved, and
  # `ovo size --order` of its order must rebuild its nodes.
  smoke_fn="x1 & x2 | x3 & x4 | x5 & x6 | x7 & x8"
  field() { grep -o "\"$1\":[^,]*" | head -n 1 | cut -d: -f2; }
  build/tools/ovo order --strategy fs --prune off --json "${smoke_fn}" \
    > "${smoke_dir}/dense.json"
  build/tools/ovo order --strategy fs --prune bounds --json "${smoke_fn}" \
    > "${smoke_dir}/pruned.json"
  dense_nodes="$(field nodes < "${smoke_dir}/dense.json")"
  [[ "$(field nodes < "${smoke_dir}/pruned.json")" == "${dense_nodes}" ]]
  grep -q '"optimal":true' "${smoke_dir}/pruned.json"
  grep -q '"states":0,' "${smoke_dir}/pruned.json"
  grep -q "\"prune_upper_bound\":${dense_nodes}," "${smoke_dir}/pruned.json"
  proof_order="$(grep -o '"order":\[[0-9,]*\]' "${smoke_dir}/pruned.json" \
    | tr -dc '0-9,')"
  build/tools/ovo size --order "${proof_order}" "${smoke_fn}" \
    | grep -q "${dense_nodes} internal"
  # Where the seed is above the optimum the DP must reach its last layer,
  # and there the pruned order is the dense DP's, bit for bit.
  above_fn="(x1 ^ x5) & (x2 | x6) | x3 & !x7 & x4 | x8 & (x2 ^ x7)"
  result_fields() {
    grep -o '"nodes":[0-9]*\|"optimal":[a-z]*\|"order":\[[0-9,]*\]'
  }
  build/tools/ovo order --strategy fs --prune bounds --json "${above_fn}" \
    > "${smoke_dir}/above.json"
  (( $(field prune_upper_bound < "${smoke_dir}/above.json") > \
     $(field nodes < "${smoke_dir}/above.json") ))
  grep -q '"states_pruned"' "${smoke_dir}/above.json"
  build/tools/ovo order --strategy fs --prune off --json "${above_fn}" \
    | result_fields > "${smoke_dir}/dense.txt"
  result_fields < "${smoke_dir}/above.json" > "${smoke_dir}/pruned.txt"
  diff "${smoke_dir}/dense.txt" "${smoke_dir}/pruned.txt"
  echo "==== quick: Theorem 5 work ledger at every thread count ===="
  # A dense DP over n variables, no two of them symmetric, compacts
  # exactly 2n*3^(n-1) table cells whichever threads ran the
  # compactions: 4,251,528 at n = 12, and the whole JSON output is the
  # same at 1 and 4 threads but for "threads".
  dense_fn="x1 & !x7 | x2 & (x8 | x3) | x3 & !x9 & x4 | (x4 ^ x10) & (x5 | !x11) | x6 & !x12 & x1"
  for t in 1 4; do
    build/tools/ovo order --json --threads "${t}" "${dense_fn}" \
      | sed 's/"threads":[0-9]*/"threads":N/' > "${smoke_dir}/dense${t}.json"
    grep -q '"table_cells":4251528' "${smoke_dir}/dense${t}.json"
    grep -q '"cut_cells":[1-9]' "${smoke_dir}/dense${t}.json"
    grep -q '"states":4095' "${smoke_dir}/dense${t}.json"
    if grep -q '"sym_classes"' "${smoke_dir}/dense${t}.json"; then
      echo "FAIL: ${dense_fn} reported symmetric inputs" >&2
      exit 1
    fi
  done
  diff "${smoke_dir}/dense1.json" "${smoke_dir}/dense4.json"
  # With symmetric pairs the DP builds one state per symmetry orbit:
  # five pairs and two singletons give 3^5*2^2 - 1 = 971 states and the
  # orbit closed form's 849,954 cells, at every thread count.
  ledger_fn="x1 & x7 | x2 & x8 | x3 & x9 | (x4 ^ x10) & (x5 | !x11) | x6 & x12"
  for t in 1 4; do
    build/tools/ovo order --json --threads "${t}" "${ledger_fn}" \
      | sed 's/"threads":[0-9]*/"threads":N/' > "${smoke_dir}/ledger${t}.json"
    grep -q '"table_cells":849954' "${smoke_dir}/ledger${t}.json"
    grep -q '"states":971' "${smoke_dir}/ledger${t}.json"
    grep -q '"sym_classes":\[\[1,7\],\[2,8\],\[3,9\],\[4,10\],\[6,12\]\]' \
      "${smoke_dir}/ledger${t}.json"
  done
  diff "${smoke_dir}/ledger1.json" "${smoke_dir}/ledger4.json"
  # The cut is counted once per layer: the fs.fence spans' cut_cells
  # args add up to the run's cut_cells.
  build/tools/ovo order --json --threads 4 \
    --trace "${smoke_dir}/ledger_trace.json" "${dense_fn}" \
    > "${smoke_dir}/ledger_traced.json"
  python3 - "${smoke_dir}/ledger_trace.json" \
    "${smoke_dir}/ledger_traced.json" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
run = json.load(open(sys.argv[2]))
fences = [e for e in events if e["name"] == "fs.fence"]
assert len(fences) == 12, len(fences)
cut = sum(e["args"]["cut_cells"] for e in fences)
assert cut == run["cut_cells"] > 0, (cut, run["cut_cells"])
print(f"ledger: {cut} of {run['table_cells']} cells cut, "
      f"summed over {len(fences)} fs.fence spans")
PY
  echo "==== quick: checkpoint round-trip smoke ===================="
  # A run interrupted mid-DP (deterministic fault injection standing in
  # for SIGINT) must leave a resumable snapshot, and the resumed run's
  # JSON must be byte-identical to the uninterrupted run's — order, size,
  # and every ledger.  Dense mode: no seed stage, so any trip lands at a
  # DP layer fence.
  ckpt="${smoke_dir}/smoke.ckpt"
  build/tools/ovo order --strategy auto --prune off --json "${smoke_fn}" \
    > "${smoke_dir}/straight.json"
  build/tools/ovo order --strategy auto --prune off --json \
    --checkpoint "${ckpt}" --fault-cancel-at 3 "${smoke_fn}" \
    > "${smoke_dir}/tripped.json"
  grep -q '"outcome":"cancelled"' "${smoke_dir}/tripped.json"
  [[ -f "${ckpt}" ]]
  build/tools/ovo order --strategy auto --prune off --json \
    --resume "${ckpt}" "${smoke_fn}" > "${smoke_dir}/resumed.json"
  diff "${smoke_dir}/straight.json" "${smoke_dir}/resumed.json"
  # A corrupted snapshot must be rejected with a typed error (exit 3),
  # never resumed silently.
  printf '\xff' | dd of="${ckpt}" bs=1 seek=200 conv=notrunc 2>/dev/null
  rc=0
  build/tools/ovo order --strategy auto --prune off --json \
    --resume "${ckpt}" "${smoke_fn}" >/dev/null 2>"${smoke_dir}/err.txt" \
    || rc=$?
  [[ "${rc}" -eq 3 ]]
  grep -q 'checkpoint error' "${smoke_dir}/err.txt"
  echo "==== quick: pooled snapshot CRC through the CLI ============"
  # A 15-variable dense run with no symmetric pair, cancelled in layer 5,
  # leaves layer 4's snapshot, a 2.9 MB frame (1,365 tables of 2,048
  # one-byte cells) whose CRC the fence folds from two pool chunks at
  # --threads 4 and computes in one piece at --threads 1: the two files
  # must be the same bytes, and resuming either one at the other thread
  # count must print the straight run's JSON apart from "threads".  The
  # 14-variable formula with six symmetric pairs makes the same round trip
  # from a fence of canonical states, whose snapshot carries its classes
  # and tie sets.
  crc_dense_fn="x1 & !x8 | x2 & (x9 | x3) | x3 & !x10 & x4 | (x4 ^ x11) & (x5 | !x12) | x6 & !x13 & x1 | x7 & !x14 & x2 | x15 & !x5 & x9"
  crc_fn="x1 & x8 | x2 & x9 | x3 & x10 | (x4 ^ x11) & (x5 | !x12) | x6 & x13 | x7 & x14"
  crc_round_trip() {
    local fn="$1" cancel_at="$2" name="$3"
    crc_run() {
      build/tools/ovo order --strategy auto --prune off --json "$@" \
        "${fn}" | sed 's/"threads":[0-9]*/"threads":N/'
    }
    crc_run --threads 1 > "${smoke_dir}/${name}_straight.json"
    for t in 1 4; do
      crc_run --threads "${t}" --checkpoint "${smoke_dir}/${name}${t}.ckpt" \
        --fault-cancel-at "${cancel_at}" > "${smoke_dir}/${name}_tripped${t}.json"
      grep -q '"outcome":"cancelled"' "${smoke_dir}/${name}_tripped${t}.json"
    done
    cmp "${smoke_dir}/${name}1.ckpt" "${smoke_dir}/${name}4.ckpt"
    crc_run --threads 4 --resume "${smoke_dir}/${name}1.ckpt" \
      | diff "${smoke_dir}/${name}_straight.json" -
    crc_run --threads 1 --resume "${smoke_dir}/${name}4.ckpt" \
      | diff "${smoke_dir}/${name}_straight.json" -
  }
  crc_round_trip "${crc_dense_fn}" 3000 crc
  [[ "$(stat -c %s "${smoke_dir}/crc4.ckpt")" -ge $((2 << 20)) ]]
  crc_round_trip "${crc_fn}" 1500 crc_sym
  grep -q '"sym_classes"' "${smoke_dir}/crc_sym_straight.json"
  echo "==== quick: the ZDD pruning bound is admissible ============="
  # A ZDD suppresses the inputs no satisfying assignment sets and reaches
  # the 0-terminal through suppressed hi edges, so its pruning bound
  # counts neither: the pruned run returns the dense optimum, 5 nodes,
  # and a run the budget trips certifies no more than the size it
  # returns.
  zdd_fn="!x1 & !x2 & !x3 & (x4 | x5) & (x6 ^ x7)"
  build/tools/ovo order --zdd --prune bounds --json "${zdd_fn}" \
    > "${smoke_dir}/zdd.json"
  grep -q '"nodes":5,"optimal":true' "${smoke_dir}/zdd.json"
  build/tools/ovo order --zdd --prune bounds --json --work-limit 100 \
    "${zdd_fn}" > "${smoke_dir}/zdd_tripped.json"
  python3 - "${smoke_dir}/zdd_tripped.json" <<'PY'
import json, sys
run = json.load(open(sys.argv[1]))
assert run["outcome"] != "complete", run
assert run["lower_bound"] <= run["nodes"], run
print(f"zdd: tripped run certifies {run['lower_bound']} <= {run['nodes']}")
PY
  # Branch and bound prunes with the same bound (core::completion_bound),
  # ZDD terms included: it must return fs's node count on the ZDD probe
  # and on crc_fn as a BDD and as a ZDD.
  bnb_nodes() {
    build/tools/ovo order --json "$@" | grep -o '"nodes":[0-9]*,"optimal":true'
  }
  [[ "$(bnb_nodes --zdd --strategy bnb "${zdd_fn}")" == '"nodes":5,"optimal":true' ]]
  for kind_flag in "" --zdd; do
    want="$(bnb_nodes ${kind_flag} --strategy fs "${crc_fn}")"
    [[ -n "${want}" ]]
    [[ "$(bnb_nodes ${kind_flag} --strategy bnb "${crc_fn}")" == "${want}" ]]
  done
  echo "bnb: zdd_fn and crc_fn (BDD and ZDD) match fs's node counts"
  echo "==== quick: narrow cells fit a byte limit u32 cells trip ==="
  # The DP stores each layer's tables at the width their ids need, and
  # --mem-limit-mb admits a layer at those widths.  exact-dense's 16-input
  # multiplier text (perfbench/workloads.py, seed 5, cycle 0; no
  # symmetric pair) ended mem_limit at 767 nodes under 48 MB when every
  # cell was a u32: it must now complete with its optimum, 754 nodes, and
  # peak below the limit plus the resident size of a one-variable run.
  python3 - build/tools/ovo <<'PY'
import json, os, sys, tempfile
sys.path.insert(0, "perfbench")
import workloads
ovo = sys.argv[1]
text = next(i["text"] for i in workloads.exact_dense(5, 0, "full")
            if i["family"] == "multiplier_mid")
def run(args, stdin=""):
    """The JSON of one ovo run and the run's peak resident MiB."""
    with tempfile.TemporaryFile() as fin, tempfile.TemporaryFile() as fout:
        fin.write(stdin.encode())
        fin.seek(0)
        pid = os.fork()
        if pid == 0:
            os.dup2(fin.fileno(), 0)
            os.dup2(fout.fileno(), 1)
            os.execv(ovo, [ovo, "order", "--json", "--threads", "4"] + args)
        _, status, usage = os.wait4(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0, args
        fout.seek(0)
        return json.loads(fout.read()), usage.ru_maxrss / 1024
baseline = run(["x1"])[1]
limit = 48
got, peak = run(["--mem-limit-mb", str(limit), "-"], text)
assert got["outcome"] == "complete", got
assert got["nodes"] == 754 and got["optimal"] is True, got
assert peak < limit + baseline, (peak, baseline)
print(f"narrow cells: multiplier(16) completes at 754 nodes under "
      f"--mem-limit-mb {limit}, peak {peak:.1f} MiB "
      f"(one-variable run {baseline:.1f} MiB)")
PY
  # A v6 snapshot stores every cell as a u32: it must be refused as a
  # version skew, never misread as v7's narrow cells.
  rc=0
  build/tools/ovo order --json --resume \
    tests/data/corpus/snapshot/valid_v6_dense_hwb6_layer3.bin "${smoke_fn}" \
    > /dev/null 2> "${smoke_dir}/v6_err.txt" || rc=$?
  [[ "${rc}" -eq 3 ]]
  grep -q 'version skew' "${smoke_dir}/v6_err.txt"
  echo "==== quick: the default route is the governed ladder ======="
  # `fs`, the default strategy, runs the exact DP on the same governed
  # ladder as `auto`: a cancel at a governor poll ends the run cancelled,
  # a work limit ends it at the deadline, and a checkpoint never changes
  # what it prints (the prune seed's ledger included).
  build/tools/ovo order --json --fault-cancel-at 3 "${smoke_fn}" \
    | grep -q '"outcome":"cancelled"'
  build/tools/ovo order --strategy fs --work-limit 100000 --json \
    "${crc_fn}" | grep -q '"outcome":"deadline"'
  seeded_run() {
    build/tools/ovo order --json --prune bounds --prune-seed restarts \
      "$@" "${crc_fn}"
  }
  seeded_run > "${smoke_dir}/seeded.json"
  seeded_run --checkpoint "${smoke_dir}/seeded.ckpt" \
    | diff "${smoke_dir}/seeded.json" -
  echo "==== quick: sift by level deltas keeps its results ========="
  # Sift sizes every insertion position of a variable from one prefix
  # chain, where it used to run one memoized chain per position.  Its
  # orders, sizes and governor work must not move: `--strategy sift` and
  # the sift-seeded `--prune bounds` run on the 14-variable crc_fn print
  # the pinned order, nodes and work_units at threads 1 and 4.  The
  # pruned run certifies sift's 15 nodes at fence 13 of 14, so it prints
  # sift's order and one layer's less work than a run of every layer.
  sift_pin='"nodes":15.*"work_units":12877038,'
  sift_pin+='.*"order":\[1,8,2,9,3,10,5,12,11,4,6,13,7,14\]'
  pruned_pin='"nodes":15,"optimal":true.*"work_units":16034022,'
  pruned_pin+='.*"order":\[1,8,2,9,3,10,5,12,11,4,6,13,7,14\]'
  for t in 1 4; do
    build/tools/ovo order --json --threads "${t}" --strategy sift \
      "${crc_fn}" | grep -q "${sift_pin}"
    build/tools/ovo order --json --threads "${t}" --prune bounds \
      "${crc_fn}" | grep -q "${pruned_pin}"
  done
  echo "sift: crc_fn's sift and pruned runs match their pins at 1 and 4 threads"
  echo "==== quick: window, anneal and exact windows keep results ="
  # Window permutation, annealing and exact windows size their candidates
  # from one kept prefix chain, where each candidate used to run a whole
  # chain through an order memo.  Their orders, sizes and governor work
  # must not move, and no query is a memo hit: each strategy on crc_fn,
  # as a BDD and as a ZDD, prints its pinned nodes, work_units and order
  # with "oracle_memo_hits":0 at threads 1 and 4.
  pin_order='"order":\[1,8,2,9,3,10,4,11,5,12,6,13,7,14\]'
  for pin in "window||15|9469374|${pin_order}" \
             "window|--zdd|33|9469374|${pin_order}" \
             "anneal||15|39351966|\"order\":\[2,9,1,8,7,14,11,4,12,5,10,3,13,6\]" \
             "anneal|--zdd|33|39351966|\"order\":\[13,6,8,1,3,10,11,4,5,12,14,7,9,2\]" \
             "exact-window||15|2146332|${pin_order}" \
             "exact-window|--zdd|33|2146332|${pin_order}"; do
    IFS='|' read -r strategy kind_flag nodes work order <<< "${pin}"
    for t in 1 4; do
      build/tools/ovo order --json --threads "${t}" --strategy "${strategy}" \
        ${kind_flag} "${crc_fn}" \
        | grep -q "\"nodes\":${nodes},.*\"work_units\":${work},.*\"oracle_memo_hits\":0,.*${order}"
    done
  done
  echo "window, anneal, exact-window: crc_fn (BDD and ZDD) match their pins"
  echo "==== quick: a formula on standard input ===================="
  # `-` reads the formula from standard input, so a formula longer than
  # the 128 KiB one argument may hold reaches the CLI: 11,000 copies of
  # (x1 & x2) joined by | must print what x1 & x2 prints.
  python3 -c "print(' | '.join(['(x1 & x2)'] * 11000))" \
    > "${smoke_dir}/long_formula.txt"
  [[ "$(stat -c %s "${smoke_dir}/long_formula.txt")" -gt $((128 << 10)) ]]
  build/tools/ovo order --json - < "${smoke_dir}/long_formula.txt" \
    | diff <(build/tools/ovo order --json "x1 & x2") -
  echo "stdin: a $(stat -c %s "${smoke_dir}/long_formula.txt")-byte" \
    "formula matches x1 & x2"
  echo "==== quick: typed CLI errors ==============================="
  # A typo in a formula or a flag value, a missing input file, a BLIF
  # netlist with an undefined signal or a combinational cycle, a
  # snapshot of an older payload version, a `tables --k` past the
  # range Table 1's double-precision chain holds, or an input past an
  # engine's limit (`--strategy brute` over 11 variables, `--strategy
  # dynamic --zdd`, `--shared` on 26 inputs and 2 outputs) is the user's
  # error: each must exit with its documented code (1 input error, 2
  # usage error, 3 checkpoint error) and never surface internal-check
  # text.
  cli_checks=0
  expect_exit() {
    local want="$1" rc=0
    shift
    cli_checks=$((cli_checks + 1))
    build/tools/ovo "$@" > /dev/null 2> "${smoke_dir}/cli_err.txt" || rc=$?
    if [[ "${rc}" -ne "${want}" ]] ||
       grep -q 'check failed' "${smoke_dir}/cli_err.txt"; then
      echo "FAIL: ovo $* exited ${rc} (want ${want}):" >&2
      cat "${smoke_dir}/cli_err.txt" >&2
      exit 1
    fi
  }
  expect_cli_error() {
    local want="$1"
    shift
    expect_exit "${want}" order "$@"
  }
  expect_cli_error 1 "x1 & & x2"
  expect_cli_error 1 "x1 &"
  expect_cli_error 1 "(x1"
  # An empty formula is a parse error however it arrives: as an argument
  # or on standard input.
  expect_cli_error 1 ""
  grep -q 'column 1: unexpected end of input' "${smoke_dir}/cli_err.txt"
  expect_cli_error 1 - < /dev/null
  grep -q 'column 1: unexpected end of input' "${smoke_dir}/cli_err.txt"
  printf 'x1 & & x2' | expect_cli_error 1 -
  grep -q 'column 6' "${smoke_dir}/cli_err.txt"
  expect_cli_error 2 --node-limit -5 "${smoke_fn}"
  expect_cli_error 2 --timeout-ms -1 "${smoke_fn}"
  expect_cli_error 2 --checkpoint "${smoke_dir}/bad.ckpt" \
    --checkpoint-every -1 "${smoke_fn}"
  expect_cli_error 2 --threads 4x "${smoke_fn}"
  expect_cli_error 2 --threads abc "${smoke_fn}"
  expect_cli_error 1 "${smoke_dir}/missing.pla"
  expect_cli_error 1 x27
  expect_cli_error 1 tests/data/corpus/blif/dangling_signal.blif
  grep -q "BLIF line 4: undefined signal 'ghost'" "${smoke_dir}/cli_err.txt"
  expect_cli_error 1 tests/data/corpus/blif/combinational_cycle.blif
  grep -q "BLIF line 6: combinational cycle through 'f'" \
    "${smoke_dir}/cli_err.txt"
  expect_cli_error 2 --prune-seed bogus "${smoke_fn}"
  expect_cli_error 2 --prune bounds --prune-seed bogus "${smoke_fn}"
  expect_cli_error 2 --strategy bogus "${smoke_fn}"
  grep -q "usage error: --strategy: unknown strategy 'bogus'" \
    "${smoke_dir}/cli_err.txt"
  expect_cli_error 2 --engine bogus "${smoke_fn}"
  grep -q 'usage error: --engine' "${smoke_dir}/cli_err.txt"
  for old_snapshot in valid_dense_hwb6_layer3.bin \
                      valid_v3_dense_hwb6_layer3.bin \
                      valid_v7_dense_hwb6_layer3.bin \
                      valid_v8_dense_hwb6_layer3.bin; do
    expect_cli_error 3 --resume \
      "tests/data/corpus/snapshot/${old_snapshot}" "${smoke_fn}"
    grep -q 'version skew' "${smoke_dir}/cli_err.txt"
  done
  expect_exit 0 tables --k 12
  expect_exit 2 tables --k 13
  grep -q 'from 1 to 12' "${smoke_dir}/cli_err.txt"
  expect_exit 2 tables --k 40
  expect_cli_error 2 --zdd --strategy dynamic "x1 & x2 | x3"
  grep -q 'takes no --zdd' "${smoke_dir}/cli_err.txt"
  expect_cli_error 2 --strategy brute "${crc_fn}"
  grep -q 'at most 10 variables' "${smoke_dir}/cli_err.txt"
  printf '.i 26\n.o 2\n.p 1\n11111111111111111111111111 11\n.e\n' \
    > "${smoke_dir}/wide.pla"
  expect_cli_error 2 --shared "${smoke_dir}/wide.pla"
  grep -q 'at most 26 are supported' "${smoke_dir}/cli_err.txt"
  # Only fs and auto snapshot the exact DP: a checkpoint flag on any
  # other route is a usage error naming it, raised before anything is
  # written.
  ckpt_probe="${smoke_dir}/refused.ckpt"
  expect_refused_ckpt() {
    local route="$1"
    shift
    expect_cli_error 2 "$@" "${smoke_fn}"
    grep -q "usage error: --[a-z]*: ${route} takes no snapshot" \
      "${smoke_dir}/cli_err.txt"
    [[ ! -e "${ckpt_probe}" ]]
  }
  expect_refused_ckpt "strategy 'sift'" --strategy sift --resume "${ckpt_probe}"
  expect_refused_ckpt "strategy 'bnb'" --strategy bnb --checkpoint "${ckpt_probe}"
  expect_refused_ckpt "--shared" --shared --checkpoint "${ckpt_probe}"
  # The other flags only the exact DP reads are refused the same way on a
  # route that runs none: --checkpoint-every and --prune-seed on any
  # route but fs and auto, --prune where no FS* DP runs.  Each names the
  # flag and the route, and writes no --json-out file.
  json_probe="${smoke_dir}/refused.json"
  expect_refused_flag() {
    local flag="$1" route="$2"
    shift 2
    expect_cli_error 2 --json-out "${json_probe}" "$@" "${smoke_fn}"
    grep -q "usage error: ${flag}: ${route} " "${smoke_dir}/cli_err.txt"
    [[ ! -e "${json_probe}" ]]
  }
  expect_refused_flag --prune-seed "strategy 'sift'" \
    --strategy sift --prune bounds --prune-seed anneal
  expect_refused_flag --checkpoint-every "strategy 'bnb'" \
    --strategy bnb --checkpoint-every 3
  expect_refused_flag --prune-seed "strategy 'quantum'" \
    --strategy quantum --prune-seed window
  expect_refused_flag --prune-seed --shared --shared --prune-seed anneal
  expect_refused_flag --checkpoint-every --shared --shared --checkpoint-every 2
  expect_refused_flag --prune "strategy 'window'" --strategy window --prune bounds
  expect_refused_flag --prune "strategy 'dynamic'" --strategy dynamic --prune off
  # A flag that only qualifies another one is refused without it, after
  # the route checks and before anything is written: --json-out without
  # --json, --checkpoint-every without --checkpoint, --prune-seed without
  # --prune bounds, --fault-seed without --fault-prob.
  expect_orphan_flag() {
    local flag="$1" needs="$2"
    shift 2
    expect_cli_error 2 "$@" "${smoke_fn}"
    grep -q "usage error: ${flag}: needs ${needs}\$" "${smoke_dir}/cli_err.txt"
    [[ ! -e "${json_probe}" ]]
  }
  expect_orphan_flag --json-out --json --json-out "${json_probe}"
  expect_orphan_flag --checkpoint-every --checkpoint \
    --json --json-out "${json_probe}" --checkpoint-every 2
  expect_orphan_flag --prune-seed "--prune bounds" \
    --json --json-out "${json_probe}" --prune off --prune-seed anneal
  expect_orphan_flag --fault-seed --fault-prob \
    --json --json-out "${json_probe}" --fault-seed 7
  # Malformed --prune and --fault-fileop values, and an unknown flag of
  # any subcommand, print the usage error and the usage text.
  expect_cli_error 2 --prune bogus "${smoke_fn}"
  grep -q "usage error: --prune: expected off|bounds" "${smoke_dir}/cli_err.txt"
  expect_cli_error 2 --fault-fileop bogus:1 "${smoke_fn}"
  grep -q "usage error: --fault-fileop: expected SITE:N" \
    "${smoke_dir}/cli_err.txt"
  expect_exit 2 size --order 1,2 --bogus "x1 & x2"
  grep -q "usage error: size: unknown flag" "${smoke_dir}/cli_err.txt"
  expect_exit 2 compare --bogus "x1 & x2"
  grep -q "usage error: compare: unknown flag" "${smoke_dir}/cli_err.txt"
  expect_exit 2 tables --bogus 3
  grep -q "usage error: tables: unknown flag" "${smoke_dir}/cli_err.txt"
  expect_exit 2 dot --zdd
  grep -q "usage error: dot: unknown flag" "${smoke_dir}/cli_err.txt"
  grep -q '^usage:' "${smoke_dir}/cli_err.txt"
  # Every flag that takes a value, given one it cannot take or given last
  # with none, is a usage error.
  expect_usage() {
    expect_exit 2 "$@"
    grep -q '^usage error: ' "${smoke_dir}/cli_err.txt"
  }
  for flag in --threads --timeout-ms --node-limit --mem-limit-mb \
              --work-limit --checkpoint-every --fault-cancel-at \
              --fault-alloc-at --fault-seed --fault-prob --fault-fileop \
              --prune --prune-seed --strategy --engine; do
    expect_usage order "${flag}" bogus "${smoke_fn}"
    expect_usage order "${smoke_fn}" "${flag}"
  done
  expect_usage compare --threads bogus "${smoke_fn}"
  expect_usage compare "${smoke_fn}" --threads
  expect_usage size --order bogus "${smoke_fn}"
  expect_usage size "${smoke_fn}" --order
  for flag in --k --iters; do
    expect_usage tables "${flag}" bogus
    expect_usage tables "${flag}"
  done
  echo "typed CLI errors: ${cli_checks} invocations, no internal-check text"
  echo "==== quick: the build stamp follows the checkout ==========="
  # The stamp is taken on every build, so in a git checkout the JSON's
  # "git" is the checkout's own description.
  if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    stamp="$(build/tools/ovo order --json x1 | grep -o '"git":"[^"]*"' \
      | cut -d'"' -f4)"
    described="$(git describe --always --dirty --tags)"
    if [[ "${stamp}" != "${described}" ]]; then
      echo "FAIL: ovo stamps \"${stamp}\", git describe says" \
           "\"${described}\"" >&2
      exit 1
    fi
    echo "build stamp: ${stamp} = git describe"
  fi
  echo "==== quick: trace-span smoke ==============================="
  # A traced parallel run must export a loadable Chrome trace: valid
  # JSON, complete ("X") events only, the FS* DP's fs.group / fs.fence
  # spans and the parallel region's per-participant `task` span present,
  # and timestamps monotone within each thread lane.
  build/tools/ovo order --strategy fs --threads 2 --json \
    --trace "${smoke_dir}/trace.json" "${smoke_fn}" > /dev/null
  python3 - "${smoke_dir}/trace.json" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
assert events, "trace is empty"
names = {e["name"] for e in events}
assert {"fs.group", "fs.fence", "task"} <= names, f"missing spans: {names}"
last = {}
for e in events:
    assert e["ph"] == "X", e
    assert e["dur"] >= 0 and e["ts"] >= last.get(e["tid"], 0), e
    last[e["tid"]] = e["ts"]
print(f"trace: {len(events)} events across {len(last)} thread lanes, "
      f"spans {sorted(names)}")
PY
  # With --checkpoint, each fence's fs.checkpoint span (encode and CRC)
  # carries the frame's byte count, and its commit is one
  # fs.checkpoint.write span of the same layer and bytes on the writer's
  # own lane, where no fs.group runs.  Each commit is joined once, as an
  # fs.checkpoint.wait on the engine's lane, and the last write is the
  # snapshot file left on disk.
  build/tools/ovo order --strategy fs --threads 2 --json \
    --trace "${smoke_dir}/ckpt_trace.json" \
    --checkpoint "${smoke_dir}/traced.ckpt" "${smoke_fn}" > /dev/null
  python3 - "${smoke_dir}/ckpt_trace.json" "${smoke_dir}/traced.ckpt" <<'PY'
import json, os, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
def spans(name):
    return [e for e in events if e["name"] == name]
ckpt, writes, waits = (spans("fs.checkpoint"), spans("fs.checkpoint.write"),
                       spans("fs.checkpoint.wait"))
group_lanes = {e["tid"] for e in spans("fs.group")}
assert ckpt, "no fs.checkpoint spans"
assert all(e["args"]["bytes"] > 0 for e in ckpt), ckpt
for c in ckpt:
    mine = [w for w in writes if w["args"]["layer"] == c["args"]["layer"]]
    assert len(mine) == 1, (c, mine)
    assert mine[0]["args"]["bytes"] == c["args"]["bytes"], (c, mine)
    assert mine[0]["tid"] not in group_lanes, (mine, group_lanes)
assert len(writes) == len(ckpt), (len(writes), len(ckpt))
assert len(waits) == len(writes), (len(waits), len(writes))
assert {w["tid"] for w in waits} <= group_lanes, (waits, group_lanes)
last = max(writes, key=lambda e: e["ts"])
size = os.path.getsize(sys.argv[2])
assert last["args"]["bytes"] == size, (last, size)
print(f"trace: {len(ckpt)} fs.checkpoint spans, each committed by one "
      f"fs.checkpoint.write on its own lane; last {size} bytes = file")
PY
  echo "==== quick: fuzz-frontier smoke ============================"
  # Build the fuzz targets (standalone replay drivers under GCC,
  # libFuzzer under Clang) and give each one a fixed-seed random smoke
  # plus a replay of its regression corpus — a fast proof that the
  # OVO_FUZZ surface still compiles and the decoders reject the corpus'
  # malformed-input classes with typed errors.
  cmake --preset default -DOVO_FUZZ=ON > /dev/null
  cmake --build --preset default "${JOBS}" \
    --target fuzz_blif fuzz_pla fuzz_expr fuzz_snapshot fuzz_diagram
  for t in blif pla expr snapshot diagram; do
    build/fuzz/"fuzz_${t}" --rand 3000 --seed 7 > /dev/null
  done
  build/fuzz/fuzz_blif tests/data/corpus/blif/* > /dev/null
  build/fuzz/fuzz_pla tests/data/corpus/pla/* > /dev/null
  build/fuzz/fuzz_expr tests/data/corpus/expr/* > /dev/null
  build/fuzz/fuzz_snapshot tests/data/corpus/snapshot/* > /dev/null
  build/fuzz/fuzz_diagram tests/data/corpus/diagram/* > /dev/null
  echo "fuzz smoke: 5 targets, seeded random + corpus replay green"
  echo "==== quick: CLI chaos sweep (torn writes, typed exits) ====="
  tools/chaos.sh --quick
  echo "==== quick sweep green ====================================="
  exit 0
fi

run_preset asan
run_preset tsan

echo "==== tsan: the fence writer, repeated ======================"
# A fence's commit runs on its own thread while the next layer computes.
# Repeat the tests that cut it mid-write and fail it under a failing
# next layer, so TSan sees many interleavings of the two.
build-tsan/tests/crash_sim_test --gtest_filter='CrashSim.*' \
  --gtest_repeat=20 --gtest_brief=1
build-tsan/tests/checkpoint_test \
  --gtest_filter='FsFrame.WriterFaultSurfacesAsTheSerialWriteDid' \
  --gtest_repeat=20 --gtest_brief=1

echo "==== full: CLI chaos sweep ================================="
# The deep event grid: every checkpoint filesystem site x event 1..12,
# allocation events along a Fibonacci ladder, five probabilistic seeds.
# (The in-process sweeps — every syscall of the n=10 pipeline, torn
# writes at every cut — already ran in ctest on all three presets above,
# via fault_sweep_test and crash_sim_test.)
tools/chaos.sh

echo "==== notrace: -DOVO_TRACE=OFF symbol check ================="
# The span macros must compile to nothing: an OVO_TRACE=OFF build of the
# CLI may reference no obs::trace symbol at all, and --trace must degrade
# to a note instead of an error.
cmake --preset notrace
cmake --build --preset notrace "${JOBS}" --target ovo
if nm -C build-notrace/tools/ovo | grep -q 'obs::trace'; then
  echo "FAIL: -DOVO_TRACE=OFF binary still references obs::trace" >&2
  exit 1
fi
build-notrace/tools/ovo order --strategy fs --json \
  --trace /dev/null "x1 & x2" > /dev/null
echo "notrace: ovo binary carries no obs::trace symbols"

echo "==== all presets green ====================================="
