#!/usr/bin/env bash
# Single-entry CI gate.  Composes the verification sweep:
#
#   1. tools/verify.sh (full): tier-1 tests on the default preset, then
#      the whole suite again under ASan+UBSan and under TSan (the
#      thread pool's parallel regions and the FS* DP's per-layer regions
#      are exercised by parallel_determinism_test / parallel_cancel_test
#      on every preset), plus the README
#      strategy-table drift check — the registry is the source of truth
#      and drift fails the gate — plus the -DOVO_TRACE=OFF build's nm
#      check that the span macros compile out of the CLI entirely.
#   2. tools/verify.sh --quick: a governed smoke run of both scaling
#      benches (the FS bench under --prune bounds), asserting the JSON
#      rows carry the unified oracle ledger and the bound-pruning ledger
#      (states_pruned / prune_ratio), plus an ungoverned run of each
#      whose JSON must equal the checked-in BENCH_fs.json /
#      BENCH_quantum.json apart from "git" (the paper's counts at
#      n <= 13, pinned), plus the `ovo order --prune bounds` guard
#      against the dense default (a run proven at layer 0 prints the
#      dense size, "states":0 and a rebuildable order; a run whose seed
#      is above the optimum prints the dense order), plus the Theorem 5
#      ledger guard
#      (a 12-variable dense `ovo order --json` with no symmetric pair of
#      inputs reports 2n*3^(n-1) = 4,251,528 table cells, the same
#      positive cut_cells and the same output at --threads 1 and 4, and
#      traced, its fs.fence spans' cut_cells args sum to the JSON's; one
#      with five symmetric pairs reports the orbit DP's 849,954 cells
#      over 971 states),
#      plus the checkpoint round-trip
#      smoke: interrupt mid-DP, resume, require byte-identical JSON, and
#      require a corrupted snapshot to be rejected with exit 3, plus the
#      pooled-CRC guard (a 14-variable run with no symmetric pair
#      cancelled mid-DP at --threads 4 and 1 leaves byte-identical
#      snapshots of at least 2 MiB, and each resumes at the other thread
#      count to the straight run's JSON; a symmetric one makes the same
#      round trip through its canonical states), plus the ZDD bound
#      guard (a pruned ZDD of negated conjuncts returns the dense
#      optimum, and a tripped run certifies no more than its size; branch
#      and bound, which prunes with the same bound, returns fs's node
#      count on it and on a 14-variable BDD and ZDD), plus
#      the default-route guard (`fs`, the default, is the
#      governed ladder: --fault-cancel-at 3 ends it cancelled,
#      --work-limit 100000 at the deadline, and --checkpoint leaves a
#      `--prune-seed restarts` run's JSON unchanged), plus the
#      typed-CLI-error block (malformed formulas, a formula over 26
#      variables, bad numeric flag values, an unknown --prune-seed,
#      --strategy or --engine name, a missing input file, and BLIF netlists with an undefined signal
#      or a combinational cycle exit 1 or 2 — the BLIF errors naming the
#      signal and its line — a v2, v3, v7 or v8 snapshot exits 3 naming
#      the version skew (the payload is v9), `ovo tables --k 13` and
#      `--k 40` exit 2 while `--k 12`
#      runs, and `--strategy brute` over 11 variables, `--strategy
#      dynamic --zdd` and `--shared` on a 26-input, 2-output PLA exit 2
#      naming the limit, --resume, --checkpoint, --checkpoint-every or
#      --prune-seed with `--strategy sift`, `--strategy bnb`, `--strategy
#      quantum` or `--shared`, and --prune with a strategy that runs no
#      FS* DP, exit 2 naming the flag and the route and write no file,
#      --json-out without --json, --checkpoint-every without
#      --checkpoint, --prune-seed without --prune bounds and --fault-seed
#      without --fault-prob exit 2 naming the flag they need and write no
#      file, every value-taking flag of `order`, `compare --threads`,
#      `size --order`, `tables --k` and `tables --iters`, given `bogus`
#      or given last with no value, exits 2 with a usage error, and an
#      unknown flag of `size`, `compare`, `tables` or `dot` exits 2,
#      never with internal-check text), plus the build-stamp check (in a
#      git checkout the JSON's "git" equals `git describe --always
#      --dirty --tags`), plus the window, anneal and
#      exact-window pins (each sizes candidates from one kept prefix
#      chain: a 14-variable formula as a BDD and a ZDD prints the pinned
#      nodes, work and order with no memo hit at --threads 1 and 4),
#      plus the `ovo order
#      --trace` Chrome trace-event smoke (including a checkpointed run
#      whose fs.checkpoint spans carry each frame's `bytes` and whose
#      commits are fs.checkpoint.write spans on the writer's own lane),
#      plus
#      the fuzz frontier smoke (each OVO_FUZZ target: fixed-seed random
#      inputs + regression-corpus replay) and the trimmed CLI chaos sweep
#      (tools/chaos.sh --quick: fault-injected runs must exit with typed
#      codes, leak no temp file, and resume byte-identically).  The full
#      chaos grid runs at the end of step 1's full sweep.
#   3. An end-to-end obs-registry counter check: one `ovo order --json`
#      run must emit the registry's canonical keys — the table_cells /
#      oracle_* fields and the run-info block at schema_version 3 —
#      proving the CLI renders through the shared obs serializer, not a
#      private formatter.
#
# Any failure stops the script with a nonzero exit.
#
# Usage: tools/ci.sh [-jN]   (parallelism forwarded to build and ctest)

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="-j$(nproc)"
for arg in "$@"; do
  case "${arg}" in
    -j*) JOBS="${arg}" ;;
    *)
      echo "usage: tools/ci.sh [-jN]" >&2
      exit 2
      ;;
  esac
done

echo "#### ci: full preset sweep (default / asan / tsan) ############"
tools/verify.sh "${JOBS}"

echo "#### ci: governed bench smoke #################################"
tools/verify.sh --quick "${JOBS}"

echo "#### ci: obs registry counter surface #########################"
# The CLI's JSON must render through the shared obs serializer: registry
# keys (table_cells — NOT the pre-refactor oracle_table_cells — and the
# oracle ledger) plus the schema_version/git/build/threads run-info block,
# at the registry's current schema version.
out="$(build/tools/ovo order --strategy sift --json 'x1 & x2 | x3')"
echo "${out}" | grep -q '"table_cells":'
echo "${out}" | grep -q '"oracle_queries":'
echo "${out}" | grep -q '"oracle_memo_hits":'
echo "${out}" | grep -q '"schema_version":3'
if echo "${out}" | grep -q '"oracle_table_cells"'; then
  echo "FAIL: CLI emits the pre-obs key oracle_table_cells" >&2
  exit 1
fi

echo "#### ci green #################################################"
