#!/usr/bin/env bash
# Chaos matrix for the real UDP runtime: seven scenario families, each a
# full drrg_cli --transport udp cluster run (n forked drrg_node
# processes on localhost) that must end with every survivor's folded
# value bit-exactly equal to the simulator-derived truth:
#
#   clean            no adversity (also checked on the count aggregate:
#                    every one of the n founders must be folded exactly once)
#   loss+corrupt     Bernoulli datagram drops + single-byte corruption
#                    (the wire checksum must reject every corrupted frame;
#                    also checked on count: an orphan promoted away from a
#                    parent that is alive but unreachable over the lossy
#                    link must retract its subtree, not be folded twice)
#   dup+reorder      duplicated datagrams + bounded-span reordering
#                    (per-peer dedup + idempotent handlers)
#   delay            heavy-tailed per-datagram latency (backoff, not loss)
#   block-kill       a correlated rack outage delivered as real SIGKILLs
#                    by the cluster parent at the scheduled wall mark
#   partition-heal   an id-space cut that heals mid-run; survivors must
#                    re-converge across the healed boundary
#   join             mid-run arrivals: late-spawned processes bootstrap
#                    into a running cluster without polluting the fold
#
#   tools/udp_chaos.sh [build-dir]
#
# Knobs (env): N=48 SEED=42 HARD_S=180 (per-family hard timeout), OUT
# (artifact directory; default a temp dir, removed on success, kept --
# with per-node NodeReport JSON dumps -- on failure).  FAMILIES may name
# a subset ("clean join") for local iteration.
set -euo pipefail

BUILD="${1:-build}"
N="${N:-48}"
SEED="${SEED:-42}"
HARD_S="${HARD_S:-180}"

if [[ ! -x "$BUILD/drrg_cli" ]]; then
  echo "udp_chaos: $BUILD/drrg_cli not built" >&2
  exit 2
fi

keep_out=0
if [[ -n "${OUT:-}" ]]; then
  out="$OUT"
  keep_out=1
  mkdir -p "$out"
else
  out="$(mktemp -d)"
fi

# Reap stragglers on any exit: drrg_cli forks one process per node and
# reaps them itself, but an interrupted matrix must not leave a cluster
# (or its timeout wrapper) behind.
cleanup() {
  local live
  live="$(jobs -pr)"
  if [[ -n "$live" ]]; then
    # shellcheck disable=SC2086  # pid list is intentionally word-split
    kill $live 2>/dev/null || true
    wait 2>/dev/null || true
  fi
  if ((!keep_out)) && [[ "$fail" == 0 ]]; then rm -rf "$out"; fi
}
fail=0
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# run_family NAME AGG [cli-args...]: one cluster run, then the verdict.
# The cli's --json line already carries the comparison: `truth` is the
# exact aggregate over the simulator's survivor (or founder) mask for
# the same (seed, schedule), so value == truth IS the bit-exactness
# assertion, and `consensus` certifies every survivor reported the same
# fold.  Per-node NodeReport JSON lands in $out/NAME/ for post-mortems.
run_family() {
  local name="$1" agg="$2"
  shift 2
  local dir="$out/$name"
  mkdir -p "$dir"
  echo "udp_chaos: [$name] n=$N seed=$SEED agg=$agg $*"
  if ! DRRG_UDP_REPORT_DIR="$dir" timeout -k 10 "$HARD_S" \
      "$BUILD/drrg_cli" --algo drr --agg "$agg" --n "$N" --seed "$SEED" \
      --transport udp --json "$@" > "$dir/run.json" 2> "$dir/run.err"; then
    echo "udp_chaos: [$name] FAIL -- drrg_cli exited non-zero" >&2
    sed 's/^/udp_chaos:   /' "$dir/run.err" >&2 || true
    fail=1
    return 0
  fi
  if ! python3 - "$dir/run.json" "$name" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
name = sys.argv[2]
problems = []
if not rep.get("consensus"):
    problems.append("survivors did not reach consensus")
if rep["value"] != rep["truth"]:
    problems.append(f"value {rep['value']!r} != simulator truth {rep['truth']!r}")
if problems:
    for p in problems:
        print(f"udp_chaos: [{name}] FAIL -- {p}", file=sys.stderr)
    sys.exit(1)
print(f"udp_chaos: [{name}] PASS -- value == truth == {rep['value']!r} "
      f"({rep['messages']} msgs)")
EOF
  then
    fail=1
  fi
  return 0
}

want() {
  [[ -z "${FAMILIES:-}" ]] || [[ " $FAMILIES " == *" $1 "* ]]
}

want clean          && run_family clean          max
want clean          && run_family clean-count    count
want loss-corrupt   && run_family loss-corrupt   max --chaos drop:0.15,corrupt:0.05
want loss-corrupt   && run_family loss-corrupt-count count --chaos drop:0.15,corrupt:0.05
want dup-reorder    && run_family dup-reorder    max --chaos dup:0.15,reorder:0.25/4
want delay          && run_family delay          max --chaos delay:tail:5-120:0.1
want block-kill     && run_family block-kill     max --block-crash 2:8-16 --round-ms 250
want partition-heal && run_family partition-heal max --partition 2:24:12 --round-ms 250
want join           && run_family join           max --join 3:0.1 --round-ms 250

if [[ "$fail" != 0 ]]; then
  echo "udp_chaos: FAIL -- per-node reports kept in $out" >&2
  keep_out=1
  exit 1
fi
echo "udp_chaos: PASS -- all families bit-exact against the simulator truth"
