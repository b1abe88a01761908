#!/usr/bin/env bash
# Reproduces the router-path shedding that servebench leaves out (NOTES.md,
# "Known defects left out"): `seqrtg route` in front of two 1-lane shards
# under a small --mem-ceiling sheds a run-dependent number of records from
# identical input. Prints one line per run with each shard's drain report.
#
#   python3 servebench/run.py --workload loghub_mix --seconds 2   # builds
#   bash servebench/route_shed.sh [runs] [ceiling]                # 6 1M
set -euo pipefail
cd "$(dirname "$0")/.."
runs=${1:-6}
ceiling=${2:-1M}
out_dir=${CARGO_TARGET_DIR:-.bench_build}
bin=$out_dir/seqrtg/src/cli/seqrtg
work=$out_dir/route-shed
[ -x "$bin" ] || { echo "build first: python3 servebench/run.py ..." >&2; exit 2; }
rm -rf "$work"
mkdir -p "$work"
"$bin" generate --services 241 --count 37931 --seed 7 > "$work/stream.jsonl"

cluster_port() {  # waits for the shard's "serving" line
  for _ in $(seq 100); do
    port=$(sed -n 's/.*cluster on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$1")
    [ -n "$port" ] && { echo "$port"; return; }
    sleep 0.1
  done
  echo "shard did not start: $1" >&2
  exit 1
}

for run in $(seq "$runs"); do
  pids=()
  ports=()
  for shard in a b; do
    "$bin" serve --store-dir "$work/$run-$shard" --port -1 --cluster-port 0 \
      --http-port -1 --lanes 1 --mem-ceiling "$ceiling" --log-level error \
      > "$work/$run-$shard.out" 2>/dev/null &
    pids+=($!)
    ports+=("$(cluster_port "$work/$run-$shard.out")")
  done
  "$bin" route --shards "${ports[0]},${ports[1]}" --port -1 --http-port -1 \
    --stdin --log-level error < "$work/stream.jsonl" > "$work/$run-router.out"
  sleep 2  # let the shards read what the router wrote before it exited
  kill -TERM "${pids[@]}"
  wait "${pids[@]}" || true
  # "drained: A accepted, P processed ..." -- accepted minus processed is
  # what admission control shed (nothing is dropped under block overflow).
  awk -v run="$run" '/^drained:/ { shed[n++] = $2 - $4; acc += $2 }
    END { printf "run %s: shard a shed %d, shard b shed %d, %d of 37931 accepted\n",
          run, shed[0], shed[1], acc }' "$work/$run-a.out" "$work/$run-b.out"
done
rm -rf "$work"
