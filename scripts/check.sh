#!/bin/sh
# Tier-1 verification in a single command:
#   build + full test suite (unit + cram), a benchmark-schema check, plus
#   a formatting check when an ocamlformat binary and a .ocamlformat config
#   are present.
#
# Usage: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @check (build + runtest) =="
dune build @check

echo "== BENCH_PR10.json schema =="
dune exec bench/main.exe -- --json-only >/dev/null
grep -o '"[a-z_0-9]*":' BENCH_PR10.json | sort -u | tr -d '":' \
  | diff scripts/bench_pr10_keys.txt - \
  || { echo "BENCH_PR10.json keys drifted from scripts/bench_pr10_keys.txt" >&2; exit 1; }
grep -q '"ghd_5x_bar": true' BENCH_PR10.json \
  || { echo "ghd bar: ghd-fused-6-cycles not >= 5x over the flat leapfrog" >&2; exit 1; }
grep -q '"store_delta_bar": true' BENCH_PR10.json \
  || { echo "store bar: single-tuple delta not >= 10x over full recompute on both registrations" >&2; exit 1; }
grep -q '"differential_ok": true' BENCH_PR10.json \
  || { echo "store bench: a maintained count drifted from the reference solver" >&2; exit 1; }
grep -q '"contained": true' BENCH_PR10.json \
  || { echo "ucq bench: forall-exists decision on the 6-disjunct pair failed" >&2; exit 1; }
grep -q '"reverse_refused": true' BENCH_PR10.json \
  || { echo "ucq bench: reverse containment direction not refused" >&2; exit 1; }
grep -q '"violated": true' BENCH_PR10.json \
  || { echo "ucq bench: hunt did not find the known bag-UCQ violation" >&2; exit 1; }
grep -q '"solver_ref_agrees": true' BENCH_PR10.json \
  || { echo "ucq bench: witness counts drifted from the reference solver" >&2; exit 1; }

echo "== serve --stdio answers, survives malformed input, dumps metrics =="
serve_out=$(printf '%s\n' \
  '{"op":"eval","id":1,"query":"E(x,y)","db":"E(1,2).","fuel":1000}' \
  'garbage' \
  '{"op":"stats","id":2}' \
  '{"op":"eval","id":4,"query":"E(x,y) & w != y","db":"E(1,2). E(2,3).","fuel":1000}' \
  '{"op":"metrics","id":3}' \
  | ./_build/default/bin/bagcq_cli.exe serve --stdio)
echo "$serve_out" | grep -q '"id": 1, "op": "eval", "status": "ok"' \
  || { echo "serve --stdio: eval did not answer ok" >&2; exit 1; }
echo "$serve_out" | grep -q '"status": "error"' \
  || { echo "serve --stdio: malformed line not answered with an error" >&2; exit 1; }
echo "$serve_out" | grep -q '"requests": 3' \
  || { echo "serve --stdio: stats did not count all requests up to itself" >&2; exit 1; }
echo "$serve_out" | grep -q '"name": "server_requests", "labels": {}, "kind": "counter", "value": [1-9]' \
  || { echo "serve --stdio: metrics op reported no requests" >&2; exit 1; }
echo "$serve_out" | grep -Eq '"name": "server_request_ms", "labels": \{"op": "eval"\}, "kind": "histogram", "count": [1-9]' \
  || { echo "serve --stdio: metrics op reported no eval latency" >&2; exit 1; }
# an inequality-only variable is a leapfrog domain rank, never backtracking
echo "$serve_out" | grep -q '"id": 4, "op": "eval", "status": "ok", "cached": false, "count": "4"' \
  || { echo "serve --stdio: inequality-only eval did not count 4" >&2; exit 1; }
echo "$serve_out" | grep -q '"name": "plan_fallback", "labels": {}, "kind": "counter", "value": 0}' \
  || { echo "serve --stdio: plan_fallback is not 0" >&2; exit 1; }
echo "$serve_out" | grep -q '"name": "plan_wcoj_selected", "labels": {}, "kind": "counter", "value": [1-9]' \
  || { echo "serve --stdio: plan_wcoj_selected is not >= 1" >&2; exit 1; }
for counter in plan_components plan_dp_selected plan_fallback \
               plan_wcoj_selected plan_ghd_selected hom_index_builds \
               wcoj_plans_compiled wcoj_runs wcoj_seeks \
               ghd_plans_built ghd_runs ghd_bag_rows \
               store_creates store_inserts store_deletes store_databases \
               store_registered store_delta_maintained store_delta_recomputed \
               store_stale store_repairs server_cache_evicted \
               ucq_contain_checks ucq_hom_checks \
               ucq_hunt_runs ucq_hunt_witnesses_found; do
  echo "$serve_out" | grep -q "\"name\": \"$counter\"" \
    || { echo "serve --stdio: metrics op missing counter $counter" >&2; exit 1; }
done

echo "== serve --stdio hunt plans its queries once, not once per candidate =="
hunt_out=$(printf '%s\n' \
  '{"op":"metrics","id":1}' \
  '{"op":"hunt","id":2,"small":"E(x,x)","big":"E(x,y)","samples":10,"exhaustive_size":2,"seed":7}' \
  '{"op":"metrics","id":3}' \
  | ./_build/default/bin/bagcq_cli.exe serve --stdio)
echo "$hunt_out" | grep -q '"id": 2, "op": "hunt", "status": "ok", .*"ticks": 124}' \
  || { echo "serve --stdio: hunt did not answer ok with ticks 124" >&2; exit 1; }
# The rise of an unlabelled counter between the two metrics dumps.
counter_rise() {
  echo "$hunt_out" \
    | sed -n "s/.*\"name\": \"$1\", \"labels\": {}, \"kind\": \"counter\", \"value\": \([0-9]*\)}.*/\1/p" \
    | { read -r before; read -r after; echo $((after - before)); }
}
# 2 + 8 swept candidates (one per isomorphism class) and 10 samples
[ "$(counter_rise hunt_candidates_tested)" = 20 ] \
  || { echo "serve --stdio: hunt_candidates_tested did not rise by 20" >&2; exit 1; }
[ "$(counter_rise plan_components)" = 2 ] \
  || { echo "serve --stdio: plan_components rose by $(counter_rise plan_components), not 2: the hunt re-planned per candidate" >&2; exit 1; }

echo "== serve --stdio hunt counts its witness once =="
hunt_out=$(printf '%s\n' \
  '{"op":"metrics","id":1}' \
  '{"op":"hunt","id":2,"small":"E(x,y) & E(y,z)","big":"E(x,y)","samples":10,"exhaustive_size":2,"seed":7}' \
  '{"op":"metrics","id":3}' \
  | ./_build/default/bin/bagcq_cli.exe serve --stdio)
# printf, not echo: sh's echo would expand the witness's escaped newlines
printf '%s\n' "$hunt_out" | grep -q '"id": 2, "op": "hunt", "status": "ok", .*"small_count": "5", "big_count": "3"' \
  || { echo "serve --stdio: the witness hunt did not answer 5 > 3" >&2; exit 1; }
# 2 components planned for the prepared pair, 2 for the one exact recount
[ "$(counter_rise plan_components)" = 4 ] \
  || { echo "serve --stdio: a witness hunt rose plan_components by $(counter_rise plan_components), not 4: the witness was counted more than once" >&2; exit 1; }

echo "== serve --stdio sweeps size 4 once per isomorphism class =="
hunt_out=$(printf '%s\n' \
  '{"op":"metrics","id":1}' \
  '{"op":"hunt","id":2,"small":"E(x,x)","big":"E(x,y)","samples":0,"exhaustive_size":4}' \
  '{"op":"metrics","id":3}' \
  | ./_build/default/bin/bagcq_cli.exe serve --stdio)
echo "$hunt_out" | grep -q '"id": 2, "op": "hunt", "status": "ok", .*"exhaustive_complete": true' \
  || { echo "serve --stdio: the size-4 hunt did not complete its sweep" >&2; exit 1; }
# 2 + 8 + 94 + 2 940 classes, where the labelled sweep tested 66 066
[ "$(counter_rise hunt_candidates_tested)" = 3044 ] \
  || { echo "serve --stdio: the size-4 hunt tested $(counter_rise hunt_candidates_tested) candidates, not 3044" >&2; exit 1; }

echo "== serve --stdio counts past 2^61 exactly, one-shot and maintained =="
# On E(1,1..8), E(2,1..3) a 22-leaf star counts 8^22 + 3^22, and a 6-cycle
# with 22 pendant edges (a width-2 decomposition) 32 times that; the
# registered star crosses 2^61 when E(1,7) joins E(1,1..6), E(2,1..3).
leaves() { seq -s ' ' 1 22 | sed "s/\([0-9]*\)/E($1,$2\1)/g; s/) E/) \& E/g"; }
star=$(leaves x y)
cycle="E(a,b) & E(b,c) & E(c,d) & E(d,e) & E(e,f) & E(f,a) & $(leaves a p)"
db6='E(1,1). E(1,2). E(1,3). E(1,4). E(1,5). E(1,6). E(2,1). E(2,2). E(2,3).'
big_out=$(printf '%s\n' \
  "{\"op\":\"eval\",\"id\":1,\"query\":\"$star\",\"db\":\"$db6 E(1,7). E(1,8).\"}" \
  "{\"op\":\"eval\",\"id\":2,\"query\":\"$cycle\",\"db\":\"$db6 E(1,7). E(1,8).\"}" \
  "{\"op\":\"db_create\",\"id\":3,\"name\":\"s\",\"db\":\"$db6\"}" \
  "{\"op\":\"register\",\"id\":4,\"name\":\"s\",\"query\":\"$star\"}" \
  '{"op":"db_insert","id":5,"name":"s","fact":"E(1,7)"}' \
  '{"op":"counts","id":6,"name":"s"}' \
  | ./_build/default/bin/bagcq_cli.exe serve --stdio)
printf '%s\n' "$big_out" | grep -q '"id": 1, "op": "eval", "status": "ok", .*"count": "73786976326219266073", .*"ticks": 264}' \
  || { echo "serve --stdio: the 22-leaf star did not count 8^22 + 3^22 in 264 ticks" >&2; exit 1; }
printf '%s\n' "$big_out" | grep -q '"id": 2, "op": "eval", "status": "ok", .*"count": "2361183242439016514336", .*"ticks": 528}' \
  || { echo "serve --stdio: the pendant 6-cycle did not count 32 (8^22 + 3^22) in 528 ticks" >&2; exit 1; }
printf '%s\n' "$big_out" | grep -q '"id": 4, "op": "register", "status": "ok", .*"count": "131621735223326745", .*"ticks": 220}' \
  || { echo "serve --stdio: the registered star did not start at 6^22 + 3^22 in 220 ticks" >&2; exit 1; }
printf '%s\n' "$big_out" | grep -q '"id": 5, "op": "db_insert", "status": "ok", .*"maintained": 1, .*"ticks": 148}' \
  || { echo "serve --stdio: the insert was not maintained in 148 ticks" >&2; exit 1; }
printf '%s\n' "$big_out" | grep -q '"count": "3909821079964047658", "maintained": true}' \
  || { echo "serve --stdio: the maintained star did not cross 2^61 to 7^22 + 3^22" >&2; exit 1; }

echo "== serve --stdio plans once per shape, refutes a misplaced inequality, echoes registrations flat =="
# Three pinned vertices, one shape; 8 disjoint edges whose one
# inequality sits differently; a registration longer than 78 characters.
edges=$(seq -s ' ' 1 8 | sed 's/\([0-9]*\)/E(x\1,y\1)/g; s/) E/) \& E/g')
path='E(x0,x1) & E(x1,x2) & E(x2,x3) & E(x3,x4) & E(x4,x5) & E(x5,x6) & E(x6,x7) & E(x7,x8)'
shape_out=$(printf '%s\n' \
  '{"op":"db_create","id":1,"name":"g","db":"const v1. const v2. const v3. E(v1,v2). E(v1,v3). E(v2,v3). E(v3,v1)."}' \
  '{"op":"stats","id":2}' \
  "{\"op\":\"eval\",\"id\":3,\"query\":\"E(x,y) & E('v1',q)\",\"db_name\":\"g\"}" \
  "{\"op\":\"eval\",\"id\":4,\"query\":\"E(x,y) & E('v2',q)\",\"db_name\":\"g\"}" \
  "{\"op\":\"eval\",\"id\":5,\"query\":\"E(x,y) & E('v3',q)\",\"db_name\":\"g\"}" \
  '{"op":"stats","id":6}' \
  "{\"op\":\"contain\",\"id\":7,\"small\":\"$edges & x1 != y1\",\"big\":\"$edges & x1 != x2\",\"fuel\":1000000}" \
  "{\"op\":\"register\",\"id\":8,\"name\":\"g\",\"query\":\"$path\"}" \
  '{"op":"counts","id":9,"name":"g"}' \
  | ./_build/default/bin/bagcq_cli.exe serve --stdio)
plan_misses() {
  printf '%s\n' "$shape_out" | sed -n "s/.*\"id\": $1, .*\"plan_misses\": \([0-9]*\),.*/\1/p"
}
[ $(($(plan_misses 6) - $(plan_misses 2))) = 2 ] \
  || { echo "serve --stdio: three pins of one shape raised plan_misses by $(($(plan_misses 6) - $(plan_misses 2))), not 2" >&2; exit 1; }
printf '%s\n' "$shape_out" | grep -q '"id": 7, "op": "contain", "status": "ok", .*"bag_equivalent": false' \
  || { echo "serve --stdio: the misplaced-inequality contain did not answer bag_equivalent false" >&2; exit 1; }
printf '%s\n' "$shape_out" | grep '"id": 9, "op": "counts"' | grep -qF "\"query\": \"$path\"" \
  || { echo "serve --stdio: the long registration did not echo on one line" >&2; exit 1; }
if printf '%s\n' "$shape_out" | grep '"id": 9, "op": "counts"' | grep -qF '\n'; then
  echo "serve --stdio: a counts row holds a newline" >&2; exit 1
fi

# Start `bagcq serve --port 0` in the background with the extra flags
# given after the label, and wait for it to report its port.  Sets
# $server_pid and $port; the label begins the failure message.
port_file=/tmp/bagcq_check_port.$$
trap 'rm -f "$port_file"' EXIT
start_server() {
  label=$1
  shift
  rm -f "$port_file"
  ./_build/default/bin/bagcq_cli.exe serve --port 0 "$@" 2>"$port_file" &
  server_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$port_file")
    [ -n "$port" ] && break
    sleep 0.05
  done
  [ -n "$port" ] || { echo "${label}serve --port 0 never reported its port" >&2; exit 1; }
}

echo "== bagcq metrics --json against a TCP server =="
start_server "" --max-connections 1
metrics_out=$(./_build/default/bin/bagcq_cli.exe metrics --port "$port" --json)
echo "$metrics_out" \
  | grep -o '"[a-z_0-9]*":' | sort -u | tr -d '":' \
  | diff scripts/metrics_json_keys.txt - \
  || { echo "bagcq metrics --json keys drifted from scripts/metrics_json_keys.txt" >&2; exit 1; }
for cell in server_shed server_queue_depth server_lines_oversized; do
  echo "$metrics_out" | grep -q "\"name\": \"$cell\"" \
    || { echo "bagcq metrics --json missing admission cell $cell" >&2; exit 1; }
done
wait "$server_pid"

echo "== data-plane round-trip: create -> insert -> register -> delete -> counts over TCP =="
start_server "store " --max-connections 6
bagcq_store() { ./_build/default/bin/bagcq_cli.exe store "$@" --port "$port"; }
bagcq_store create g >/dev/null \
  || { echo "store round-trip: create failed" >&2; exit 1; }
bagcq_store insert g 'E(1,2)' >/dev/null \
  || { echo "store round-trip: insert failed" >&2; exit 1; }
register_out=$(bagcq_store register g 'E(x,y)') \
  || { echo "store round-trip: register failed" >&2; exit 1; }
echo "$register_out" | grep -q '"count": "1"' \
  || { echo "store round-trip: registered count is not 1" >&2; exit 1; }
bagcq_store delete g 'E(1,2)' >/dev/null \
  || { echo "store round-trip: delete failed" >&2; exit 1; }
status=0
bagcq_store delete g 'E(9,9)' >/dev/null || status=$?
[ "$status" = 3 ] \
  || { echo "store round-trip: a refused delete exited $status, not 3" >&2; exit 1; }
counts_out=$(bagcq_store counts g) \
  || { echo "store round-trip: counts failed" >&2; exit 1; }
echo "$counts_out" | grep -q '"count": "0"' \
  || { echo "store round-trip: maintained count did not follow the delete" >&2; exit 1; }
wait "$server_pid" \
  || { echo "store round-trip: server exited nonzero" >&2; exit 1; }

echo "== ucq round-trip: eval (inline + named store db) and contain over TCP =="
start_server "ucq " --max-connections 7
printf 'E(1,2). E(2,3).\n' > /tmp/bagcq_check_ucq_db.$$
inline_out=$(./_build/default/bin/bagcq_cli.exe ucq eval \
  -q '(E(x,y)) | (E(x,y) & E(y,z))' -d /tmp/bagcq_check_ucq_db.$$ --port "$port") \
  || { echo "ucq round-trip: inline eval failed" >&2; exit 1; }
echo "$inline_out" | grep -q '"count": "3"' \
  || { echo "ucq round-trip: inline count is not 3" >&2; exit 1; }
./_build/default/bin/bagcq_cli.exe store create u --port "$port" >/dev/null \
  || { echo "ucq round-trip: store create failed" >&2; exit 1; }
./_build/default/bin/bagcq_cli.exe store insert u 'E(1,2)' --port "$port" >/dev/null \
  || { echo "ucq round-trip: store insert failed" >&2; exit 1; }
./_build/default/bin/bagcq_cli.exe store insert u 'E(2,3)' --port "$port" >/dev/null \
  || { echo "ucq round-trip: store insert failed" >&2; exit 1; }
named_out=$(./_build/default/bin/bagcq_cli.exe ucq eval \
  -q '(E(x,y)) | (E(x,y) & E(y,z))' --db-name u --port "$port") \
  || { echo "ucq round-trip: named eval failed" >&2; exit 1; }
echo "$named_out" | grep -q '"count": "3"' \
  || { echo "ucq round-trip: named-store count differs from inline" >&2; exit 1; }
contain_out=$(./_build/default/bin/bagcq_cli.exe ucq contain \
  --small 'E(x,y)' --big '(E(x,y)) | (E(x,y) & E(y,z))' --port "$port") \
  || { echo "ucq round-trip: contain failed" >&2; exit 1; }
echo "$contain_out" | grep -q '"set_contains": true' \
  || { echo "ucq round-trip: forall-exists containment did not hold" >&2; exit 1; }
# A hunt that finds nothing exits 1 on both transports, with one answer.
ucq_hunt() {
  ./_build/default/bin/bagcq_cli.exe ucq hunt --small 'E(x,x)' --big 'E(x,y)' --samples 5 "$@"
}
status=0
local_hunt=$(ucq_hunt) || status=$?
[ "$status" = 1 ] \
  || { echo "ucq round-trip: the local empty hunt exited $status, not 1" >&2; exit 1; }
status=0
served_hunt=$(ucq_hunt --port "$port") || status=$?
[ "$status" = 1 ] \
  || { echo "ucq round-trip: the served empty hunt exited $status, not 1" >&2; exit 1; }
[ "$served_hunt" = "$local_hunt" ] \
  || { echo "ucq round-trip: served hunt answered '$served_hunt', local '$local_hunt'" >&2; exit 1; }
wait "$server_pid" \
  || { echo "ucq round-trip: server exited nonzero" >&2; exit 1; }
rm -f /tmp/bagcq_check_ucq_db.$$

echo "== overload round-trip: flood a tiny server, expect sheds + clean exit =="
start_server "overload " --max-connections 1 \
  --jobs 1 --queue-depth 1 --max-inflight 1
client_out=$(./_build/default/bin/bagcq_cli.exe client --port "$port" \
  --open-loop -n 200 --retries 3 --backoff-ms 10)
echo "$client_out"
echo "$client_out" | grep -Eq '[1-9][0-9]* shed' \
  || { echo "overload round-trip: flood produced no overloaded responses" >&2; exit 1; }
echo "$client_out" | grep -q '200 requests' \
  || { echo "overload round-trip: client did not complete all requests" >&2; exit 1; }
wait "$server_pid" \
  || { echo "overload round-trip: server exited nonzero" >&2; exit 1; }

echo "== perfbench --selftest: each workload's seed-1 work repeats, at the pinned figures =="
selftest_out=$(sh perfbench/run.sh --selftest) \
  || { echo "$selftest_out"; echo "perfbench selftest: counters differ between two runs" >&2; exit 1; }
echo "$selftest_out"
# A change that moves one of these re-derives it exactly and says why.
for pin in 'eval-inline .*  budget ticks 266551  index builds 46  counters identical' \
           'eval-named .*  budget ticks 340775  index builds 0  counters identical' \
           'store-churn .*  budget ticks 2802475  index builds 24  counters identical' \
           'hunt-contained .*  budget ticks 94762  index builds 5390  counters identical'; do
  echo "$selftest_out" | grep -q "^$pin\$" \
    || { echo "perfbench selftest: no line matches '$pin'" >&2; exit 1; }
done

if command -v ocamlformat >/dev/null 2>&1 && [ -f .ocamlformat ]; then
  echo "== dune fmt --check =="
  if ! dune build @fmt >/dev/null 2>&1; then
    echo "formatting check failed: run 'dune fmt' to fix" >&2
    exit 1
  fi
else
  echo "== formatting check skipped (ocamlformat or .ocamlformat missing) =="
fi

echo "All tier-1 checks passed."
