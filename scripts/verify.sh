#!/usr/bin/env bash
# Offline verification gate: build, full test suite, formatting.
# The container has no network access — everything must resolve from
# the in-tree workspace (no crates.io dependencies, see DESIGN.md §6).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, workspace) =="
cargo build --release --workspace --offline

echo "== tests (workspace) =="
cargo test -q --workspace --offline

echo "== tier-1 gate (root package) =="
cargo build --release --offline
cargo test -q --offline

echo "== formatting =="
cargo fmt --all --check

echo "== lints (clippy, warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== smoke: repro attribution (telemetry-derived §6.4) =="
./target/release/repro attribution --quick >/dev/null

echo "== key virtualization: property suite =="
cargo test -q --offline --test key_virtualization

echo "== key virtualization: ablation 2b virtualized arm =="
abl_out="$(mktemp)"
./target/release/repro ablations > "$abl_out"
# The virtualized arm must scale past the 15-key wall without ever
# surfacing a key-exhaustion error to the application...
if grep -qiE "out.?of.?keys" <(grep -v "exhaustion" "$abl_out"); then
  echo "verify: OutOfKeys surfaced by the virtualized arm" >&2
  exit 1
fi
# ...and must actually report eviction work at 30+ enclosures.
grep -qE "^ +30 enclosures .* [1-9][0-9]* evictions" "$abl_out"
grep -qE "^ +40 enclosures .* [1-9][0-9]* evictions" "$abl_out"
# The pinned-hot arm must run the whole 20-40 curve.
grep -qE "^ +20 enclosures pinned-hot" "$abl_out"
grep -qE "^ +40 enclosures pinned-hot" "$abl_out"
rm -f "$abl_out"

echo "== async gateway: differential harness, three I/O modes on every backend =="
cargo test -q --offline --test async_gateway

echo "== batching: batched arm amortizes the charged crossings =="
batch_out="$(mktemp -d)"
./target/release/repro batching --json > "$batch_out/BENCH_batching.json"
./target/release/repro batching --json > "$batch_out/b.json"
cmp "$batch_out/BENCH_batching.json" "$batch_out/b.json"
python3 - "$batch_out/BENCH_batching.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
arms = {(a["backend"], a["mode"]): a for a in doc["arms"]}
vtx_plain = arms[("LB_VTX", "unbatched")]["vm_exit_ns_per_request"]
vtx_batch = arms[("LB_VTX", "batched")]["vm_exit_ns_per_request"]
assert vtx_batch <= vtx_plain, f"batched VTX crossing tax regressed: {vtx_batch} > {vtx_plain}"
assert vtx_batch * 2 <= vtx_plain, f"batched VTX tax not halved: {vtx_batch} vs {vtx_plain}"
mpk_plain = arms[("LB_MPK", "unbatched")]["seccomp_per_request"]
mpk_batch = arms[("LB_MPK", "batched")]["seccomp_per_request"]
assert mpk_batch < mpk_plain, f"batched MPK seccomp not reduced: {mpk_batch} vs {mpk_plain}"
# The throughput claim: under 8 concurrent workers the completion-
# driven reactor retires the same requests in no more end-to-end ns
# than the quantum-flushed gateway, strictly fewer where a crossing is
# expensive (LB_VTX).
for backend in ("LB_MPK", "LB_VTX", "LB_PROC"):
    sync = arms[(backend, "batched_c8")]
    reactor = arms[(backend, "async_c8")]
    assert reactor["sim_ns"] <= sync["sim_ns"], (
        f"{backend}: async arm slower end-to-end: {reactor['sim_ns']} > {sync['sim_ns']}")
    assert reactor["latency"]["count"] == sync["latency"]["count"], (
        f"{backend}: async arm lost latency mass")
vtx_sync = arms[("LB_VTX", "batched_c8")]["sim_ns"]
vtx_async = arms[("LB_VTX", "async_c8")]["sim_ns"]
assert vtx_async < vtx_sync, f"LB_VTX async arm must win outright: {vtx_async} vs {vtx_sync}"
print(f"batching OK: VTX {vtx_plain:.0f} -> {vtx_batch:.0f} ns/req, MPK {mpk_plain} -> {mpk_batch} evals/req, "
      f"x8 VTX {vtx_sync} -> {vtx_async} ns end-to-end")
PY
rm -rf "$batch_out"

echo "== smoke: chaos soak (deterministic fault injection) =="
chaos_out="$(mktemp -d)"
trap 'rm -rf "$chaos_out"' EXIT
./target/release/repro chaos --seed=0xC4A05 > "$chaos_out/a.txt"
./target/release/repro chaos --seed=0xC4A05 > "$chaos_out/b.txt"
cmp "$chaos_out/a.txt" "$chaos_out/b.txt"

echo "== LB_PROC: chaos arm deterministic, ledger balanced =="
./target/release/repro chaos --backend=proc --quick > "$chaos_out/p1.txt"
./target/release/repro chaos --backend=proc --quick > "$chaos_out/p2.txt"
cmp "$chaos_out/p1.txt" "$chaos_out/p2.txt"
# The proc arm must actually run (one LB_PROC row) and its IPC/spawn
# ledger must balance (recorder count == hardware count on both).
grep -q "LB_PROC" "$chaos_out/p1.txt"
grep -qE "ipc ([0-9]+)=\1" "$chaos_out/p1.txt"
grep -qE "spawns ([0-9]+)=\1" "$chaos_out/p1.txt"

echo "== LB_PROC: three-way Table 2 renders the extra column =="
./target/release/repro table2 --quick --backend=proc > "$chaos_out/t2.txt"
grep -q "LB_PROC" "$chaos_out/t2.txt"
# All three app rows must carry a proc slowdown cell.
for app in bild HTTP FastHTTP; do
  grep -E "^$app " "$chaos_out/t2.txt" | grep -qE "[0-9]+\.[0-9]+x.*[0-9]+\.[0-9]+x.*[0-9]+\.[0-9]+x"
done
# Default output must stay byte-stable (no proc column without the flag).
./target/release/repro table2 --quick > "$chaos_out/t2_default.txt"
if grep -q "LB_PROC" "$chaos_out/t2_default.txt"; then
  echo "verify: LB_PROC column leaked into the default table2 output" >&2
  exit 1
fi

echo "== LB_PROC: containment suite =="
cargo test -q --offline --test chaos_containment
cargo test -q --offline -p litterbox proc

echo "== trace export: chrome JSON parses, well-nested, monotonic =="
trace_out="$(mktemp -d)"
trap 'rm -rf "$chaos_out" "$trace_out"' EXIT
./target/release/repro trace-export --quick --format=chrome > "$trace_out/wiki.trace.json"
python3 - "$trace_out/wiki.trace.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "empty trace"
last_ts = {}
stacks = {}
tracks = set()
for ev in events:
    tid = ev["tid"]
    if ev["ph"] == "M":
        continue
    tracks.add(tid)
    assert ev["ts"] >= last_ts.get(tid, 0.0), f"ts regressed on tid {tid}"
    last_ts[tid] = ev["ts"]
    if ev["ph"] == "B":
        stacks.setdefault(tid, []).append(ev["name"])
    elif ev["ph"] == "E":
        stack = stacks.get(tid, [])
        assert stack, f"E without matching B on tid {tid}"
        stack.pop()
    else:
        raise AssertionError(f"unexpected phase {ev['ph']!r}")
for tid, stack in stacks.items():
    assert not stack, f"unclosed spans on tid {tid}: {stack}"
assert len(tracks) >= 2, f"want distinct goroutine tracks, got {tracks}"
print(f"trace OK: {len(events)} events on {len(tracks)} tracks")
PY

echo "== profile determinism: byte-identical percentile tables =="
./target/release/repro wiki --quick --profile > "$trace_out/p1.txt"
./target/release/repro wiki --quick --profile > "$trace_out/p2.txt"
cmp "$trace_out/p1.txt" "$trace_out/p2.txt"

echo "== fleet: chaos run deterministic, zero loss, budget bounded =="
fleet_out="$(mktemp -d)"
trap 'rm -rf "$chaos_out" "$trace_out" "$fleet_out"' EXIT
# The binary itself exits non-zero on any invariant violation; the
# JSON asserts below re-check the ledgers independently.
./target/release/repro fleet --quick --chaos --seed=5 > "$fleet_out/a.txt"
./target/release/repro fleet --quick --chaos --seed=5 > "$fleet_out/b.txt"
cmp "$fleet_out/a.txt" "$fleet_out/b.txt"
./target/release/repro fleet --quick --chaos --seed=5 --json > "$fleet_out/a.json"
./target/release/repro fleet --quick --chaos --seed=5 --json > "$fleet_out/b.json"
cmp "$fleet_out/a.json" "$fleet_out/b.json"
python3 - "$fleet_out/a.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert not doc["invariant_violations"], doc["invariant_violations"]
# Zero lost accepted requests under the shard_crash arm.
assert doc["crashes"] >= 1, "the targeted shard kill never fired"
assert doc["responses"] == doc["admitted"], (
    f"lost requests: {doc['responses']} responses != {doc['admitted']} admitted")
# The retry budget is never exceeded.
b = doc["retry_budget"]
assert b["consumed"] <= b["capacity"] + b["refilled"], b
# Merged-histogram totals == sum of per-shard request counts.
per_shard = sum(s["latency_count"] for s in doc["shards"])
assert doc["latency_count"] == per_shard, (
    f"merged histogram loses mass: {doc['latency_count']} != {per_shard}")
# The victim respawned and re-served before the run ended.
victim = doc["shards"][doc["victim"]]
assert victim["respawns"] >= 1 and victim["served_after_respawn"] > 0, victim
print(f"fleet OK: {doc['admitted']} admitted, {doc['crashes']} crashes, "
      f"{b['consumed']}/{b['capacity']}+{b['refilled']} budget, "
      f"victim shard {doc['victim']} re-served {victim['served_after_respawn']}")
PY

echo "== fleet: parallel == sequential byte-identity (±chaos) =="
# The differential claim at the CLI boundary: the report (text and
# JSON) must not change by one byte when the planned batches execute
# on worker threads. Only the wall-clock timing section — the one
# deliberately nondeterministic output — is stripped before comparing.
for chaos_flag in "" "--chaos"; do
  # shellcheck disable=SC2086
  ./target/release/repro fleet --quick $chaos_flag --seed=5 > "$fleet_out/seq.txt"
  # shellcheck disable=SC2086
  ./target/release/repro fleet --quick $chaos_flag --seed=5 --parallel=4 > "$fleet_out/par.txt"
  grep -q "^wall-clock: " "$fleet_out/par.txt"
  cmp <(grep -v "^wall-clock: " "$fleet_out/par.txt") "$fleet_out/seq.txt"
  # shellcheck disable=SC2086
  ./target/release/repro fleet --quick $chaos_flag --seed=5 --json > "$fleet_out/seq.json"
  # shellcheck disable=SC2086
  ./target/release/repro fleet --quick $chaos_flag --seed=5 --parallel=4 --json > "$fleet_out/par.json"
  python3 - "$fleet_out/seq.json" "$fleet_out/par.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    seq = json.load(f)
with open(sys.argv[2]) as f:
    par = json.load(f)
timing = par.pop("timing")
assert timing["threads"] == 4 and timing["wall_seconds"] > 0, timing
assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True), \
    "parallel fleet JSON diverged from sequential"
PY
done

echo "== fleet: fasthttp arm on the reactor, deterministic =="
./target/release/repro fleet --quick --app=fasthttp > "$fleet_out/f1.txt"
./target/release/repro fleet --quick --app=fasthttp > "$fleet_out/f2.txt"
cmp "$fleet_out/f1.txt" "$fleet_out/f2.txt"
grep -q "invariants: OK" "$fleet_out/f1.txt"
# Under chaos the reactor workers must degrade, not abort (the binary
# exits non-zero on an escaped fault or a violated invariant).
./target/release/repro fleet --quick --app=fasthttp --chaos --json > "$fleet_out/fc1.json"
./target/release/repro fleet --quick --app=fasthttp --chaos --json > "$fleet_out/fc2.json"
cmp "$fleet_out/fc1.json" "$fleet_out/fc2.json"

echo "== fleet: tier-1 containment suite =="
cargo test -q --offline --test fleet_serving

echo "== monitor: SLO dashboard deterministic, signal leads ejection =="
monitor_out="$(mktemp -d)"
trap 'rm -rf "$chaos_out" "$trace_out" "$fleet_out" "$monitor_out" "${bench9_out:-}"' EXIT
# Text and JSON are both byte-identical per seed; the binary itself
# exits non-zero unless the advisory degradation signal strictly leads
# the outlier ejection in the kill-one-shard rehearsal.
./target/release/repro monitor --quick --chaos --seed=7 > "$monitor_out/a.txt"
./target/release/repro monitor --quick --chaos --seed=7 > "$monitor_out/b.txt"
cmp "$monitor_out/a.txt" "$monitor_out/b.txt"
grep -q "advisory signal led: yes" "$monitor_out/a.txt"
./target/release/repro monitor --quick --chaos --seed=7 --json > "$monitor_out/a.json"
./target/release/repro monitor --quick --chaos --seed=7 --json > "$monitor_out/b.json"
cmp "$monitor_out/a.json" "$monitor_out/b.json"
python3 - "$monitor_out/a.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert not doc["invariant_violations"], doc["invariant_violations"]
m = doc["monitor"]
assert m["degradation_led_ejection"] is True, m
assert m["first_degraded_round"] < m["first_eject_round"], m
assert m["shards_degraded"] >= 1, m
# Fleet-merged window mass covers every admitted request.
mass = sum(w["requests_ok"] + w["requests_degraded"] for w in m["windows"])
assert mass >= doc["admitted"] - 64, (mass, doc["admitted"])  # minus any evicted fold
print(f"monitor OK: degraded r{m['first_degraded_round']} < eject r{m['first_eject_round']}, "
      f"{len(m['degraded'])} advisories over {len(m['windows'])} windows")
PY

echo "== flight recorder: dump byte-stable per seed =="
./target/release/repro flightrec --json > "$monitor_out/fr1.json"
./target/release/repro flightrec --json > "$monitor_out/fr2.json"
cmp "$monitor_out/fr1.json" "$monitor_out/fr2.json"

echo "== perf snapshot: BENCH_9.json (ns/req per backend) =="
# Every BENCH_9 value is simulated, so a regenerated snapshot must match
# the committed one byte for byte; it is written aside, never over it.
bench9_out="$(mktemp -d)"
./target/release/repro batching --quick --bench-out="$bench9_out/BENCH_9.json" > /dev/null
cmp "$bench9_out/BENCH_9.json" BENCH_9.json
python3 - BENCH_9.json <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "batching --quick", doc
for backend in ("LB_MPK", "LB_VTX", "LB_PROC"):
    arms = doc["backends"][backend]
    assert {"async_c8_ns_per_req", "batched_c8_ns_per_req", "unbatched_ns_per_req"} <= set(arms), arms
PY

echo "== perf snapshot: BENCH_10.json (fleet wall-clock, seq vs parallel) =="
cores="$(nproc)"
./target/release/repro fleet --seed=5 --mixed-backends --parallel --bench-out=BENCH_10.json > /dev/null
python3 - BENCH_10.json "$cores" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
cores = int(sys.argv[2])
assert doc["requests"] == 100000, doc
assert doc["sequential_wall_seconds"] > 0 and doc["parallel_wall_seconds"] > 0, doc
speedup = doc["wall_clock_speedup"]
if cores >= 4:
    assert speedup >= 1.5, (
        f"parallel fleet speedup {speedup:.2f}x < 1.5x on {cores} cores")
    print(f"fleet speedup OK: {speedup:.2f}x on {doc['threads']} threads ({cores} cores)")
else:
    print(f"NOTICE: {cores} core(s) detected (<4) — speedup gate skipped "
          f"(measured {speedup:.2f}x on {doc['threads']} threads)")
PY

echo "verify: OK"
