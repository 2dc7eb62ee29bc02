#!/usr/bin/env bash
# Tier-1 gate plus a benchmark smoke pass.
#
#   ./ci.sh            # vet + build + test + bench smoke -> BENCH_ci.json
#   ./ci.sh BENCH_1.json   # write the smoke numbers to a named baseline
#
# The JSON output is one entry per benchmark (ns/op, B/op, allocs/op at
# -benchtime=1x, i.e. cold single-shot numbers — the trace cache only
# pays off from the second iteration on). Compare trajectories between
# PRs with benchstat on the raw `go test -bench` output, or diff the
# BENCH_*.json files directly; see EXPERIMENTS.md.
set -euo pipefail
cd "$(dirname "$0")"

out="${1:-BENCH_ci.json}"

go vet ./...
# gofmt drift fails the gate; `gofmt -w <file>` fixes a listed file.
test -z "$(gofmt -l .)"
go build ./...
# Every package under internal/ needs a non-test importer in this
# module; one without is dead code. internal/signal (a DBC-style signal
# codec nothing uses yet) is the one exception until it is removed.
imported=$(go list -f '{{join .Imports "\n"}}' ./... | sort -u)
orphans=$(go list ./internal/... | grep -vxF canids/internal/signal | grep -vxF -f <(printf '%s\n' "$imported") || true)
if [[ -n "$orphans" ]]; then
  echo "packages under internal/ with no non-test importer:"; echo "$orphans"; exit 1
fi
go test ./...
# The serve-path benchmark is its own module over this one: build, vet
# and test it here, so an API change that breaks it fails CI rather than
# the benchmark run.
(cd servebench && GOFLAGS=-mod=mod go vet ./... && GOFLAGS=-mod=mod go test ./...)

# Concurrency hardening: the streaming engine (internal/engine) fans
# work across goroutines, so the suite must hold under the race
# detector; -shuffle=on randomizes test and subtest order to flush out
# order-dependent tests (a fresh seed every run — the failing seed is
# printed for reproduction). Either leg failing fails CI.
go test -race ./...
go test -shuffle=on ./...

# Fuzz smoke: each differential fuzzer runs for 10 s against its
# reference — the original candump, CSV and binary decoders, and the
# map-based gateway. A mismatch fails CI, and go test saves the input
# under the package's testdata/fuzz, where plain `go test` replays it.
echo "== fuzz smoke"
for target in trace:FuzzReadCandump trace:FuzzReadCSV trace:FuzzReadBinary gateway:FuzzGatewayClassify; do
  go test -run '^$' -fuzz "^${target#*:}\$" -fuzztime 10s "./internal/${target%%:*}"
done

# Serve smoke: train once (-save), run the real `canids -serve` daemon
# on a random port, ingest a ground-truth capture over HTTP, drain via
# the admin endpoint, and require the served alert count to equal the
# offline -detect run on the same file and snapshot — the end-to-end
# parity the serving subsystem guarantees (see internal/server).
echo "== serve smoke"
smoke=$(mktemp -d)
serve_pid=""
probe_pid=""
cleanup() {
  if [[ -n "$probe_pid" ]]; then kill "$probe_pid" 2>/dev/null || true; fi
  if [[ -n "$serve_pid" ]]; then
    kill "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
  fi
  rm -rf "$smoke"
}
trap cleanup EXIT
go build -o "$smoke/canids" ./cmd/canids
go run ./cmd/cangen -duration 8s -seed 1 -scenario idle -format csv -o "$smoke/clean.csv"
go run ./cmd/canattack -attack SI -ids 0B5 -freq 100 -duration 10s -seed 1 -o "$smoke/attacked.csv"
"$smoke/canids" -train -alpha 4 -o "$smoke/template.json" -save "$smoke/model.snap" "$smoke/clean.csv" >/dev/null
offline=$("$smoke/canids" -detect -load "$smoke/model.snap" "$smoke/attacked.csv" | grep -c 'ALERT \[bit-entropy\]' || true)
"$smoke/canids" -serve -addr 127.0.0.1:0 -load "$smoke/model.snap" >"$smoke/serve.log" &
serve_pid=$!
base=""
for _ in $(seq 1 100); do
  base=$(grep -o 'http://[0-9.:]*' "$smoke/serve.log" | head -1 || true)
  if [[ -n "$base" ]]; then break; fi
  sleep 0.1
done
if [[ -z "$base" ]]; then echo "serve smoke: daemon never announced its address"; cat "$smoke/serve.log"; exit 1; fi
# Failures below must reach the diagnostic branch (set -e would
# otherwise abort on the first bad pipeline), so they are guarded.
if ! curl -sfS --data-binary @"$smoke/attacked.csv" "$base/ingest/ms-can?format=csv" >/dev/null; then
  echo "serve smoke FAILED: ingest request rejected"
  cat "$smoke/serve.log"
  exit 1
fi
served=$(curl -sS -X POST "$base/admin/shutdown" | grep -o '"alerts_total":[0-9]*' | grep -o '[0-9]*$' || true)
wait "$serve_pid"
serve_pid=""
if [[ -z "$offline" || "$offline" -eq 0 || "$served" != "$offline" ]]; then
  echo "serve smoke FAILED: served ${served:-?} alerts, offline run found ${offline:-?}"
  cat "$smoke/serve.log"
  exit 1
fi
echo "serve smoke: $served alerts served == offline run, clean shutdown"

# Adapt smoke: serve the trained snapshot with online adaptation and
# checkpointing behind an admin token, ingest drifted clean traffic
# (cruise driving against an idle-trained model), require at least one
# model promotion in /stats and a 401 on unauthenticated admin verbs,
# checkpoint, restart the daemon from the version-2 checkpoint, ingest
# the same traffic again, and require the served counts to match — the
# adapted model survives the restart (see internal/adapt).
echo "== adapt smoke"
# Same vehicle (profile seed 1, like the training capture), different
# traffic randomness: clean drift the idle-trained model never saw.
go run ./cmd/cangen -duration 12s -seed 1 -traffic-seed 9 -scenario idle -format csv -o "$smoke/drift.csv"
token=smoke-token
"$smoke/canids" -serve -addr 127.0.0.1:0 -load "$smoke/model.snap" \
  -adapt -adapt-every 3 -checkpoint "$smoke/ck.snap" -admin-token "$token" >"$smoke/adapt.log" &
serve_pid=$!
base=""
for _ in $(seq 1 100); do
  base=$(grep -o 'http://[0-9.:]*' "$smoke/adapt.log" | head -1 || true)
  if [[ -n "$base" ]]; then break; fi
  sleep 0.1
done
if [[ -z "$base" ]]; then echo "adapt smoke: daemon never announced its address"; cat "$smoke/adapt.log"; exit 1; fi
if ! curl -sfS --data-binary @"$smoke/drift.csv" "$base/ingest/ms-can?format=csv" >/dev/null; then
  echo "adapt smoke FAILED: ingest rejected"; cat "$smoke/adapt.log"; exit 1
fi
promoted=""
for _ in $(seq 1 100); do
  if curl -sS "$base/stats" | grep -qE '"promotions":[1-9]'; then promoted=yes; break; fi
  sleep 0.1
done
if [[ -z "$promoted" ]]; then
  echo "adapt smoke FAILED: no promotion in /stats"; curl -sS "$base/stats"; cat "$smoke/adapt.log"; exit 1
fi
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/admin/checkpoint")
if [[ "$code" != "401" ]]; then
  echo "adapt smoke FAILED: unauthenticated admin checkpoint answered $code, want 401"; exit 1
fi
if ! curl -sfS -X POST -H "Authorization: Bearer $token" "$base/admin/checkpoint" >/dev/null; then
  echo "adapt smoke FAILED: authorized checkpoint rejected"; cat "$smoke/adapt.log"; exit 1
fi
down1=$(curl -sS -X POST -H "Authorization: Bearer $token" "$base/admin/shutdown")
first=$(echo "$down1" | grep -o '"Frames":[0-9]*' | head -1)
first_alerts=$(echo "$down1" | grep -o '"alerts_total":[0-9]*' | head -1)
wait "$serve_pid"
serve_pid=""
ck="$smoke/ck.ms-can.snap"
if [[ ! -f "$ck" ]]; then echo "adapt smoke FAILED: checkpoint file missing"; ls "$smoke"; exit 1; fi
"$smoke/canids" -serve -addr 127.0.0.1:0 -load "$ck" >"$smoke/adapt2.log" &
serve_pid=$!
base=""
for _ in $(seq 1 100); do
  base=$(grep -o 'http://[0-9.:]*' "$smoke/adapt2.log" | head -1 || true)
  if [[ -n "$base" ]]; then break; fi
  sleep 0.1
done
if [[ -z "$base" ]]; then echo "adapt smoke: restarted daemon never announced its address"; cat "$smoke/adapt2.log"; exit 1; fi
if ! grep -q "adaptation provenance" "$smoke/adapt2.log"; then
  echo "adapt smoke FAILED: restart does not announce the checkpoint's adaptation metadata"; cat "$smoke/adapt2.log"; exit 1
fi
if ! curl -sfS --data-binary @"$smoke/drift.csv" "$base/ingest/ms-can?format=csv" >/dev/null; then
  echo "adapt smoke FAILED: restart ingest rejected"; cat "$smoke/adapt2.log"; exit 1
fi
down2=$(curl -sS -X POST "$base/admin/shutdown")
second=$(echo "$down2" | grep -o '"Frames":[0-9]*' | head -1)
second_alerts=$(echo "$down2" | grep -o '"alerts_total":[0-9]*' | head -1)
wait "$serve_pid"
serve_pid=""
# Frames pin the transport; alerts_total pins the model — a checkpoint
# restored to the wrong (un-adapted) template would score differently.
if [[ -z "$first" || "$first" != "$second" || -z "$first_alerts" || "$first_alerts" != "$second_alerts" ]]; then
  echo "adapt smoke FAILED: served counts differ across the restart (${first:-?}/${first_alerts:-?} vs ${second:-?}/${second_alerts:-?})"
  cat "$smoke/adapt.log" "$smoke/adapt2.log"; exit 1
fi
echo "adapt smoke: promotion observed, checkpoint restarted, $second + $second_alerts served across restart"

# Chaos smoke: the fault-tolerance story end to end against the real
# daemon (see internal/fault). Serve with adaptation and an injected
# fault plan: the first checkpoint write fails (a retry or the next
# promotion must land it anyway), then the bus engine panics mid-ingest
# (the supervisor must restart it from that checkpoint). The daemon has
# to stay up throughout: /healthz dips to "degraded" while the bus
# restarts and returns to "ok", a third ingest is served by the
# recovered engine, and the final counters reconcile exactly —
# Frames + Lost == 3 ingests of the same capture, with every frame
# dropped during the crash window counted in Lost, not vanished.
echo "== chaos smoke"
first_n=${first#*:}
panic_at=$((first_n + 100))
"$smoke/canids" -serve -addr 127.0.0.1:0 -load "$smoke/model.snap" \
  -adapt -adapt-every 3 -checkpoint "$smoke/ck2.snap" \
  -faults "engine.frame[ms-can]:panic@${panic_at};checkpoint.save:error@1" >"$smoke/chaos.log" &
serve_pid=$!
base=""
for _ in $(seq 1 100); do
  base=$(grep -o 'http://[0-9.:]*' "$smoke/chaos.log" | head -1 || true)
  if [[ -n "$base" ]]; then break; fi
  sleep 0.1
done
if [[ -z "$base" ]]; then echo "chaos smoke: daemon never announced its address"; cat "$smoke/chaos.log"; exit 1; fi
if ! grep -q "fault injection armed" "$smoke/chaos.log"; then
  echo "chaos smoke FAILED: daemon did not announce the armed fault plan"; cat "$smoke/chaos.log"; exit 1
fi
# Ingest 1: clean drift, adaptation promotes, and the first checkpoint
# write fails by injection — the loop must absorb it (retry timer or
# the next promotion's re-attempt) and still land a file on disk.
if ! curl -sfS --data-binary @"$smoke/drift.csv" "$base/ingest/ms-can?format=csv" >/dev/null; then
  echo "chaos smoke FAILED: first ingest rejected"; cat "$smoke/chaos.log"; exit 1
fi
ck2=""
for _ in $(seq 1 100); do
  if [[ -f "$smoke/ck2.ms-can.snap" ]]; then ck2=yes; break; fi
  sleep 0.1
done
if [[ -z "$ck2" ]]; then
  echo "chaos smoke FAILED: checkpoint never landed after the injected write failure"
  curl -sS "$base/stats"; cat "$smoke/chaos.log"; exit 1
fi
# Ingest 2: the engine panics at frame $panic_at; the rest of the
# capture arrives while the bus is down and must be counted lost, not
# dropped silently. Sample /healthz concurrently to catch the transient
# degraded window.
: > "$smoke/healthz.log"
( while :; do curl -sS "$base/healthz" >>"$smoke/healthz.log" 2>/dev/null; echo >>"$smoke/healthz.log"; done ) &
probe_pid=$!
curl -sS --data-binary @"$smoke/drift.csv" "$base/ingest/ms-can?format=csv" >/dev/null || true
recovered=""
for _ in $(seq 1 100); do
  if curl -sS "$base/stats" | grep -qE '"restarts":1'; then recovered=yes; break; fi
  sleep 0.1
done
kill "$probe_pid" 2>/dev/null || true
wait "$probe_pid" 2>/dev/null || true
probe_pid=""
if [[ -z "$recovered" ]]; then
  echo "chaos smoke FAILED: supervisor never recorded the restart"
  curl -sS "$base/stats"; cat "$smoke/chaos.log"; exit 1
fi
if ! grep -q '"status":"degraded"' "$smoke/healthz.log"; then
  echo "chaos smoke FAILED: /healthz never reported the restart window as degraded"; exit 1
fi
ok=""
for _ in $(seq 1 100); do
  if curl -sS "$base/healthz" | grep -q '"status":"ok"'; then ok=yes; break; fi
  sleep 0.1
done
if [[ -z "$ok" ]]; then
  echo "chaos smoke FAILED: /healthz stuck degraded after the restart"; curl -sS "$base/healthz"; exit 1
fi
# Ingest 3: the restarted engine (restored from the checkpoint) must
# keep serving as if nothing happened.
if ! curl -sfS --data-binary @"$smoke/drift.csv" "$base/ingest/ms-can?format=csv" >/dev/null; then
  echo "chaos smoke FAILED: post-restart ingest rejected"; cat "$smoke/chaos.log"; exit 1
fi
down3=$(curl -sS -X POST "$base/admin/shutdown")
wait "$serve_pid"
serve_pid=""
if echo "$down3" | grep -q '"error"'; then
  echo "chaos smoke FAILED: drain reported an error: $down3"; cat "$smoke/chaos.log"; exit 1
fi
frames3=$(echo "$down3" | grep -o '"Frames":[0-9]*' | head -1 | grep -o '[0-9]*$')
lost3=$(echo "$down3" | grep -o '"Lost":[0-9]*' | head -1 | grep -o '[0-9]*$')
want=$((3 * first_n))
if [[ -z "$frames3" || -z "$lost3" || "$lost3" -eq 0 || $((frames3 + lost3)) -ne "$want" ]]; then
  echo "chaos smoke FAILED: counters do not reconcile: Frames=${frames3:-?} + Lost=${lost3:-?} != $want"
  echo "$down3"; cat "$smoke/chaos.log"; exit 1
fi
echo "chaos smoke: checkpoint survived an injected write failure, crash restart absorbed, $frames3 + $lost3 lost == $want ingested"

# Observability smoke: the incident-replay story end to end against the
# real daemon (see internal/journal and internal/server's record.go).
# Serve with -record (the alert journal defaults into the capture
# directory), ingest the attacked capture, and scrape /metrics until the
# Prometheus counters reconcile: accepted == frames on the fault-free
# bus and alerts_total == the offline -detect count from the serve
# smoke. Then shut down and `canids -replay` the capture: the replayed
# alert journal must reproduce the recorded one bit for bit — asserted
# twice, by the replay's own verdict and by an explicit cmp of every
# journal file. The same run checks the latency-observability surface:
# histogram buckets monotone and reconciling with the window/alert
# counters, pprof and the /admin/diag incident bundle served through
# bearer auth (and refused without it).
echo "== observability smoke"
obs_token="obs-secret"
"$smoke/canids" -serve -addr 127.0.0.1:0 -load "$smoke/model.snap" \
  -record "$smoke/incident" -admin-token "$obs_token" >"$smoke/record.log" &
serve_pid=$!
base=""
for _ in $(seq 1 100); do
  base=$(grep -o 'http://[0-9.:]*' "$smoke/record.log" | head -1 || true)
  if [[ -n "$base" ]]; then break; fi
  sleep 0.1
done
if [[ -z "$base" ]]; then echo "observability smoke: daemon never announced its address"; cat "$smoke/record.log"; exit 1; fi
if ! grep -q "recording to $smoke/incident" "$smoke/record.log"; then
  echo "observability smoke FAILED: daemon did not announce the recording"; cat "$smoke/record.log"; exit 1
fi
ingested=$(curl -sfS --data-binary @"$smoke/attacked.csv" "$base/ingest/ms-can?format=csv" | grep -o '[0-9]*' || true)
if [[ -z "$ingested" || "$ingested" -eq 0 ]]; then
  echo "observability smoke FAILED: ingest rejected"; cat "$smoke/record.log"; exit 1
fi
# Ingest returns once the records are in the feed; poll the scrape until
# the engines have drained it and the counters reconcile: every ingested
# record accepted, every accepted record processed (nothing lost on a
# fault-free run), alerts flowing. The final window (and its alert) only
# flushes at drain, so the alert total is checked after shutdown.
m_ok=""
for _ in $(seq 1 100); do
  mtx=$(curl -sS "$base/metrics")
  m_frames=$(echo "$mtx" | grep -o 'canids_bus_frames_total{bus="ms-can"} [0-9]*' | grep -o '[0-9]*$' || true)
  m_accept=$(echo "$mtx" | grep -o 'canids_bus_accepted_total{bus="ms-can"} [0-9]*' | grep -o '[0-9]*$' || true)
  m_alerts=$(echo "$mtx" | grep -o '^canids_alerts_total [0-9]*' | grep -o '[0-9]*$' || true)
  if [[ "$m_frames" == "$ingested" && "$m_accept" == "$ingested" && -n "$m_alerts" && "$m_alerts" -gt 0 ]]; then m_ok=yes; break; fi
  sleep 0.1
done
if [[ -z "$m_ok" ]]; then
  echo "observability smoke FAILED: /metrics never reconciled (frames=${m_frames:-?} accepted=${m_accept:-?} alerts=${m_alerts:-?}, ingested=$ingested)"
  echo "$mtx"; cat "$smoke/record.log"; exit 1
fi
# (herestrings, not `echo | grep -q`: grep exits at the first match, and
# a /metrics body bigger than the pipe buffer would then SIGPIPE the
# echo — a pipefail failure on a successful match.)
if ! grep -q 'canids_bus_state{bus="ms-can",state="ok"} 1' <<<"$mtx"; then
  echo "observability smoke FAILED: bus not reported ok"; echo "$mtx"; exit 1
fi
# Latency histograms: the engines may still be scoring the tail when the
# frame counters reconcile, so poll until the histogram counts agree
# with the counters they shadow — one pipeline observation per closed
# window, one detection observation per alert, one ingest observation
# for the single ingest call.
h_ok=""
for _ in $(seq 1 100); do
  mtx=$(curl -sS "$base/metrics")
  h_windows=$(echo "$mtx" | grep -o 'canids_bus_windows_total{bus="ms-can"} [0-9]*' | grep -o '[0-9]*$' || true)
  h_busalerts=$(echo "$mtx" | grep -o 'canids_bus_alerts_total{bus="ms-can"} [0-9]*' | grep -o '[0-9]*$' || true)
  h_pipe=$(echo "$mtx" | grep -o 'canids_pipeline_latency_seconds_count{bus="ms-can"} [0-9]*' | grep -o '[0-9]*$' || true)
  h_det=$(echo "$mtx" | grep -o 'canids_detect_latency_seconds_count{bus="ms-can"} [0-9]*' | grep -o '[0-9]*$' || true)
  h_ing=$(echo "$mtx" | grep -o '^canids_ingest_request_seconds_count [0-9]*' | grep -o '[0-9]*$' || true)
  if [[ -n "$h_windows" && "$h_windows" -gt 0 && "$h_pipe" == "$h_windows" \
        && "$h_det" == "$h_busalerts" && "$h_ing" == "1" ]]; then h_ok=yes; break; fi
  sleep 0.1
done
if [[ -z "$h_ok" ]]; then
  echo "observability smoke FAILED: histogram counts never reconciled (pipeline=${h_pipe:-?}/windows=${h_windows:-?}, detect=${h_det:-?}/alerts=${h_busalerts:-?}, ingest=${h_ing:-?})"
  echo "$mtx" | grep -E 'latency|ingest_request|windows_total|alerts_total'; exit 1
fi
# Bucket sanity on the detection-latency histogram: cumulative values
# never decrease and the +Inf bucket equals _count.
if ! echo "$mtx" | grep 'canids_detect_latency_seconds_bucket{bus="ms-can"' \
  | awk -v count="$h_det" '
      { v=$2; if (v < last) { bad=1 } last=v; inf=v }
      END { if (bad) { print "non-monotone"; exit 1 }
            if (inf != count) { print "+Inf " inf " != _count " count; exit 1 } }'; then
  echo "observability smoke FAILED: detection-latency buckets malformed"
  echo "$mtx" | grep 'canids_detect_latency_seconds'; exit 1
fi
# Profiling and the incident bundle are admin surface: 401 without the
# bearer token, real payloads with it.
pprof_code=$(curl -sS -o /dev/null -w '%{http_code}' "$base/admin/pprof/goroutine?debug=1")
if [[ "$pprof_code" != "401" ]]; then
  echo "observability smoke FAILED: unauthenticated pprof got $pprof_code, want 401"; exit 1
fi
curl -sfS -H "Authorization: Bearer $obs_token" -o "$smoke/goroutine.pprof" "$base/admin/pprof/goroutine?debug=1"
if ! grep -q 'goroutine profile:' "$smoke/goroutine.pprof"; then
  echo "observability smoke FAILED: authorized pprof did not return a goroutine profile"; exit 1
fi
if ! curl -sfS -H "Authorization: Bearer $obs_token" -o "$smoke/diag.tar.gz" "$base/admin/diag"; then
  echo "observability smoke FAILED: /admin/diag fetch failed"; exit 1
fi
tar -tzf "$smoke/diag.tar.gz" > "$smoke/diag.list"
for member in stats.json metrics.txt healthz.json goroutines.txt; do
  if ! grep -qx "$member" "$smoke/diag.list"; then
    echo "observability smoke FAILED: diag bundle missing $member"
    cat "$smoke/diag.list"; exit 1
  fi
done
down_obs=$(curl -sS -X POST -H "Authorization: Bearer $obs_token" "$base/admin/shutdown")
wait "$serve_pid"
serve_pid=""
obs_alerts=$(echo "$down_obs" | grep -o '"alerts_total":[0-9]*' | grep -o '[0-9]*$' || true)
if [[ "$obs_alerts" != "$offline" ]]; then
  echo "observability smoke FAILED: drained ${obs_alerts:-?} alerts, offline run found $offline"
  cat "$smoke/record.log"; exit 1
fi
if ! "$smoke/canids" -replay "$smoke/incident" >"$smoke/replay.log"; then
  echo "observability smoke FAILED: replay errored"; cat "$smoke/replay.log" "$smoke/record.log"; exit 1
fi
if ! grep -q "alert journal reproduced bit-for-bit" "$smoke/replay.log"; then
  echo "observability smoke FAILED: replay did not verify the journal"; cat "$smoke/replay.log"; exit 1
fi
if ! grep -qE "replayed [0-9]+ records: .* $offline alerts" "$smoke/replay.log"; then
  echo "observability smoke FAILED: replay alert count differs from the offline run ($offline)"
  cat "$smoke/replay.log"; exit 1
fi
for f in "$smoke/incident/journal/"*; do
  if ! cmp -s "$f" "$smoke/incident/replay/$(basename "$f")"; then
    echo "observability smoke FAILED: journal $(basename "$f") differs between record and replay"
    cat "$smoke/replay.log"; exit 1
  fi
done
echo "observability smoke: /metrics reconciled ($m_frames frames, $m_alerts alerts, $h_pipe pipeline / $h_det detection latency observations), pprof+diag served through auth, replay reproduced the journal byte-for-byte"

# Fleet smoke: the multiplexed serving story end to end (see
# internal/engine's fleet supervisor and internal/model). Retag the
# clean capture round-robin across ten vehicle channels, serve them all
# over TWO shared host engines (-fleet 2), ingest half, hot-reload the
# snapshot through /admin/reload — one model install that every lane
# must converge to — ingest the rest, and require /metrics to show a
# single model epoch (2) on all ten vehicles before the drain, whose
# per-vehicle counts must sum exactly to the frames ingested.
echo "== fleet smoke"
awk -F, 'BEGIN{OFS=","} NR==1{print;next}{$2="veh-" ((NR-2)%10); print}' "$smoke/clean.csv" > "$smoke/fleet.csv"
fleet_total=$(($(wc -l < "$smoke/fleet.csv") - 1))
half=$((fleet_total / 2))
head -n $((half + 1)) "$smoke/fleet.csv" > "$smoke/fleet1.csv"
{ head -1 "$smoke/fleet.csv"; tail -n $((fleet_total - half)) "$smoke/fleet.csv"; } > "$smoke/fleet2.csv"
"$smoke/canids" -serve -addr 127.0.0.1:0 -load "$smoke/model.snap" -fleet 2 >"$smoke/fleet.log" &
serve_pid=$!
base=""
for _ in $(seq 1 100); do
  base=$(grep -o 'http://[0-9.:]*' "$smoke/fleet.log" | head -1 || true)
  if [[ -n "$base" ]]; then break; fi
  sleep 0.1
done
if [[ -z "$base" ]]; then echo "fleet smoke: daemon never announced its address"; cat "$smoke/fleet.log"; exit 1; fi
if ! grep -q "fleet/2" "$smoke/fleet.log"; then
  echo "fleet smoke FAILED: daemon did not announce fleet mode"; cat "$smoke/fleet.log"; exit 1
fi
if ! curl -sfS --data-binary @"$smoke/fleet1.csv" "$base/ingest?format=csv" >/dev/null; then
  echo "fleet smoke FAILED: first ingest rejected"; cat "$smoke/fleet.log"; exit 1
fi
swapped=$(curl -sfS --data-binary @"$smoke/model.snap" "$base/admin/reload" | grep -o '"veh-' | wc -l || true)
if [[ "$swapped" -ne 10 ]]; then
  echo "fleet smoke FAILED: reload reached $swapped lanes, want 10"; cat "$smoke/fleet.log"; exit 1
fi
if ! curl -sfS --data-binary @"$smoke/fleet2.csv" "$base/ingest?format=csv" >/dev/null; then
  echo "fleet smoke FAILED: second ingest rejected"; cat "$smoke/fleet.log"; exit 1
fi
# Lanes install the reloaded model at their next window boundary; the
# second half of the capture carries every vehicle across several. Poll
# the scrape until all ten lanes report the new epoch.
fleet_ok=""
for _ in $(seq 1 100); do
  mtx=$(curl -sS "$base/metrics")
  n=$(echo "$mtx" | grep -c 'canids_model_epoch{bus="veh-[0-9]"} 2' || true)
  if [[ "$n" -eq 10 ]] && grep -q '^canids_serving_epoch 2' <<<"$mtx"; then fleet_ok=yes; break; fi
  sleep 0.1
done
if [[ -z "$fleet_ok" ]]; then
  echo "fleet smoke FAILED: lanes never converged to epoch 2 after the reload"
  echo "$mtx" | grep 'epoch' || true; cat "$smoke/fleet.log"; exit 1
fi
down_fleet=$(curl -sS -X POST "$base/admin/shutdown")
wait "$serve_pid"
serve_pid=""
fleet_counts=$(echo "$down_fleet" | grep -o '"Frames":[0-9]*' | grep -o '[0-9]*$' | awk -v want="$fleet_total" '
  NR==1 { total = $1; next }
  { sum += $1; buses++ }
  END {
    if (buses == 10 && total == want && sum == total) print "ok " total
    else printf "buses=%d total=%s sum=%s want=%s", buses, total, sum, want
  }')
if [[ "$fleet_counts" != ok* ]]; then
  echo "fleet smoke FAILED: counts do not reconcile ($fleet_counts)"
  echo "$down_fleet"; cat "$smoke/fleet.log"; exit 1
fi
if echo "$down_fleet" | grep -o '"Lost":[0-9]*' | grep -qv '"Lost":0'; then
  echo "fleet smoke FAILED: fleet drain lost frames"; echo "$down_fleet"; exit 1
fi
echo "fleet smoke: 10 vehicles over 2 engines, ${fleet_counts#ok } frames reconciled, one reload -> epoch 2 everywhere"

# Dataset-eval smoke: the -eval harness over every committed dialect
# fixture must produce a byte-identical transcript across two runs with
# the same flags, and its accounting line must reconcile exactly:
# imported+skipped == rows and detected+missed == attacks.
echo "== dataset-eval smoke"
for fx in internal/dataset/testdata/hcrl.csv internal/dataset/testdata/survival.csv internal/dataset/testdata/otids.log; do
  name=$(basename "$fx")
  "$smoke/canids" -eval "$fx" > "$smoke/eval1.txt"
  "$smoke/canids" -eval "$fx" > "$smoke/eval2.txt"
  if ! cmp -s "$smoke/eval1.txt" "$smoke/eval2.txt"; then
    echo "dataset-eval smoke FAILED: $name transcript differs between runs"
    diff "$smoke/eval1.txt" "$smoke/eval2.txt" || true
    exit 1
  fi
  acct=$(grep "^accounting $name:" "$smoke/eval1.txt" || true)
  if [[ -z "$acct" ]]; then
    echo "dataset-eval smoke FAILED: $name transcript has no accounting line"
    cat "$smoke/eval1.txt"; exit 1
  fi
  recon=$(echo "$acct" | awk '{
    for (i = 1; i <= NF; i++) if (split($i, kv, "=") == 2) v[kv[1]] = kv[2]
    if (v["imported"] + v["skipped"] == v["rows"] && v["detected"] + v["missed"] == v["attacks"])
      print "ok rows=" v["rows"] " attacks=" v["attacks"] " detected=" v["detected"]
    else
      print "mismatch: " $0
  }')
  if [[ "$recon" != ok* ]]; then
    echo "dataset-eval smoke FAILED: $name accounting does not reconcile ($recon)"
    echo "$acct"; exit 1
  fi
  echo "dataset-eval smoke: $name deterministic across runs, ${recon#ok }"
done

bench_raw=$(go test -run '^$' -bench . -benchtime=1x -benchmem .)
echo "$bench_raw"

{
  echo '{'
  echo "  \"go\": \"$(go env GOVERSION)\","
  echo "  \"benchtime\": \"1x\","
  echo '  "benchmarks": {'
  echo "$bench_raw" | awk '
    /^Benchmark/ {
      name = $1
      sub(/-[0-9]+$/, "", name)
      ns = ""; bytes = ""; allocs = ""
      for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        if ($i == "B/op") bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
      }
      if (ns == "") next
      if (bytes == "") bytes = "null"
      if (allocs == "") allocs = "null"
      lines[n++] = sprintf("    \"%s\": {\"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s}", name, ns, bytes, allocs)
    }
    END {
      for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n-1 ? "," : "")
    }'
  echo '  }'
  echo '}'
} > "$out"

echo "wrote $out"
