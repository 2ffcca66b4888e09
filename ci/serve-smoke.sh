#!/usr/bin/env bash
# Boots the `parchmint serve` daemon (line-JSON TCP + HTTP front end +
# persistent spill dir), then proves every tier of the cache subsystem:
#
#   1. a concurrent duplicate pair coalesces onto one compile
#      (single-flight),
#   2. a cold full-suite submission is byte-identical to the committed
#      baseline — the same artifact `suite-run` is gated on,
#   3. a warm resubmission replays 100% from the memory tier (zero new
#      compiles),
#   4. the HTTP front end answers healthz/submit/stats, a batch body
#      comes back slot by slot in element order, and a design sent
#      pretty-printed with its members shuffled gets the compact copy's
#      cache key; then one design's MINT text, sent again over TCP and
#      over HTTP, is served through the memory tier's MINT index with
#      zero compiles,
#   5. the daemon drains cleanly on shutdown, and
#   6. a *restarted* daemon over the same --cache-dir serves the whole
#      suite from the disk spill tier — byte-identical again, zero
#      recompiles.
#
# Before each shutdown the daemon must report nothing in flight and
# every submission completed.
#
# Usage:
#
#   ci/serve-smoke.sh
#
# Artifacts: served-report.json / served-report-warm.json /
# served-report-spill.json (stripped suite reports), stats-*.json
# (daemon stats snapshots), serve.log / serve-restart.log (daemon
# stdout/stderr).
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=ci/baseline-report.json
WORKERS="${SERVE_WORKERS:-8}"
CACHE_DIR=$(mktemp -d -t parchmint-smoke-spill.XXXXXX)
BODIES=$(mktemp -d -t parchmint-smoke-bodies.XXXXXX)
trap 'kill "${DAEMON:-}" 2>/dev/null || true; rm -rf "$CACHE_DIR" "$BODIES"' EXIT

cargo build --release -p parchmint-cli

start_daemon() { # $1 = log file
  target/release/parchmint serve --tcp 127.0.0.1:0 --http 127.0.0.1:0 \
    --workers "$WORKERS" --cache-dir "$CACHE_DIR" > "$1" 2>&1 &
  DAEMON=$!
  ADDR="" HTTP_ADDR=""
  for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^listening on //p' "$1" | head -n 1)
    HTTP_ADDR=$(sed -n 's/^http listening on //p' "$1" | head -n 1)
    [[ -n "$ADDR" && -n "$HTTP_ADDR" ]] && break
    sleep 0.1
  done
  if [[ -z "$ADDR" || -z "$HTTP_ADDR" ]]; then
    echo "serve-smoke: daemon never reported its addresses" >&2
    cat "$1" >&2
    exit 1
  fi
  echo "daemon is listening on $ADDR (http on $HTTP_ADDR)"
}

assert_drained() {
  python3 - "$ADDR" <<'EOF'
import json, socket, sys, time
host, port = sys.argv[1].rsplit(":", 1)
def requests():
    with socket.create_connection((host, int(port))) as conn:
        conn.sendall(b'{"op":"stats","id":"drain"}\n')
        return json.loads(conn.makefile().readline())["stats"]["requests"]
deadline = time.monotonic() + 5
counts = requests()
while counts["in_flight"] != 0 and time.monotonic() < deadline:
    time.sleep(0.05)
    counts = requests()
assert counts["in_flight"] == 0, f"still in flight after 5 s: {counts}"
assert counts["submitted"] == counts["completed"], (
    f"a drained daemon completed every submission: {counts}")
print(f"drained: {counts['submitted']} submissions, all completed")
EOF
}

shutdown_daemon() {
  python3 - "$ADDR" <<'EOF'
import json, socket, sys
host, port = sys.argv[1].rsplit(":", 1)
with socket.create_connection((host, int(port))) as conn:
    conn.sendall(b'{"op":"shutdown","id":"smoke"}\n')
    ack = json.loads(conn.makefile().readline())
    assert ack["event"] == "shutting_down", ack
EOF
  wait "$DAEMON"
}

start_daemon serve.log

# --- Phase 1: single-flight. Two identical submissions race down one
# connection; the duplicate must park behind the leader, so exactly one
# compile executes and the coalesced counter moves.
python3 - "$ADDR" <<'EOF'
import json, socket, sys
host, port = sys.argv[1].rsplit(":", 1)
request = {"op": "submit", "proto": "parchmint-serve/1",
           "benchmark": "rotary_pump_mixer"}
with socket.create_connection((host, int(port))) as conn:
    for i in range(2):
        line = dict(request, id=f"dup{i}")
        conn.sendall((json.dumps(line) + "\n").encode())
    reader, done = conn.makefile(), 0
    while done < 2:
        event = json.loads(reader.readline())
        assert event["event"] != "error", event
        done += event["event"] == "done"
    conn.sendall(b'{"op":"stats","id":"s"}\n')
    while True:
        event = json.loads(reader.readline())
        if event["event"] == "stats":
            break
    cache = event["stats"]["cache"]
    counters = event["stats"]["counters"]
    assert cache["coalesced"] >= 1, f"duplicate never coalesced: {cache}"
    assert counters.get("serve.compile.executed", 0) == 1, (
        f"duplicate pair must share one compile: {counters}")
    print(f"duplicate pair coalesced ({cache['coalesced']}) "
          f"onto one compile")
EOF

# --- Phase 2: cold pass — the whole registry, pipelined over one
# connection; the stripped report must match the committed baseline.
target/release/parchmint submit --addr "$ADDR" \
  --strip-timings -o served-report.json --stats-out stats-cold.json
cmp served-report.json "$BASELINE"
echo "served report is byte-identical to $BASELINE"

# --- Phase 3: warm pass — identical submission; every artifact must
# replay from the memory tier and the report must not change by a byte.
target/release/parchmint submit --addr "$ADDR" \
  --strip-timings -o served-report-warm.json --stats-out stats-warm.json
cmp served-report-warm.json "$BASELINE"

python3 - <<'EOF'
import json

with open("served-report.json") as f:
    cells = json.load(f)["counts"]["cells"]
with open("stats-cold.json") as f:
    cold = json.load(f)
with open("stats-warm.json") as f:
    warm = json.load(f)

cache, requests = warm["cache"], warm["requests"]
entries = cache["entries"]
assert entries > 0, cache
hits = cache["memory_hits"] - cold["cache"]["memory_hits"]
assert hits == entries, (
    f"warm pass should hit every compile in memory: {hits} != {entries}")
stage_hits = cache["stage_hits"] - cold["cache"]["stage_hits"]
assert stage_hits == cells, (
    f"warm pass should replay all {cells} cells from cache: {stage_hits}")
compiles = (warm["counters"].get("serve.compile.executed", 0)
            - cold["counters"].get("serve.compile.executed", 0))
assert compiles == 0, f"warm pass must not compile: {compiles}"
assert requests["rejected"] == 0, requests
assert cache["collisions"] == 0, cache
assert requests["peak_in_flight"] >= 8, (
    f"expected >= 8 concurrent in-flight requests: {requests}")
print(f"warm pass replayed {cells} cells from {entries} cache entries "
      f"with zero compiles; peak in-flight {requests['peak_in_flight']}")
EOF

# --- Phase 4: the HTTP front end, against a live cache.
curl -fsS "http://$HTTP_ADDR/v1/healthz" | grep -q '"status":"ok"'
curl -fsS -X POST "http://$HTTP_ADDR/v1/submit" \
  -d '{"benchmark":"logic_gate_or","stages":["validate"]}' \
  | grep -q '"event":"done"'
curl -fsS "http://$HTTP_ADDR/v1/stats" | grep -q 'parchmint-serve-stats/v2'
# A batch: two copies of one design plus a malformed element. Every
# element is admitted on its own; the copies share one cache key and
# only the malformed slot fails, which makes the batch a 400.
BATCH=$(curl -sS -w '\n%{http_code}' -X POST "http://$HTTP_ADDR/v1/submit" -d '[
  {"id":"a","benchmark":"logic_gate_and","stages":["validate"]},
  {"id":"b","benchmark":"logic_gate_and","stages":["validate"]},
  {"id":"c","benchmark":7}]')
python3 - "$BATCH" <<'EOF'
import json, sys
body, status = sys.argv[1].rsplit("\n", 1)
finals = [slot["events"][-1] for slot in json.loads(body)["results"]]
assert [e["id"] for e in finals] == ["a", "b", "c"], finals
assert [e["event"] for e in finals] == ["done", "done", "error"], finals
assert finals[0]["key"] == finals[1]["key"], finals
assert finals[2]["error"]["kind"] == "bad_request", finals
assert status == "400", status
EOF
# One design, two layouts: compact, then pretty-printed with every
# object's members reversed. Both must get one cache key, and the second
# must be a cache hit.
target/release/parchmint generate logic_gate_or | python3 -c '
import json, sys
design = json.load(sys.stdin)
def reverse(value):
    if isinstance(value, dict):
        return {key: reverse(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [reverse(item) for item in value]
    return value
with open(sys.argv[1] + "/compact.json", "w") as f:
    json.dump({"design": design, "stages": ["validate"]}, f, separators=(",", ":"))
with open(sys.argv[1] + "/pretty.json", "w") as f:
    json.dump({"stages": ["validate"], "design": reverse(design)}, f, indent=2)
' "$BODIES"
for layout in compact pretty; do
  curl -fsS -X POST "http://$HTTP_ADDR/v1/submit" \
    --data-binary @"$BODIES/$layout.json" > "$BODIES/$layout.reply"
done
python3 - "$BODIES" <<'EOF'
import json, sys
compact, pretty = (json.load(open(f"{sys.argv[1]}/{layout}.reply"))["events"][-1]
                   for layout in ("compact", "pretty"))
assert compact["event"] == pretty["event"] == "done", (compact, pretty)
assert pretty["key"] == compact["key"], (compact, pretty)
assert pretty["cached"] is True, pretty
EOF
echo "http front end answered healthz, submit, batch, layouts, and stats"

# One design's MINT text three times: twice over TCP, then over HTTP.
# The last two find the first one's entry by the text alone: both are
# cached with its key, counted as MINT index hits, and compile nothing.
target/release/parchmint convert rotary_pump_mixer > "$BODIES/design.mint"
python3 - "$ADDR" "$HTTP_ADDR" "$BODIES/design.mint" <<'EOF'
import json, socket, sys, urllib.request
host, port = sys.argv[1].rsplit(":", 1)
text = open(sys.argv[3]).read()
submission = {"op": "submit", "mint": text, "stages": ["validate"]}
with socket.create_connection((host, int(port))) as conn:
    reader = conn.makefile()
    def ask(request):
        conn.sendall((json.dumps(request) + "\n").encode())
        while True:
            event = json.loads(reader.readline())
            assert event["event"] != "error", event
            if event["event"] in ("done", "stats"):
                return event
    def counters():
        seen = ask({"op": "stats", "id": "s"})["stats"]["counters"]
        return (seen.get("cache.mint_hits", 0),
                seen.get("serve.compile.executed", 0))
    first = ask(dict(submission, id="m0"))
    before = counters()
    repeats = [ask(dict(submission, id="m1"))]
    post = urllib.request.Request(
        f"http://{sys.argv[2]}/v1/submit",
        data=json.dumps(dict(submission, id="m2")).encode(), method="POST")
    with urllib.request.urlopen(post) as reply:
        repeats.append(json.load(reply)["events"][-1])
    after = counters()
for done in repeats:
    assert done["event"] == "done", done
    assert done["cached"] is True, done
    assert done["key"] == first["key"], (first, done)
rise = (after[0] - before[0], after[1] - before[1])
assert rise == (2, 0), f"(mint hits, compiles) rose by {rise}, want (2, 0)"
print(f"a repeated MINT text was served from the MINT index twice "
      f"(tcp, http) under key {first['key']} with zero compiles")
EOF

# --- Phase 5: clean shutdown.
assert_drained
shutdown_daemon
echo "daemon exited cleanly after shutdown"

# --- Phase 6: restart over the same --cache-dir. The fresh daemon has
# an empty memory tier; the whole suite must be served from disk spill,
# byte-identical, without a single recompile.
start_daemon serve-restart.log
target/release/parchmint submit --addr "$ADDR" \
  --strip-timings -o served-report-spill.json --stats-out stats-spill.json
cmp served-report-spill.json "$BASELINE"

python3 - <<'EOF'
import json

with open("served-report.json") as f:
    cells = json.load(f)["counts"]["cells"]
with open("stats-spill.json") as f:
    stats = json.load(f)

cache, counters = stats["cache"], stats["counters"]
assert cache["spill_hits"] == cache["entries"], (
    f"restarted daemon should rehydrate every design from spill: {cache}")
assert cache["stage_hits"] == cells, (
    f"restarted daemon should replay all {cells} cells: {cache}")
assert counters.get("serve.compile.executed", 0) == 0, (
    f"spill-served resubmission must not recompile: {counters}")
assert cache["spill_corrupt"] == 0, cache
assert cache["collisions"] == 0, cache
print(f"restarted daemon served {cache['entries']} designs "
      f"({cells} cells) from the spill tier with zero recompiles")
EOF

assert_drained
shutdown_daemon
echo "restarted daemon exited cleanly; spill tier verified"
