#!/usr/bin/env bash
# Proves the serve stack survives a hostile wire without changing a
# byte of output:
#
#   1. the full suite is submitted through the deterministic chaos
#      proxy (ci/chaos-plan.json: a mid-frame delay plus truncation on
#      connection 0, an abrupt close on connection 1, a garbage prefix
#      on connection 2) and the client's reconnect/resume machinery
#      must reassemble a report byte-identical to the committed
#      baseline, with exactly one reconnect per faulted connection;
#   2. a slowloris client dripping one byte per second at the HTTP
#      front end is evicted by the read timeout while a concurrent
#      submission on the line protocol completes untouched;
#   3. every injected fault is visible as a deterministic serve.net.*
#      counter, no worker ever wedged (workers_respawned == 0), the
#      queue drains to zero, and once nothing is in flight every
#      submission has completed.
#
# Usage:
#
#   ci/chaos-smoke.sh
#
# Artifacts: chaos-report.json (stripped suite report), stats-chaos.json
# / stats-final.json (daemon stats), serve-chaos.log / chaos-proxy.log
# (daemon and proxy stdout/stderr), chaos-submit.log (client output).
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=ci/baseline-report.json
WORKERS="${SERVE_WORKERS:-8}"
READ_TIMEOUT_MS=2000
trap 'kill "${DAEMON:-}" "${PROXY:-}" 2>/dev/null || true' EXIT

cargo build --release -p parchmint-cli

target/release/parchmint serve --tcp 127.0.0.1:0 --http 127.0.0.1:0 \
  --workers "$WORKERS" --read-timeout-ms "$READ_TIMEOUT_MS" \
  > serve-chaos.log 2>&1 &
DAEMON=$!
ADDR="" HTTP_ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/^listening on //p' serve-chaos.log | head -n 1)
  HTTP_ADDR=$(sed -n 's/^http listening on //p' serve-chaos.log | head -n 1)
  [[ -n "$ADDR" && -n "$HTTP_ADDR" ]] && break
  sleep 0.1
done
if [[ -z "$ADDR" || -z "$HTTP_ADDR" ]]; then
  echo "chaos-smoke: daemon never reported its addresses" >&2
  cat serve-chaos.log >&2
  exit 1
fi
echo "daemon is listening on $ADDR (http on $HTTP_ADDR)"

target/release/parchmint chaos-proxy ci/chaos-plan.json \
  --listen 127.0.0.1:0 --upstream "$ADDR" > chaos-proxy.log 2>&1 &
PROXY=$!
PROXY_ADDR=""
for _ in $(seq 1 100); do
  PROXY_ADDR=$(sed -n 's/^chaos proxy listening on \([^ ]*\) .*/\1/p' chaos-proxy.log | head -n 1)
  [[ -n "$PROXY_ADDR" ]] && break
  sleep 0.1
done
if [[ -z "$PROXY_ADDR" ]]; then
  echo "chaos-smoke: proxy never reported its address" >&2
  cat chaos-proxy.log >&2
  exit 1
fi
echo "chaos proxy is listening on $PROXY_ADDR"

# --- Phase 1: the full suite through the faulted wire. The plan tears
# three consecutive connections in three different ways; the client
# must reconnect exactly three times, resume only unacknowledged
# designs, and produce the byte-identical baseline report.
target/release/parchmint submit --addr "$PROXY_ADDR" \
  --strip-timings -o chaos-report.json --stats-out stats-chaos.json \
  --backoff-seed 11 | tee chaos-submit.log
cmp chaos-report.json "$BASELINE"
echo "chaos-fed report is byte-identical to $BASELINE"
grep -q "wire: 3 reconnects" chaos-submit.log || {
  echo "chaos-smoke: expected exactly 3 reconnects" >&2
  exit 1
}

# --- Phase 2: slowloris. One byte of an HTTP request line per second;
# the read timeout must evict the dripper with a 408 while a
# concurrent line-protocol submission completes.
python3 - "$ADDR" "$HTTP_ADDR" "$READ_TIMEOUT_MS" <<'EOF'
import json, socket, sys, threading, time

addr, http_addr, timeout_ms = sys.argv[1], sys.argv[2], int(sys.argv[3])
host, port = addr.rsplit(":", 1)
http_host, http_port = http_addr.rsplit(":", 1)

dripper = socket.create_connection((http_host, int(http_port)))
dripper.settimeout(timeout_ms / 1000 * 5)
stop = threading.Event()

def drip():
    for byte in b"GET /v1/healthz HTTP/1.1":
        if stop.is_set():
            return
        try:
            dripper.sendall(bytes([byte]))
        except OSError:
            return  # evicted mid-drip: exactly the point
        time.sleep(1.0)

feeder = threading.Thread(target=drip)
feeder.start()

# Concurrent legitimate work must be unaffected by the dripper.
with socket.create_connection((host, int(port))) as conn:
    conn.sendall(b'{"op":"submit","id":"live","benchmark":"logic_gate_or",'
                 b'"stages":["validate"]}\n')
    reader = conn.makefile()
    while True:
        event = json.loads(reader.readline())
        assert event["event"] != "error", event
        if event["event"] == "done":
            break
print("concurrent submission completed while the dripper dripped")

response = b""
try:
    while True:
        chunk = dripper.recv(4096)
        if not chunk:
            break
        response += chunk
except TimeoutError:
    pass
stop.set()
feeder.join()
dripper.close()
text = response.decode(errors="replace")
assert "408" in text and "timed out" in text, f"expected a 408 eviction: {text!r}"
print("slowloris dripper evicted with a 408 after the read timeout")
EOF

# --- Phase 3: the observability trail. Every fault kind must have
# moved its deterministic counter, no worker was lost, nothing is stuck
# in the queue, and the drained daemon completed every submission.
python3 - "$ADDR" <<'EOF'
import json, socket, sys, time

host, port = sys.argv[1].rsplit(":", 1)
def fetch():
    with socket.create_connection((host, int(port))) as conn:
        conn.sendall(b'{"op":"stats","id":"final"}\n')
        return json.loads(conn.makefile().readline())["stats"]

deadline = time.monotonic() + 5
stats = fetch()
while stats["requests"]["in_flight"] != 0 and time.monotonic() < deadline:
    time.sleep(0.05)
    stats = fetch()

with open("stats-final.json", "w") as f:
    json.dump(stats, f, indent=2, sort_keys=True)
    f.write("\n")

counters = stats["counters"]
def at_least(name, n):
    assert counters.get(name, 0) >= n, f"{name} < {n}: {counters}"

at_least("serve.net.frames.stalled", 1)   # the mid-frame delay fault
at_least("serve.net.frames.torn", 1)      # truncate / close tore a frame
at_least("serve.net.bad_requests", 1)     # the garbage prefix
at_least("serve.net.read_timeouts", 1)    # the slowloris eviction
at_least("serve.net.conn.accepted", 5)    # 3 faulted + retries + live work
assert stats["workers_respawned"] == 0, stats["workers_respawned"]
assert stats["queue"]["depth"] == 0, stats["queue"]
requests = stats["requests"]
assert requests["in_flight"] == 0, f"still in flight after 5 s: {requests}"
assert requests["submitted"] == requests["completed"], (
    f"a drained daemon completed every submission: {requests}")
print("fault counters:",
      {k: v for k, v in sorted(counters.items()) if k.startswith("serve.net.")})
EOF

# --- Shutdown: the daemon must still drain cleanly after all of it.
python3 - "$ADDR" <<'EOF'
import json, socket, sys
host, port = sys.argv[1].rsplit(":", 1)
with socket.create_connection((host, int(port))) as conn:
    conn.sendall(b'{"op":"shutdown","id":"smoke"}\n')
    ack = json.loads(conn.makefile().readline())
    assert ack["event"] == "shutting_down", ack
EOF
wait "$DAEMON"
kill "$PROXY" 2>/dev/null || true
echo "daemon exited cleanly after the chaos run"
