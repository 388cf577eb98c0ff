#!/usr/bin/env bash
# End-to-end smoke test of the runtime observability surface:
#
#   PGB_THREADS=4 PGB_METRICS=1 pgb build --metrics m.json --trace t.json
#
# must exit 0, print a one-line metrics summary to stderr, and emit
# metrics JSON with nonzero scheduler counters and per-site fault hit
# counts plus a trace with the pipeline's stage spans; a MEM-seeded
# `pgb map --metrics` must report the seed.* counters, FM-index
# backward-extension steps (seed.fm_steps) included, and a sample in
# each of the four mapper.stage_nanos.<stage> histograms (vg map enters
# every stage: seed, cluster_chain, filter, align). PGB_THREADS is
# forced so the pool spawns workers even on single-core CI runners
# (otherwise tasks_spawned is legitimately zero and proves nothing).
#
# Usage: metrics_smoke.sh <path-to-pgb>
set -u

PGB=${1:?usage: metrics_smoke.sh <path-to-pgb>}
PY=python3

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fail() {
    echo "metrics_smoke: FAIL: $*" >&2
    exit 1
}

"$PGB" simulate d 20000 4 1 >/dev/null 2>&1 \
    || fail "fixture simulate failed"

PGB_THREADS=4 PGB_METRICS=1 \
    "$PGB" build d.fa out.gfa pggb 4 \
    --metrics metrics.json --trace trace.json \
    >stdout.txt 2>stderr.txt \
    || fail "pgb build --metrics --trace exited nonzero: $(cat stderr.txt)"

grep -q '^pgb metrics: ' stderr.txt \
    || fail "PGB_METRICS=1 printed no summary line: $(cat stderr.txt)"

[ -s metrics.json ] || fail "metrics.json missing or empty"
[ -s trace.json ] || fail "trace.json missing or empty"

"$PY" - <<'EOF' || exit 1
import json
import sys

def fail(msg):
    print("metrics_smoke: FAIL:", msg, file=sys.stderr)
    sys.exit(1)

with open("metrics.json") as f:
    metrics = json.load(f)
if metrics.get("schema") != "pgb.metrics.v1":
    fail("bad schema: %r" % metrics.get("schema"))
counters = metrics["counters"]
gauges = metrics["gauges"]
if counters.get("threadpool.tasks_spawned", 0) <= 0:
    fail("threadpool.tasks_spawned is zero under PGB_THREADS=4")
fault_hits = [k for k in counters if k.startswith("fault.")
              and k.endswith(".hits")]
if not fault_hits:
    fail("no fault.<site>.hits counters in the report")
if not any(counters[k] > 0 for k in fault_hits):
    fail("every fault site reports zero hits; provider looks dead")
if "threadpool.queue_depth" not in gauges:
    fail("threadpool.queue_depth gauge missing")
# The serving survivability counters register at static init, so they
# must ride into every snapshot (zero-valued here: nothing served).
for name in ("serve.deadline_exceeded", "serve.retries_observed",
             "serve.reloads_ok", "serve.reloads_failed",
             "serve.watchdog_stalls"):
    if name not in counters:
        fail("%s counter missing from the report" % name)

with open("trace.json") as f:
    trace = json.load(f)
events = trace["traceEvents"]
if not events:
    fail("trace has no events")
names = {e["name"] for e in events}
stages = {"alignment", "induction", "polishing", "visualization"}
found = names & stages
if len(found) < 3:
    fail("expected >=3 pipeline stage spans, got %s" % sorted(names))
for e in events:
    if e["ph"] != "X" or e["dur"] < 0 or e["pid"] != 1:
        fail("malformed trace event: %r" % e)

print("metrics_smoke: OK (%d counters, %d trace events)"
      % (len(counters), len(events)))
EOF

"$PGB" map d.gfa d.short.fq vgmap 2 --seeder=mem \
    --metrics map_metrics.json >map_stdout.txt 2>map_stderr.txt \
    || fail "pgb map --seeder=mem exited nonzero: $(cat map_stderr.txt)"

"$PY" - <<'EOF' || exit 1
import json
import sys

with open("map_metrics.json") as f:
    counters = json.load(f)["counters"]
for name in ("seed.anchors", "seed.mems", "seed.mem_occurrences",
             "seed.fm_steps"):
    if counters.get(name, 0) <= 0:
        print("metrics_smoke: FAIL: %s = %r after a MEM-seeded map"
              % (name, counters.get(name)), file=sys.stderr)
        sys.exit(1)
if "seed.dropped_repetitive" not in counters:
    print("metrics_smoke: FAIL: seed.dropped_repetitive missing",
          file=sys.stderr)
    sys.exit(1)
for stage in ("seed", "cluster_chain", "filter", "align"):
    name = "mapper.stage_nanos.%s.count" % stage
    if counters.get(name, 0) <= 0:
        print("metrics_smoke: FAIL: %s = %r after a vgmap map"
              % (name, counters.get(name)), file=sys.stderr)
        sys.exit(1)
print("metrics_smoke: OK (seed.fm_steps = %d)" % counters["seed.fm_steps"])
EOF
