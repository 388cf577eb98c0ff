#!/usr/bin/env bash
# CLI robustness harness: pgb must exit non-zero with a one-line
# diagnostic — and never abort, segfault, or std::terminate — for every
# broken corpus input, injected write failure, and garbage argument.
#
# usage: cli_robustness.sh <path-to-pgb> <corpus-dir>
set -u

PGB=${1:?usage: cli_robustness.sh <pgb> <corpus-dir>}
CORPUS=${2:?usage: cli_robustness.sh <pgb> <corpus-dir>}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

failures=0

# run <description> -- <cmd...>: expect clean non-zero exit + stderr.
expect_fail() {
    local what=$1
    shift
    local err="$WORK/stderr.txt"
    "$@" >/dev/null 2> "$err"
    local status=$?
    if [ "$status" -eq 0 ]; then
        echo "FAIL: $what: expected failure but exited 0" >&2
        failures=$((failures + 1))
    elif [ "$status" -ge 128 ]; then
        # 134 = SIGABRT (std::terminate), 139 = SIGSEGV.
        echo "FAIL: $what: killed by signal (exit $status)" >&2
        failures=$((failures + 1))
    elif ! [ -s "$err" ]; then
        echo "FAIL: $what: no diagnostic on stderr" >&2
        failures=$((failures + 1))
    else
        echo "ok: $what ($(head -n 1 "$err"))"
    fi
}

expect_ok() {
    local what=$1
    shift
    if ! "$@" >/dev/null 2> "$WORK/stderr.txt"; then
        echo "FAIL: $what: expected success, got exit $?" >&2
        sed 's/^/    /' "$WORK/stderr.txt" >&2
        failures=$((failures + 1))
    else
        echo "ok: $what"
    fi
}

# A small healthy dataset to drive the write-failure cases.
expect_ok "simulate healthy dataset" \
    "$PGB" simulate "$WORK/d" 2000 4 1

# --- every corpus input fails cleanly in strict mode ----------------
expect_fail "stats on duplicate segment" \
    "$PGB" stats "$CORPUS/dup_segment.gfa"
expect_fail "stats on bad orientation" \
    "$PGB" stats "$CORPUS/bad_orientation.gfa"
expect_fail "stats on unknown segment" \
    "$PGB" stats "$CORPUS/unknown_segment.gfa"
expect_fail "stats on empty GFA" \
    "$PGB" stats "$CORPUS/empty.gfa"
expect_fail "stats on missing file" \
    "$PGB" stats "$CORPUS/no_such_file.gfa"
expect_fail "map with truncated FASTQ" \
    "$PGB" map "$WORK/d.gfa" "$CORPUS/truncated.fq"
expect_fail "map with bad FASTQ header" \
    "$PGB" map "$WORK/d.gfa" "$CORPUS/bad_header.fq"
expect_fail "map with quality mismatch" \
    "$PGB" map "$WORK/d.gfa" "$CORPUS/qual_mismatch.fq"
expect_fail "build with non-ACGT FASTA" \
    "$PGB" build "$CORPUS/bad_bases.fa" "$WORK/out.gfa"
expect_fail "build with data before header" \
    "$PGB" build "$CORPUS/data_before_header.fa" "$WORK/out.gfa"

# CRLF input is legal, not an error.
expect_ok "stats on CRLF GFA" "$PGB" stats "$CORPUS/crlf.gfa"

# Lenient mode downgrades a recoverable error to a warning.
expect_ok "lenient stats on bad orientation" \
    env PGB_LENIENT_PARSE=1 "$PGB" stats "$CORPUS/bad_orientation.gfa"

# --- injected write failures ---------------------------------------
expect_fail "layout with injected flush failure" \
    env PGB_FAULT=io.flush:1 \
    "$PGB" layout "$WORK/d.gfa" "$WORK/layout.tsv" 2 1
expect_fail "split with injected flush failure" \
    env PGB_FAULT=io.flush:1 \
    "$PGB" split "$WORK/d.gfa" "$WORK/split.gfa" 8
expect_fail "layout to unwritable path" \
    "$PGB" layout "$WORK/d.gfa" "$WORK/no-such-dir/layout.tsv" 2 1
expect_fail "split to unwritable path" \
    "$PGB" split "$WORK/d.gfa" "$WORK/no-such-dir/split.gfa" 8

# --- injected worker faults surface as one-line errors -------------
expect_fail "map with injected worker fault" \
    env PGB_FAULT=mapper.read:1 \
    "$PGB" map "$WORK/d.gfa" "$WORK/d.short.fq" vgmap 2

# --- observability surface fails closed ----------------------------
# An unwritable --metrics/--trace path must fail the whole run with a
# one-line diagnostic and leave no partial file, even though the
# command itself succeeded: a silently missing metrics file defeats
# the point of asking for one.
expect_fail "stats with --metrics to unwritable path" \
    "$PGB" stats "$WORK/d.gfa" --metrics "$WORK/no-such-dir/m.json"
if [ -e "$WORK/no-such-dir/m.json" ]; then
    echo "FAIL: --metrics left a partial file on failure" >&2
    failures=$((failures + 1))
fi
expect_fail "stats with --trace to unwritable path" \
    "$PGB" stats "$WORK/d.gfa" --trace "$WORK/no-such-dir/t.json"
expect_fail "metrics write with injected flush failure" \
    env PGB_FAULT=io.flush:1 \
    "$PGB" stats "$WORK/d.gfa" --metrics "$WORK/m.json"
expect_fail "--metrics with missing value" \
    "$PGB" stats "$WORK/d.gfa" --metrics
expect_ok "stats with --metrics and --trace" \
    "$PGB" stats "$WORK/d.gfa" --metrics "$WORK/ok-m.json" \
    --trace "$WORK/ok-t.json"

# --- .pgbi artifact loading fails closed ---------------------------
expect_ok "index healthy dataset" \
    "$PGB" index "$WORK/d.gfa" -o "$WORK/d.pgbi"
expect_ok "map via artifact" \
    "$PGB" map --index "$WORK/d.pgbi" "$WORK/d.short.fq" vgmap 1
expect_fail "map with missing artifact" \
    "$PGB" map --index "$WORK/no_such.pgbi" "$WORK/d.short.fq"
expect_fail "map with bad-magic artifact" \
    "$PGB" map --index "$CORPUS/bad_magic.pgbi" "$WORK/d.short.fq"
expect_fail "map with wrong-version artifact" \
    "$PGB" map --index "$CORPUS/wrong_version.pgbi" "$WORK/d.short.fq"
expect_fail "map with truncated artifact" \
    "$PGB" map --index "$CORPUS/truncated.pgbi" "$WORK/d.short.fq"

# --- seeder selection fails closed ---------------------------------
# d.pgbi was built without --seeder=mem, so it has no FM sections:
# asking for MEM seeding against it must be a one-line fatal telling
# the user to rebuild, not a crash or a silent minimizer fallback.
expect_fail "map --seeder=mem without FM sections" \
    "$PGB" map --index "$WORK/d.pgbi" --seeder=mem "$WORK/d.short.fq"
expect_fail "serve --seeder=mem without FM sections" \
    "$PGB" serve --index "$WORK/d.pgbi" --seeder=mem \
    --socket "$WORK/s.sock"
expect_fail "map with garbage --seeder" \
    "$PGB" map --index "$WORK/d.pgbi" --seeder=banana "$WORK/d.short.fq"
expect_fail "index with garbage --seeder" \
    "$PGB" index "$WORK/d.gfa" -o "$WORK/d2.pgbi" --seeder=banana
expect_ok "index with FM sections" \
    "$PGB" index "$WORK/d.gfa" -o "$WORK/dm.pgbi" --seeder=mem
expect_ok "map --seeder=mem via FM artifact" \
    "$PGB" map --index "$WORK/dm.pgbi" --seeder=mem \
    "$WORK/d.short.fq" vgmap 1
# A corrupted FM section is corruption even for a minimizer-seeded
# load: the artifact fails closed either way.
expect_fail "map with FM bad-checksum artifact" \
    "$PGB" map --index "$CORPUS/fm_bad_checksum.pgbi" "$WORK/d.short.fq"
expect_fail "map --seeder=mem with FM-truncated artifact" \
    "$PGB" map --index "$CORPUS/fm_truncated.pgbi" --seeder=mem \
    "$WORK/d.short.fq"
expect_fail "map --seeder=mem with FM bad-meta artifact" \
    "$PGB" map --index "$CORPUS/fm_bad_meta.pgbi" --seeder=mem \
    "$WORK/d.short.fq"
# A GBWT body edge index past its record's edges (checksums valid)
# fails closed at load, before any giraffe walk can index past them.
expect_fail "map with GBWT bad-edge artifact" \
    "$PGB" map --index "$CORPUS/gbwt_bad_edge.pgbi" "$WORK/d.short.fq" \
    giraffe 1
# An artifact whose GBWT is in the older five-section split, not BWRD
# words, fails closed on the missing section.
expect_fail "map with split-layout GBWT artifact" \
    "$PGB" map --index "$CORPUS/gbwt_split_layout.pgbi" \
    "$WORK/d.short.fq" giraffe 1
if ! grep -q "missing required section BWRD" "$WORK/stderr.txt"; then
    echo "FAIL: split-layout GBWT artifact: wrong diagnostic" >&2
    failures=$((failures + 1))
fi
# A META k outside [1, 32] and an MTAB hash wider than 2k bits
# (checksums valid) fail closed at load, before any minimizer scan or
# directory lookup.
expect_fail "map with minimizer bad-k artifact" \
    "$PGB" map --index "$CORPUS/minimizer_bad_k.pgbi" "$WORK/d.short.fq"
expect_fail "map with minimizer hash-range artifact" \
    "$PGB" map --index "$CORPUS/minimizer_hash_range.pgbi" \
    "$WORK/d.short.fq"

# A flipped payload byte must trip the section checksum.
cp "$WORK/d.pgbi" "$WORK/bitrot.pgbi"
printf '\x55' | dd of="$WORK/bitrot.pgbi" bs=1 seek=4096 \
    conv=notrunc 2>/dev/null
expect_fail "map with bit-flipped artifact" \
    "$PGB" map --index "$WORK/bitrot.pgbi" "$WORK/d.short.fq"

# Every store fault site surfaces as a one-line error.
for site in store.open store.mmap store.section store.checksum; do
    expect_fail "map with injected $site fault" \
        env PGB_FAULT=$site:1 \
        "$PGB" map --index "$WORK/d.pgbi" "$WORK/d.short.fq"
done

# A failed index write must not leave a partial artifact behind.
expect_fail "index with injected flush failure" \
    env PGB_FAULT=io.flush:1 \
    "$PGB" index "$WORK/d.gfa" -o "$WORK/failed.pgbi"
if [ -e "$WORK/failed.pgbi" ] || [ -e "$WORK/failed.pgbi.tmp" ]; then
    echo "FAIL: failed index left a partial artifact" >&2
    failures=$((failures + 1))
fi
expect_fail "index to unwritable path" \
    "$PGB" index "$WORK/d.gfa" -o "$WORK/no-such-dir/d.pgbi"
expect_fail "index without --output" \
    "$PGB" index "$WORK/d.gfa"

# --- fault-site inventory ------------------------------------------
# `pgb fault-sites` prints the registered injection points so an
# operator can discover what PGB_FAULT / PGB_FAULT_CHAOS can target.
expect_ok "fault-sites lists the registry" "$PGB" fault-sites
"$PGB" fault-sites > "$WORK/sites.txt" 2>/dev/null
for site in serve.read serve.reload serve.stall store.checksum \
            io.flush; do
    if ! grep -q "^$site " "$WORK/sites.txt"; then
        echo "FAIL: fault-sites output is missing $site" >&2
        failures=$((failures + 1))
    fi
done
expect_fail "fault-sites with stray positional" \
    "$PGB" fault-sites extra

# A malformed chaos spec must warn and run clean, never arm a bogus
# schedule: chaos is an opt-in test harness, not a footgun.
expect_ok "malformed PGB_FAULT_CHAOS warns but runs" \
    env PGB_FAULT_CHAOS=banana "$PGB" stats "$WORK/d.gfa"
env PGB_FAULT_CHAOS=banana "$PGB" stats "$WORK/d.gfa" \
    > /dev/null 2> "$WORK/chaos_warn.txt" || true
if ! grep -q "PGB_FAULT_CHAOS" "$WORK/chaos_warn.txt"; then
    echo "FAIL: malformed PGB_FAULT_CHAOS produced no warning" >&2
    failures=$((failures + 1))
else
    echo "ok: malformed PGB_FAULT_CHAOS warns on stderr"
fi
expect_ok "well-formed PGB_FAULT_CHAOS at p=0 is a no-op" \
    env PGB_FAULT_CHAOS=7:0 "$PGB" stats "$WORK/d.gfa"

# --- serve/loadgen environment errors fail closed ------------------
expect_fail "serve without --index" \
    "$PGB" serve --socket "$WORK/s.sock"
expect_fail "serve with missing artifact" \
    "$PGB" serve --index "$WORK/no_such.pgbi" --socket "$WORK/s.sock"
expect_fail "serve with bad-magic artifact" \
    "$PGB" serve --index "$CORPUS/bad_magic.pgbi" \
    --socket "$WORK/s.sock"
expect_fail "serve with neither --socket nor --stdio" \
    "$PGB" serve --index "$WORK/d.pgbi"
expect_fail "serve with both --socket and --stdio" \
    "$PGB" serve --index "$WORK/d.pgbi" --socket "$WORK/s.sock" --stdio
# An existing file at the socket path is a collision, not ours to
# delete: the daemon must refuse, not clobber.
touch "$WORK/collide.sock"
expect_fail "serve with socket path collision" \
    "$PGB" serve --index "$WORK/d.pgbi" --socket "$WORK/collide.sock"
if ! [ -e "$WORK/collide.sock" ]; then
    echo "FAIL: serve removed a colliding socket path" >&2
    failures=$((failures + 1))
fi
long_path="$WORK/$(printf 'x%.0s' $(seq 1 200)).sock"
expect_fail "serve with over-long socket path" \
    "$PGB" serve --index "$WORK/d.pgbi" --socket "$long_path"

# A malformed frame on stdio transport is fatal (the sole peer's
# stream is gone); the process must exit 1, not die on a signal.
expect_fail "serve stdio with malformed frame" \
    bash -c "printf 'garbagegarbagegarbage' | \
        '$PGB' serve --index '$WORK/d.pgbi' --stdio"
# Empty stdio input is a clean no-op session.
expect_ok "serve stdio with empty input" \
    bash -c "'$PGB' serve --index '$WORK/d.pgbi' --stdio < /dev/null"

expect_fail "loadgen without --socket" \
    "$PGB" loadgen "$WORK/d.short.fq"
expect_fail "loadgen against dead socket" \
    "$PGB" loadgen --socket "$WORK/nobody-home.sock" "$WORK/d.short.fq"
expect_fail "loadgen with garbage rate" \
    "$PGB" loadgen --socket "$WORK/nobody-home.sock" \
    "$WORK/d.short.fq" --rate fast
expect_fail "loadgen with missing reads file" \
    "$PGB" loadgen --socket "$WORK/nobody-home.sock" \
    "$WORK/no_such.fq"
expect_fail "loadgen with garbage timeout" \
    "$PGB" loadgen --socket "$WORK/nobody-home.sock" \
    "$WORK/d.short.fq" --timeout-us soon
expect_fail "loadgen with garbage retry count" \
    "$PGB" loadgen --socket "$WORK/nobody-home.sock" \
    "$WORK/d.short.fq" --retries always

# --- .pgbs shard sets fail closed ----------------------------------
expect_fail "shard without --output" \
    "$PGB" shard "$WORK/d.gfa"
expect_fail "shard with garbage --seeder" \
    "$PGB" shard "$WORK/d.gfa" -o "$WORK/d.pgbs" --seeder=banana
expect_ok "shard healthy dataset" \
    "$PGB" shard "$WORK/d.gfa" -o "$WORK/d.pgbs" --target-shard-mb 1
expect_ok "map via shard set" \
    "$PGB" map --shards "$WORK/d.pgbs" "$WORK/d.short.fq" vgmap 1
expect_fail "map with both --index and --shards" \
    "$PGB" map --index "$WORK/d.pgbi" --shards "$WORK/d.pgbs" \
    "$WORK/d.short.fq"
expect_fail "map with missing manifest" \
    "$PGB" map --shards "$WORK/no_such.pgbs" "$WORK/d.short.fq"
expect_fail "map with corrupt manifest" \
    "$PGB" map --shards "$CORPUS/bad_checksum.pgbs" "$WORK/d.short.fq"
expect_fail "map with duplicate-component manifest" \
    "$PGB" map --shards "$CORPUS/dup_component.pgbs" "$WORK/d.short.fq"
expect_fail "map with manifest whose shard file is missing" \
    "$PGB" map --shards "$CORPUS/missing_shard.pgbs" "$WORK/d.short.fq"
expect_fail "map with injected store.manifest fault" \
    env PGB_FAULT=store.manifest:1 \
    "$PGB" map --shards "$WORK/d.pgbs" "$WORK/d.short.fq"
# d.pgbs was sharded without --seeder=mem, so its shards carry no FM
# sections: MEM seeding against it must fail closed, like the .pgbi
# case above.
expect_fail "map --seeder=mem against minimizer shard set" \
    "$PGB" map --shards "$WORK/d.pgbs" --seeder=mem "$WORK/d.short.fq"
expect_fail "serve with both --index and --shards" \
    "$PGB" serve --index "$WORK/d.pgbi" --shards "$WORK/d.pgbs" \
    --socket "$WORK/s.sock"
expect_fail "serve with corrupt manifest" \
    "$PGB" serve --shards "$CORPUS/bad_checksum.pgbs" \
    --socket "$WORK/s.sock"
# A failed shard build must not leave partial shard files or a
# manifest behind.
expect_fail "shard with injected flush failure" \
    env PGB_FAULT=io.flush:1 \
    "$PGB" shard "$WORK/d.gfa" -o "$WORK/failed.pgbs"
if [ -e "$WORK/failed.pgbs" ] || [ -e "$WORK/failed.pgbs.tmp" ]; then
    echo "FAIL: failed shard build left a partial manifest" >&2
    failures=$((failures + 1))
fi

# --- garbage numeric arguments -------------------------------------
expect_fail "map with garbage thread count" \
    "$PGB" map "$WORK/d.gfa" "$WORK/d.short.fq" vgmap banana
expect_fail "map with zero threads" \
    "$PGB" map "$WORK/d.gfa" "$WORK/d.short.fq" vgmap 0
expect_fail "map with negative threads" \
    "$PGB" map "$WORK/d.gfa" "$WORK/d.short.fq" vgmap -4
expect_fail "layout with garbage iterations" \
    "$PGB" layout "$WORK/d.gfa" "$WORK/layout.tsv" many
expect_fail "simulate with out-of-range bases" \
    "$PGB" simulate "$WORK/g" 7
expect_fail "split with trailing junk length" \
    "$PGB" split "$WORK/d.gfa" "$WORK/split.gfa" 8x

if [ "$failures" -ne 0 ]; then
    echo "$failures robustness check(s) failed" >&2
    exit 1
fi
echo "all robustness checks passed"
