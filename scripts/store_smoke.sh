#!/usr/bin/env bash
# Build-once/map-many smoke test: simulate a pangenome, build a .pgbi
# artifact with `pgb index`, then serve every mapping profile from the
# same artifact with `pgb map --index` — the end-to-end workflow
# README's "Build once, map many" section documents.
#
# usage: store_smoke.sh <path-to-pgb>
set -eu

PGB=${1:?usage: store_smoke.sh <pgb>}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

"$PGB" simulate "$WORK/d" 20000 4 11
"$PGB" index "$WORK/d.gfa" -o "$WORK/d.pgbi" --threads 2
test -s "$WORK/d.pgbi" || {
    echo "FAIL: pgb index left no artifact" >&2
    exit 1
}

# One artifact serves every profile (it always carries the GBWT).
for profile in vgmap giraffe graphaligner; do
    "$PGB" map --index "$WORK/d.pgbi" "$WORK/d.short.fq" "$profile" 2
done
"$PGB" map --index "$WORK/d.pgbi" "$WORK/d.long.fq" minigraph 2

# The artifact path must agree with the in-memory path read for read:
# the per-read dumps are byte-identical for vgmap, for giraffe (the
# profile that walks the GBWT), and for MEM-seeded vgmap on an
# artifact that carries the FM-index.
"$PGB" index "$WORK/d.gfa" -o "$WORK/dm.pgbi" --threads 2 --seeder=mem
same_dump() {
    local what=$1 index=$2
    shift 2
    "$PGB" map "$WORK/d.gfa" "$@" --dump "$WORK/direct.tsv" >/dev/null
    "$PGB" map --index "$index" "$@" --dump "$WORK/warm.tsv" >/dev/null
    test -s "$WORK/direct.tsv" || {
        echo "FAIL: $what: empty dump" >&2
        exit 1
    }
    cmp "$WORK/direct.tsv" "$WORK/warm.tsv" || {
        echo "FAIL: $what: artifact path diverged from the GFA path" >&2
        exit 1
    }
}
same_dump vgmap "$WORK/d.pgbi" "$WORK/d.short.fq" vgmap 1
same_dump giraffe "$WORK/d.pgbi" "$WORK/d.short.fq" giraffe 1
same_dump "mem vgmap" "$WORK/dm.pgbi" --seeder=mem "$WORK/d.short.fq" \
    vgmap 1

echo "store smoke test passed (per-read dumps identical via artifact)"
