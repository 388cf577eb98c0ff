#include "pipeline/seeder.hpp"

#include <algorithm>

#include "core/logging.hpp"
#include "core/scratch.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pipeline/source.hpp"
#include "seq/alphabet.hpp"

namespace pgb::pipeline {

namespace {

obs::Counter obsSeedAnchors("seed.anchors");
obs::Counter obsSeedMems("seed.mems");
obs::Counter obsSeedMemOccs("seed.mem_occurrences");
obs::Counter obsSeedDropped("seed.dropped_repetitive");
obs::Counter obsSeedFmSteps("seed.fm_steps");
obs::Counter obsShardCrossReads("shard.cross_shard_reads");

/** Thread-local temporaries shared by both seeders. */
struct SeedScratch
{
    std::vector<const LoadedShard *> shards; ///< the pinned seed shards
    std::vector<uint8_t> touched;            ///< per shard, this read
    // minimizer merge state
    std::vector<index::Minimizer> minimizers;
    std::vector<std::span<const index::GraphSeedHit>> buckets;
    std::vector<size_t> bucketSlot;
    std::vector<size_t> heads;
};

/** Thread-local temporaries for collectMemAnchors. */
struct MemScratch
{
    std::vector<const index::FmIndex *> indexes;
    index::SmemSet smems;
    std::vector<uint8_t> rc;
};

/**
 * Sort MEM anchors by (queryPos, reverse, linearPos, node, nodeOffset)
 * and dedupe: occurrences on different haplotypes can project to the
 * same graph position, and SA rank order differs between a monolith
 * and a shard set, so only the anchor set may reach chaining.
 */
void
canonicalizeMemAnchors(std::vector<Anchor> &anchors)
{
    std::sort(anchors.begin(), anchors.end(),
              [](const Anchor &a, const Anchor &b) {
                  if (a.queryPos != b.queryPos)
                      return a.queryPos < b.queryPos;
                  if (a.reverse != b.reverse)
                      return a.reverse < b.reverse;
                  if (a.linearPos != b.linearPos)
                      return a.linearPos < b.linearPos;
                  if (a.node != b.node)
                      return a.node < b.node;
                  return a.nodeOffset < b.nodeOffset;
              });
    anchors.erase(std::unique(anchors.begin(), anchors.end(),
                              [](const Anchor &a, const Anchor &b) {
                                  return a.queryPos == b.queryPos &&
                                         a.reverse == b.reverse &&
                                         a.node == b.node &&
                                         a.nodeOffset == b.nodeOffset;
                              }),
                  anchors.end());
}

/**
 * Project one located occurrence of query[@p begin, begin+@p length)
 * onto the graph: k-length sub-anchors at stride k, plus one flushed
 * against the match end so its tail is represented too.
 */
void
appendOccurrenceAnchors(const LoadedShard &shard,
                        index::FmIndex::PathPos pos, uint32_t begin,
                        uint32_t length, uint32_t k, bool rc_strand,
                        uint32_t read_length,
                        std::vector<Anchor> &anchors)
{
    const graph::PanGraph &graph = *shard.graph;
    const auto &starts = shard.stepStarts[pos.path];
    const auto &steps = graph.pathSteps(pos.path);
    // The step holding the occurrence start; window offsets ascend, so
    // each later window's step is found by walking forward from it.
    auto step = static_cast<size_t>(
        std::upper_bound(starts.begin(), starts.end(), pos.offset) -
        starts.begin() - 1);
    uint32_t window = 0;
    bool flushed = false;
    while (true) {
        if (window + k > length) {
            if (flushed || length % k == 0)
                break;
            window = length - k;
            flushed = true;
        }
        const uint64_t path_off = pos.offset + window;
        while (starts[step + 1] <= path_off)
            ++step;
        const graph::Handle handle = steps[step];
        const uint64_t in_step = path_off - starts[step];
        const auto node_length =
            static_cast<uint64_t>(graph.nodeLength(handle.node()));
        const auto offset = static_cast<uint32_t>(
            handle.isReverse() ? node_length - 1 - in_step : in_step);
        Anchor anchor;
        anchor.queryPos = rc_strand ? read_length - (begin + window) - k
                                    : begin + window;
        anchor.node = shard.globalNode(handle.node());
        anchor.nodeOffset = offset;
        anchor.reverse = rc_strand != handle.isReverse();
        anchor.linearPos = shard.linearBases[handle.node()] + offset;
        anchors.push_back(anchor);
        if (flushed)
            break;
        window += k;
    }
}

/**
 * MEM anchors of @p read, both strands, over @p shards (whose FM
 * texts partition one path text): SMEMs of length >= @p k enumerated
 * by index::SmemSet over every member at once, SMEMs with more than
 * @p max_occurrences summed occurrences dropped as repeats, and each
 * occurrence split into k-length sub-anchors at stride k plus one
 * flushed against the SMEM end. Anchors come out in canonical order
 * (sorted by queryPos, reverse, linearPos, node, nodeOffset and
 * deduplicated), so only the anchor set depends on the data, not on
 * how the text is split. Sets @p touched[s] for every member that
 * contributed an anchor, and charges the seed.* counters.
 */
void
collectMemAnchors(std::span<const LoadedShard *const> shards,
                  const seq::Sequence &read, uint32_t k,
                  size_t max_occurrences, std::vector<Anchor> &anchors,
                  std::span<uint8_t> touched)
{
    MemScratch &ws = core::threadScratch<MemScratch>();
    ws.indexes.clear();
    for (const LoadedShard *shard : shards)
        ws.indexes.push_back(shard->fm);

    const auto read_length = static_cast<uint32_t>(read.size());
    uint64_t steps = 0;
    auto strand = [&](std::span<const uint8_t> codes, bool rc_strand) {
        steps += ws.smems.collect(ws.indexes, codes, k);
        obsSeedMems.add(ws.smems.size());
        for (size_t i = 0; i < ws.smems.size(); ++i) {
            const auto ranges = ws.smems.ranges(i);
            uint64_t total = 0;
            for (const auto &range : ranges)
                total += range.size();
            if (total > max_occurrences) {
                obsSeedDropped.add();
                continue;
            }
            obsSeedMemOccs.add(total);
            const uint32_t begin = ws.smems.queryBegin(i);
            const uint32_t length = ws.smems.queryEnd(i) - begin;
            for (size_t s = 0; s < shards.size(); ++s) {
                if (ranges[s].empty())
                    continue;
                const index::FmIndex &fm = *shards[s]->fm;
                touched[s] = 1;
                for (uint64_t r = ranges[s].lo; r < ranges[s].hi; ++r)
                    appendOccurrenceAnchors(*shards[s],
                                            fm.resolve(fm.locate(r)),
                                            begin, length, k, rc_strand,
                                            read_length, anchors);
            }
        }
    };
    strand(read.codes(), false);

    ws.rc.resize(read.size());
    const auto &codes = read.codes();
    for (size_t i = 0; i < codes.size(); ++i)
        ws.rc[i] = seq::complementBase(codes[codes.size() - 1 - i]);
    strand(ws.rc, true);
    obsSeedFmSteps.add(steps);

    canonicalizeMemAnchors(anchors);
    obsSeedAnchors.add(anchors.size());
}

/** Charge shard.cross_shard_reads when >1 shard contributed. */
void
noteCrossShard(std::span<const uint8_t> touched)
{
    size_t distinct = 0;
    for (uint8_t t : touched)
        distinct += t != 0 ? 1 : 0;
    if (distinct > 1)
        obsShardCrossReads.add();
}

/** Pin every seed shard of @p source into ws.shards; reset touched. */
void
pinSeedShards(const GraphSource &source, PinSet &pins, SeedScratch &ws)
{
    ws.shards.clear();
    for (uint32_t shard : source.seedShards())
        ws.shards.push_back(&pins.shard(shard));
    ws.touched.assign(ws.shards.size(), 0);
}

/** Hit @p hit of minimizer @p mini in @p shard, as a global anchor. */
Anchor
minimizerAnchor(const LoadedShard &shard, const index::Minimizer &mini,
                const index::GraphSeedHit &hit)
{
    Anchor anchor;
    anchor.queryPos = mini.position;
    anchor.node = shard.globalNode(hit.node);
    anchor.nodeOffset = hit.offset;
    // Read strand: the canonical strands of the query k-mer and the
    // graph k-mer agree on forward mappings.
    anchor.reverse = mini.reverse != (hit.reverse != 0);
    anchor.linearPos = shard.linearBases[hit.node] + hit.offset;
    return anchor;
}

/**
 * Minimizer seeding: looks the read's minimizers up in every seed
 * shard's table and k-way merges the per-shard occurrence lists by
 * global node id. Because each shard's bucket is the monolith's bucket
 * restricted to that shard in the monolith's own order
 * (order-preserving renumbering + the full-record sort in
 * MinimizerIndex), the merge reproduces the monolithic occurrence
 * stream exactly; the repetition cap applies to the summed count.
 */
class ShardMinimizerSeeder final : public Seeder
{
  public:
    ShardMinimizerSeeder(const GraphSource &source,
                         size_t max_occurrences)
        : source_(source), maxOccurrences_(max_occurrences)
    {
    }

    void
    collect(PinSet &pins, const seq::Sequence &read,
            std::vector<Anchor> &anchors) const override
    {
        obs::Span span("seed.minimizer");
        anchors.clear();
        SeedScratch &ws = core::threadScratch<SeedScratch>();
        pinSeedShards(source_, pins, ws);

        core::NullProbe probe;
        index::computeMinimizersInto(read.codes(), source_.k(),
                                     source_.w(), ws.minimizers,
                                     probe);
        for (const index::Minimizer &mini : ws.minimizers) {
            ws.buckets.clear();
            ws.bucketSlot.clear();
            size_t total = 0;
            for (size_t slot = 0; slot < ws.shards.size(); ++slot) {
                const auto hits =
                    ws.shards[slot]->minimizers->occurrences(mini.hash);
                if (hits.empty())
                    continue;
                ws.buckets.push_back(hits);
                ws.bucketSlot.push_back(slot);
                total += hits.size();
            }
            if (total == 0 || total > maxOccurrences_)
                continue; // absent, or repetitive across the whole set
            for (size_t slot : ws.bucketSlot)
                ws.touched[slot] = 1;
            if (ws.buckets.size() == 1) {
                // One shard holds every hit (always on a monolith):
                // its bucket is already in the merged order.
                const LoadedShard &shard = *ws.shards[ws.bucketSlot[0]];
                for (const index::GraphSeedHit &hit : ws.buckets[0])
                    anchors.push_back(minimizerAnchor(shard, mini, hit));
                continue;
            }
            // Merge the per-shard buckets by global node id. A node
            // lives in exactly one shard, so heads never tie across
            // buckets and within-node order stays bucket-internal.
            ws.heads.assign(ws.buckets.size(), 0);
            for (size_t emitted = 0; emitted < total; ++emitted) {
                size_t best = SIZE_MAX;
                uint32_t best_node = 0;
                for (size_t b = 0; b < ws.buckets.size(); ++b) {
                    if (ws.heads[b] >= ws.buckets[b].size())
                        continue;
                    const uint32_t node =
                        ws.shards[ws.bucketSlot[b]]->globalNode(
                            ws.buckets[b][ws.heads[b]].node);
                    if (best == SIZE_MAX || node < best_node) {
                        best = b;
                        best_node = node;
                    }
                }
                anchors.push_back(minimizerAnchor(
                    *ws.shards[ws.bucketSlot[best]], mini,
                    ws.buckets[best][ws.heads[best]++]));
            }
        }
        obsSeedAnchors.add(anchors.size());
        noteCrossShard(ws.touched);
    }

    SeederKind kind() const override { return SeederKind::kMinimizer; }

  private:
    const GraphSource &source_;
    size_t maxOccurrences_;
};

/**
 * MEM seeding: collectMemAnchors with one member per seed shard. The
 * shard FM texts partition the path text of the whole pangenome, so
 * index::SmemSet's lockstep enumeration (a pattern occurs iff it
 * occurs in some shard) yields the monolith's SMEM set, and the summed
 * per-shard occurrence counts its repeat filter. Occurrences project
 * shard-locally through each shard's projection; the canonical anchor
 * order erases which shard produced them.
 */
class ShardMemSeeder final : public Seeder
{
  public:
    ShardMemSeeder(const GraphSource &source, size_t max_occurrences)
        : source_(source),
          k_(source.k() <= 0 ? 1u : static_cast<uint32_t>(source.k())),
          maxOccurrences_(max_occurrences)
    {
    }

    void
    collect(PinSet &pins, const seq::Sequence &read,
            std::vector<Anchor> &anchors) const override
    {
        obs::Span span("seed.mem");
        anchors.clear();
        if (read.size() < k_)
            return;
        SeedScratch &ws = core::threadScratch<SeedScratch>();
        pinSeedShards(source_, pins, ws);
        collectMemAnchors(ws.shards, read, k_, maxOccurrences_, anchors,
                          ws.touched);
        noteCrossShard(ws.touched);
    }

    SeederKind kind() const override { return SeederKind::kMem; }

  private:
    const GraphSource &source_;
    uint32_t k_;
    size_t maxOccurrences_;
};

} // namespace

SeederKind
parseSeeder(const std::string &name)
{
    if (name == "minimizer")
        return SeederKind::kMinimizer;
    if (name == "mem")
        return SeederKind::kMem;
    core::fatal("unknown seeder '", name,
                "' (expected minimizer or mem)");
}

const char *
seederName(SeederKind kind)
{
    switch (kind) {
      case SeederKind::kMinimizer: return "minimizer";
      case SeederKind::kMem: return "mem";
    }
    return "?";
}

std::unique_ptr<const Seeder>
makeSeeder(SeederKind kind, const GraphSource &source,
           size_t max_occurrences)
{
    switch (kind) {
      case SeederKind::kMinimizer:
        return std::make_unique<ShardMinimizerSeeder>(source,
                                                      max_occurrences);
      case SeederKind::kMem:
        return std::make_unique<ShardMemSeeder>(source,
                                                max_occurrences);
    }
    core::fatal("unknown seeder kind");
}

} // namespace pgb::pipeline
