#include "index/minimizer.hpp"

#include <algorithm>

#include "core/prefetch.hpp"
#include "core/thread_pool.hpp"

namespace pgb::index {

std::vector<Minimizer>
computeMinimizers(std::span<const uint8_t> bases, int k, int w)
{
    core::NullProbe probe;
    return computeMinimizers(bases, k, w, probe);
}

MinimizerIndex::MinimizerIndex(const graph::PanGraph &graph, int k,
                               int w, unsigned threads)
    : k_(k), w_(w), directory_(k, 0)
{
    struct Entry
    {
        uint64_t hash;
        GraphSeedHit hit;
    };
    std::vector<Entry> entries;
    threads = core::clampThreads(threads);

    if (graph.pathCount() > 0) {
        // Haplotype-based indexing (vg giraffe style): minimizers of
        // every embedded path's spelled sequence, projected back to
        // graph coordinates. Boundary-spanning k-mers anchor at the
        // node containing their first base. Paths are independent, so
        // they scan in parallel into per-path buckets; concatenating
        // the buckets in path order reproduces the serial pre-sort
        // sequence exactly.
        std::vector<std::vector<Entry>> per_path(graph.pathCount());
        core::parallelFor(
            0, graph.pathCount(), threads,
            [&](size_t path_index) {
                const auto path =
                    static_cast<graph::PathId>(path_index);
                std::vector<Entry> &bucket = per_path[path_index];
                const auto &steps = graph.pathSteps(path);
                const auto spelled =
                    graph.pathSequence(path).codes();
                // Path offset -> step lookup.
                std::vector<uint64_t> starts;
                starts.reserve(steps.size());
                uint64_t offset = 0;
                for (graph::Handle step : steps) {
                    starts.push_back(offset);
                    offset += graph.nodeLength(step.node());
                }
                for (const Minimizer &mini :
                     computeMinimizers(spelled, k, w)) {
                    const auto it = std::upper_bound(
                        starts.begin(), starts.end(), mini.position);
                    const auto step_index =
                        static_cast<size_t>(it - starts.begin()) - 1;
                    const graph::Handle step = steps[step_index];
                    const auto in_step = static_cast<uint32_t>(
                        mini.position - starts[step_index]);
                    const auto node_len = static_cast<uint32_t>(
                        graph.nodeLength(step.node()));
                    GraphSeedHit hit;
                    hit.node = step.node();
                    // Forward-strand offset of the k-mer's first base.
                    hit.offset = step.isReverse()
                        ? node_len - 1 - in_step : in_step;
                    hit.reverse = mini.reverse != step.isReverse();
                    bucket.push_back({mini.hash, hit});
                }
            });
        size_t total = 0;
        for (const auto &bucket : per_path)
            total += bucket.size();
        entries.reserve(total);
        for (auto &bucket : per_path) {
            entries.insert(entries.end(), bucket.begin(), bucket.end());
        }
    } else {
        std::vector<std::vector<Entry>> per_node(graph.nodeCount());
        core::parallelFor(
            0, graph.nodeCount(), threads,
            [&](size_t node_index) {
                const auto node =
                    static_cast<graph::NodeId>(node_index);
                const auto &codes = graph.nodeSequence(node).codes();
                for (const Minimizer &mini :
                     computeMinimizers(codes, k, w)) {
                    per_node[node_index].push_back(
                        {mini.hash,
                         {node, mini.position, mini.reverse}});
                }
            });
        size_t total = 0;
        for (const auto &bucket : per_node)
            total += bucket.size();
        entries.reserve(total);
        for (auto &bucket : per_node) {
            entries.insert(entries.end(), bucket.begin(), bucket.end());
        }
    }

    // The full record is the sort key so the occurrence order is a
    // pure function of the occurrence set — a shard set's per-shard
    // buckets merge back into exactly this order (DESIGN.md §13).
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.hash != b.hash)
                      return a.hash < b.hash;
                  if (a.hit.node != b.hit.node)
                      return a.hit.node < b.hit.node;
                  if (a.hit.offset != b.hit.offset)
                      return a.hit.offset < b.hit.offset;
                  return a.hit.reverse < b.hit.reverse;
              });
    // Haplotypes share most of the graph: drop duplicate occurrences.
    entries.erase(std::unique(entries.begin(), entries.end(),
                              [](const Entry &a, const Entry &b) {
                                  return a.hash == b.hash &&
                                         a.hit.node == b.hit.node &&
                                         a.hit.offset == b.hit.offset &&
                                         a.hit.reverse == b.hit.reverse;
                              }),
                  entries.end());
    // Emit the sorted run straight into the table, the hits and the
    // directory.
    size_t distinct = 0;
    for (size_t i = 0; i < entries.size(); ++i)
        distinct += i == 0 || entries[i].hash != entries[i - 1].hash;
    ownedTable_.reserve(distinct);
    ownedHits_.reserve(entries.size());
    directory_ = HashDirectory(k, distinct);
    for (size_t i = 0; i < entries.size();) {
        size_t j = i;
        while (j < entries.size() && entries[j].hash == entries[i].hash)
            ++j;
        directory_.add(static_cast<uint32_t>(ownedTable_.size()),
                       entries[i].hash);
        ownedTable_.push_back(
            {entries[i].hash, static_cast<uint32_t>(ownedHits_.size()),
             static_cast<uint32_t>(ownedHits_.size() + (j - i))});
        for (size_t t = i; t < j; ++t)
            ownedHits_.push_back(entries[t].hit);
        i = j;
    }
    table_ = ownedTable_;
    hits_ = ownedHits_;
}

MinimizerIndex::MinimizerIndex(int k, int w)
    : k_(k), w_(w), directory_(k, 0)
{
}

MinimizerIndex::MinimizerIndex(int k, int w,
                               std::span<const TableEntry> table,
                               std::span<const GraphSeedHit> hits,
                               HashDirectory directory)
    : k_(k), w_(w), view_(true), table_(table), hits_(hits),
      directory_(std::move(directory))
{
}

std::span<const GraphSeedHit>
MinimizerIndex::occurrences(uint64_t hash) const
{
    const size_t bucket = directory_.bucket(hash);
    if (bucket >= directory_.buckets())
        return {}; // wider than this index's k-mers
    const TableEntry *entry = table_.data() + directory_.start(bucket);
    const TableEntry *end = table_.data() + directory_.start(bucket + 1);
    while (entry != end && entry->hash < hash)
        ++entry;
    if (entry == end || entry->hash != hash)
        return {};
    // The caller iterates the hits next; start that fetch now.
    core::prefetchRead(hits_.data() + entry->begin);
    return {hits_.data() + entry->begin,
            static_cast<size_t>(entry->end - entry->begin)};
}

HashDirectory::HashDirectory(int k, size_t entries)
{
    // The most bits whose 2^b + 1 starts fit in half the table's
    // bytes (4 (2^b + 1) <= 8 entries), at least 1 so the shift stays
    // below 64, at most the hash width.
    const auto hash_bits = static_cast<unsigned>(2 * std::clamp(k, 1, 32));
    unsigned bits = 1;
    while (bits < hash_bits && (size_t{1} << (bits + 1)) + 1 <= 2 * entries)
        ++bits;
    shift_ = hash_bits - bits;
    starts_.assign((size_t{1} << bits) + 1,
                   static_cast<uint32_t>(entries));
}

} // namespace pgb::index
