#include "index/gbwt.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "core/logging.hpp"
#include "core/thread_pool.hpp"
#include "index/suffix_array.hpp"

namespace pgb::index {

GbwtIndex::GbwtIndex(const graph::PanGraph &graph,
                     bool run_length_encode, unsigned threads)
    : rle_(run_length_encode)
{
    threads = core::clampThreads(threads);
    // Internal ids: 0 = end/start marker, handle.packed() + 1 otherwise.
    const size_t id_space = graph.nodeCount() * 2 + 1;

    // ---- Concatenate the reversed paths, sentinel 0 after each.
    std::vector<uint32_t> concat;
    struct VisitRef
    {
        uint32_t concatPos;
        uint32_t successor;
    };
    // visits[v] = all visits to internal node v (unordered yet)
    std::vector<std::vector<VisitRef>> visits(id_space);

    for (graph::PathId path = 0; path < graph.pathCount(); ++path) {
        const auto &steps = graph.pathSteps(path);
        const auto start = static_cast<uint32_t>(concat.size());
        const auto len = steps.size();
        for (size_t r = 0; r < len; ++r) {
            // Reversed order: concat position start+r holds step
            // len-1-r.
            concat.push_back(toInternal(steps[len - 1 - r]));
        }
        concat.push_back(kEndMarker);
        for (size_t i = 0; i < len; ++i) {
            const auto j = static_cast<uint32_t>(start + (len - 1 - i));
            const uint32_t successor =
                i + 1 < len ? toInternal(steps[i + 1]) : kEndMarker;
            visits[concat[j]].push_back({j, successor});
        }
    }

    // ---- Order visits by reversed prefix: rank of the suffix at j+1.
    // Nodes own disjoint visit lists and the rank comparator is a
    // total order (concat positions are distinct), so the per-node
    // sorts parallelize with identical results at any thread count.
    // Without paths every record is empty and nothing is ranked.
    const auto ranks = concat.empty()
        ? std::vector<uint32_t>()
        : suffixRanks(buildSuffixArray(concat));
    core::parallelFor(0, id_space, threads, [&](size_t v) {
        auto &list = visits[v];
        std::sort(list.begin(), list.end(),
                  [&](const VisitRef &a, const VisitRef &b) {
                      return ranks[a.concatPos + 1] <
                             ranks[b.concatPos + 1];
                  });
    });

    // ---- Predecessor-block offsets: within node w's sorted visit
    // list, all visits sharing a predecessor are contiguous; record
    // where each predecessor's block starts.
    // blockOffset[w][u] = first index in w's list with predecessor u.
    std::vector<std::map<uint32_t, uint32_t>> block_offset(id_space);
    core::parallelFor(0, id_space, threads, [&](size_t w) {
        for (uint32_t i = 0; i < visits[w].size(); ++i) {
            const uint32_t j = visits[w][i].concatPos;
            const uint32_t pred = concat[j + 1]; // sentinel -> 0 marker
            block_offset[w].try_emplace(pred, i);
        }
    });

    // ---- Materialize records. Each record reads only its own visit
    // list and the (now frozen) block-offset maps of its successors,
    // and stages its words in its own vector.
    std::vector<std::vector<uint32_t>> staged(id_space);
    core::parallelFor(0, id_space, threads, [&](size_t v) {
        std::vector<uint32_t> &words = staged[v];
        const auto size = static_cast<uint32_t>(visits[v].size());
        // Sorted distinct successors.
        std::vector<uint32_t> succs;
        for (const VisitRef &visit : visits[v])
            succs.push_back(visit.successor);
        std::sort(succs.begin(), succs.end());
        succs.erase(std::unique(succs.begin(), succs.end()), succs.end());
        words = {size, static_cast<uint32_t>(succs.size()), 0};
        for (const uint32_t w : succs) {
            uint32_t offset = 0; // the end marker is never followed
            if (w != kEndMarker) {
                auto it = block_offset[w].find(static_cast<uint32_t>(v));
                if (it == block_offset[w].end())
                    core::panic("GbwtIndex: missing predecessor block");
                offset = it->second;
            }
            words.push_back(w);
            words.push_back(offset);
        }
        // Body: successor edge-index per visit, in visit order.
        const size_t body_at = words.size();
        for (const VisitRef &visit : visits[v]) {
            const auto e = static_cast<uint32_t>(
                std::lower_bound(succs.begin(), succs.end(),
                                 visit.successor) -
                succs.begin());
            if (!rle_)
                words.push_back(e);
            else if (words.size() > body_at && words[words.size() - 2] == e)
                ++words.back();
            else
                words.insert(words.end(), {e, 1});
        }
        words[2] = static_cast<uint32_t>(
            (words.size() - body_at) / (rle_ ? 2 : 1));
    });
    visits = {};
    block_offset = {};

    // ---- Pack the records back to back.
    size_t total = 0;
    for (const auto &words : staged)
        total += words.size();
    ownedWords_.reserve(total);
    recordStart_.resize(id_space);
    for (size_t v = 0; v < id_space; ++v) {
        recordStart_[v] = ownedWords_.size();
        ownedWords_.insert(ownedWords_.end(), staged[v].begin(),
                           staged[v].end());
        staged[v] = {};
    }
    words_ = ownedWords_;
}

GbwtIndex::GbwtIndex(bool run_length_encode,
                     std::span<const uint32_t> words,
                     std::vector<size_t> record_starts)
    : rle_(run_length_encode), words_(words),
      recordStart_(std::move(record_starts))
{
}

GbwtRange
GbwtIndex::fullRange(graph::Handle handle) const
{
    const uint32_t v = toInternal(handle);
    if (v >= recordStart_.size())
        return {};
    GbwtRange range;
    range.node = v;
    range.begin = 0;
    range.end = recordAt(v).size();
    return range;
}

uint32_t
GbwtIndex::visitCount(graph::Handle handle) const
{
    const uint32_t v = toInternal(handle);
    return v < recordStart_.size() ? recordAt(v).size() : 0;
}

void
GbwtIndex::tallyEdges(const RecordView &record, uint32_t lo,
                      uint32_t width, uint32_t begin, uint32_t end,
                      uint32_t *before, uint32_t *inside) const
{
    std::fill_n(before, width, 0u);
    std::fill_n(inside, width, 0u);
    const uint32_t *body = record.body();
    if (rle_) {
        uint32_t covered = 0;
        for (uint32_t i = 0; i < record.bodyCount() && covered < end; ++i) {
            const uint32_t e = body[2 * i] - lo; // wraps below the chunk
            const uint32_t run_end = covered + body[2 * i + 1];
            if (e < width) {
                before[e] +=
                    std::min(run_end, begin) - std::min(covered, begin);
                const uint32_t in_lo = std::max(covered, begin);
                const uint32_t in_hi = std::min(run_end, end);
                inside[e] += in_hi > in_lo ? in_hi - in_lo : 0;
            }
            covered = run_end;
        }
    } else {
        for (uint32_t i = 0; i < end; ++i) {
            const uint32_t e = body[i] - lo;
            if (e < width)
                ++(i < begin ? before : inside)[e];
        }
    }
}

GbwtBestWalk
GbwtIndex::walkBest(graph::Handle start, size_t max_steps) const
{
    GbwtBestWalk walk;
    walk.range = fullRange(start);
    // Per edge of the current chunk: visits before range.begin (the
    // rank extend() would compute) and visits inside the range.
    uint32_t before[kWalkChunk];
    uint32_t inside[kWalkChunk];
    while (!walk.range.empty() && walk.steps < max_steps) {
        const RecordView record = recordAt(walk.range.node);
        const uint32_t begin = walk.range.begin;
        const uint32_t end = walk.range.end;
        const uint32_t edges = record.edgeCount();
        uint32_t best_edge = 0, best_rank = 0, best_count = 0;
        for (uint32_t lo = 0; lo < edges; lo += kWalkChunk) {
            const uint32_t width = std::min(kWalkChunk, edges - lo);
            tallyEdges(record, lo, width, begin, end, before, inside);
            for (uint32_t e = 0; e < width; ++e) {
                if (inside[e] > best_count &&
                    record.successor(lo + e) != kEndMarker) {
                    best_edge = lo + e;
                    best_rank = before[e];
                    best_count = inside[e];
                }
            }
        }
        if (best_count == 0)
            break; // every visit in the range ends here
        const uint32_t offset = record.edgeOffset(best_edge);
        walk.range.node = record.successor(best_edge);
        walk.range.begin = offset + best_rank;
        walk.range.end = offset + best_rank + best_count;
        ++walk.steps;
    }
    return walk;
}

GbwtStats
GbwtIndex::stats() const
{
    GbwtStats stats;
    for (size_t v = 0; v < recordStart_.size(); ++v) {
        const RecordView record = recordAt(static_cast<uint32_t>(v));
        if (record.size() == 0)
            continue;
        ++stats.records;
        stats.totalVisits += record.size();
        stats.totalRuns += record.bodyCount();
    }
    if (stats.totalRuns > 0) {
        stats.avgRunLength = static_cast<double>(stats.totalVisits) /
                             static_cast<double>(stats.totalRuns);
    }
    return stats;
}

} // namespace pgb::index
