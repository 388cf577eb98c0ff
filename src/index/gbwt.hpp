/**
 * @file
 * GBWT: haplotype-aware graph index (Sirén et al.), the kernel the
 * paper extracts from vg giraffe's filtering stage.
 *
 * A multi-string BWT over the haplotype paths, where the alphabet is
 * oriented node identifiers. Each node owns a record: its sorted
 * outgoing edges, for each edge the offset of this node's block inside
 * the successor's visit list, and a run-length-encoded body giving the
 * successor of every visit. As in the GBWT proper, a record is one
 * contiguous run of words — every record lives in a single array,
 * found through a per-node start offset. A built index owns that
 * array; a loaded one views the artifact's copy in place, and both
 * read it through the same span. find(S) walks the records
 * with last-first mapping and returns the range of haplotypes
 * containing S as a subpath; nextNodes() enumerates the
 * haplotype-consistent extensions (paper Figure 4c: only paths that
 * real haplotypes take survive); walkBest() follows the
 * best-supported extension step by step, as giraffe's filter does.
 *
 * Construction orders the visits of each node by reversed path prefix
 * via a suffix array of the reversed paths — the standard multi-string
 * BWT ordering that makes every extension step map a contiguous range
 * to a contiguous range.
 */

#ifndef PGB_INDEX_GBWT_HPP
#define PGB_INDEX_GBWT_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/prefetch.hpp"
#include "core/probe.hpp"
#include "graph/pangraph.hpp"

namespace pgb::index {

/** A contiguous range of visits within one node's record. */
struct GbwtRange
{
    uint32_t node = 0;  ///< internal oriented-node id (0 = invalid)
    uint32_t begin = 0;
    uint32_t end = 0;

    bool empty() const { return begin >= end; }
    uint32_t size() const { return empty() ? 0 : end - begin; }
};

/** GBWT build/query statistics. */
struct GbwtStats
{
    size_t records = 0;
    size_t totalVisits = 0;
    size_t totalRuns = 0;   ///< run-length-encoded body size
    double avgRunLength = 0.0;
};

/** Where walkBest() stopped: the steps it took and the final range. */
struct GbwtBestWalk
{
    size_t steps = 0;
    GbwtRange range;
};

/** Haplotype-aware multi-string BWT over a graph's embedded paths. */
class GbwtIndex
{
  public:
    /**
     * Build from every path embedded in @p graph.
     * @param run_length_encode store bodies as runs (the GBWT design);
     *        false stores plain edge-index arrays (the ablation).
     * @param threads run the per-node construction stages (visit
     *        ordering, predecessor-block offsets, record
     *        materialization) concurrently on the shared pool; nodes
     *        are independent within each stage and the visit order is
     *        a total order, so the index is identical at every thread
     *        count.
     */
    explicit GbwtIndex(const graph::PanGraph &graph,
                       bool run_length_encode = true,
                       unsigned threads = 1);

    /**
     * Zero-copy view over a serialized record image (pgb::store's BWRD
     * section). The caller has checked every record against the words()
     * layout and derived @p record_starts, the first word of each
     * record, in the same pass. @p words' backing memory (the mmap'ed
     * artifact) must outlive the index.
     */
    GbwtIndex(bool run_length_encode, std::span<const uint32_t> words,
              std::vector<size_t> record_starts);

    // words_ may point into ownedWords_: moves keep it valid, copies
    // would not.
    GbwtIndex(const GbwtIndex &) = delete;
    GbwtIndex &operator=(const GbwtIndex &) = delete;
    GbwtIndex(GbwtIndex &&) = default;
    GbwtIndex &operator=(GbwtIndex &&) = default;

    /** Range spanning every visit of @p handle. */
    GbwtRange fullRange(graph::Handle handle) const;

    /** Number of path visits to @p handle. */
    uint32_t visitCount(graph::Handle handle) const;

    /**
     * Last-first extension: the subset of @p range whose next step is
     * @p next, as a range within next's record.
     */
    template <typename Probe = core::NullProbe>
    GbwtRange
    extend(const GbwtRange &range, graph::Handle next, Probe &probe) const
    {
        if (range.empty())
            return {};
        const uint32_t target = toInternal(next);
        const RecordView record = recordAt(range.node);
        probe.load(record.words, 12); // record header fetch
        probe.op(core::OpKind::kScalar, 6);
        // Locate the edge (binary search over the sorted edge list).
        probe.op(core::OpKind::kControl);
        int32_t edge = -1;
        {
            int32_t lo = 0;
            auto hi = static_cast<int32_t>(record.edgeCount()) - 1;
            while (lo <= hi) {
                const int32_t mid = (lo + hi) / 2;
                const auto at = static_cast<uint32_t>(mid);
                probe.load(record.edgeWords(at), 4);
                probe.branch(/* site */ 60,
                             record.successor(at) < target);
                if (record.successor(at) == target) {
                    edge = mid;
                    break;
                }
                if (record.successor(at) < target)
                    lo = mid + 1;
                else
                    hi = mid - 1;
            }
        }
        if (edge < 0)
            return {};
        const auto e = static_cast<uint32_t>(edge);
        const uint32_t r_begin = bodyRank(record, e, range.begin, probe);
        const uint32_t r_end = bodyRank(record, e, range.end, probe);
        if (r_begin >= r_end)
            return {};
        GbwtRange out;
        out.node = target;
        out.begin = record.edgeOffset(e) + r_begin;
        out.end = record.edgeOffset(e) + r_end;
        return out;
    }

    /**
     * The paper's representative kernel operation: search the node
     * sequence @p steps and return the final range (empty when no
     * haplotype contains the sequence as a subpath).
     */
    template <typename Probe = core::NullProbe>
    GbwtRange
    find(std::span<const graph::Handle> steps, Probe &probe) const
    {
        if (steps.empty())
            return {};
        GbwtRange range = fullRange(steps[0]);
        for (size_t i = 1; i < steps.size() && !range.empty(); ++i) {
            // extend() reads the record of range.node; the record the
            // *next* iteration dereferences is steps[i]'s, known one
            // step ahead — fetch its header under the current step's
            // rank work (the walk's data-dependent miss, Figure 7).
            const uint32_t next = toInternal(steps[i]);
            if (next < recordStart_.size())
                core::prefetchRead(words_.data() + recordStart_[next]);
            range = extend(range, steps[i], probe);
        }
        return range;
    }

    /** Uninstrumented find. */
    GbwtRange
    find(std::span<const graph::Handle> steps) const
    {
        core::NullProbe probe;
        return find(steps, probe);
    }

    /** Uninstrumented extend. */
    GbwtRange
    extend(const GbwtRange &range, graph::Handle next) const
    {
        core::NullProbe probe;
        return extend(range, next, probe);
    }

    /** Uninstrumented nextNodes. */
    std::vector<graph::Handle>
    nextNodes(const GbwtRange &range) const
    {
        core::NullProbe probe;
        return nextNodes(range, probe);
    }

    /**
     * Haplotype-consistent next handles reachable from @p range (the
     * seed-extension query giraffe issues during filtering).
     */
    template <typename Probe = core::NullProbe>
    std::vector<graph::Handle>
    nextNodes(const GbwtRange &range, Probe &probe) const
    {
        std::vector<graph::Handle> out;
        if (range.empty())
            return out;
        const RecordView record = recordAt(range.node);
        // Collect the distinct edge indices present in body[begin, end).
        std::vector<bool> present(record.edgeCount(), false);
        scanBody(record, range.begin, range.end, probe,
                 [&](uint32_t edge_index, uint32_t /* run_len */) {
                     present[edge_index] = true;
                 });
        for (uint32_t e = 0; e < record.edgeCount(); ++e) {
            if (present[e] && record.successor(e) != kEndMarker)
                out.push_back(toHandle(record.successor(e)));
        }
        return out;
    }

    /**
     * Giraffe's seed extension: from every visit of @p start, follow
     * the best-supported haplotype-consistent extension (the child
     * holding the most visits of the current range, the first in edge
     * order on ties; the end marker never counts) for up to
     * @p max_steps steps. Same result as nextNodes() plus extend() on
     * every candidate, but each step makes one body scan over
     * [0, range.end) that tallies every edge's rank before the range
     * and its count inside it, and nothing is allocated: the tallies
     * live on the stack, kWalkChunk edges at a time (a record with
     * more successors takes one scan per chunk).
     */
    GbwtBestWalk walkBest(graph::Handle start, size_t max_steps) const;

    GbwtStats stats() const;

    bool runLengthEncoded() const { return rle_; }

    /** Words before a record's edge pairs: size, edgeCount, bodyCount. */
    static constexpr uint32_t kHeaderWords = 3;

    /**
     * Every record's words, back to back by internal id (what BWRD
     * holds): {size, edgeCount, bodyCount}, then (successor,
     * edgeOffset) per edge sorted by successor, then the body —
     * bodyCount (edge index, run length) pairs when run-length
     * encoded, bodyCount edge indices (one per visit) otherwise.
     */
    std::span<const uint32_t> words() const { return words_; }

    /** Heap bytes derived beside the words: the record starts. */
    size_t
    derivedBytes() const
    {
        return recordStart_.size() * sizeof(size_t);
    }

  private:
    static constexpr uint32_t kEndMarker = 0;

    /** Edges tallied per body scan in walkBest(). */
    static constexpr uint32_t kWalkChunk = 64;

    /** One record inside words_ (layout: see words()). */
    struct RecordView
    {
        const uint32_t *words;

        uint32_t size() const { return words[0]; }
        uint32_t edgeCount() const { return words[1]; }
        uint32_t bodyCount() const { return words[2]; }
        const uint32_t *
        edgeWords(uint32_t e) const
        {
            return words + kHeaderWords + 2 * e;
        }
        uint32_t successor(uint32_t e) const { return edgeWords(e)[0]; }
        uint32_t edgeOffset(uint32_t e) const { return edgeWords(e)[1]; }
        const uint32_t *body() const { return edgeWords(edgeCount()); }
    };

    RecordView
    recordAt(uint32_t node) const
    {
        return {words_.data() + recordStart_[node]};
    }

    /**
     * walkBest()'s body scan over [0, end): for the @p width edges from
     * @p lo, the visits before @p begin and the visits in [begin, end).
     */
    void tallyEdges(const RecordView &record, uint32_t lo, uint32_t width,
                    uint32_t begin, uint32_t end, uint32_t *before,
                    uint32_t *inside) const;

    static uint32_t
    toInternal(graph::Handle handle)
    {
        return handle.packed() + 1;
    }

    static graph::Handle
    toHandle(uint32_t internal)
    {
        return graph::Handle::fromPacked(internal - 1);
    }

    /** Occurrences of @p edge_index in body[0, pos). */
    template <typename Probe>
    uint32_t
    bodyRank(const RecordView &record, uint32_t edge_index, uint32_t pos,
             Probe &probe) const
    {
        uint32_t count = 0;
        const uint32_t *body = record.body();
        if (rle_) {
            uint32_t covered = 0;
            for (uint32_t i = 0; i < record.bodyCount(); ++i) {
                const uint32_t edge = body[2 * i];
                const uint32_t len = body[2 * i + 1];
                probe.load(body + 2 * i, 8);
                probe.branch(/* site */ 61, covered >= pos);
                if (covered >= pos)
                    break;
                const uint32_t take =
                    covered + len > pos ? pos - covered : len;
                probe.branch(/* site */ 62, edge == edge_index);
                if (edge == edge_index)
                    count += take;
                covered += len;
                // Run decode: bounds clamp, accumulate, advance.
                probe.op(core::OpKind::kScalar, 6);
            }
        } else {
            for (uint32_t i = 0; i < pos; ++i) {
                probe.load(body + i, 4);
                probe.branch(/* site */ 63, body[i] == edge_index);
                if (body[i] == edge_index)
                    ++count;
                probe.op(core::OpKind::kScalar, 1);
            }
        }
        return count;
    }

    /** Visit body[begin, end) as (edge_index, run_length) chunks. */
    template <typename Probe, typename Fn>
    void
    scanBody(const RecordView &record, uint32_t begin, uint32_t end,
             Probe &probe, Fn &&fn) const
    {
        const uint32_t *body = record.body();
        if (rle_) {
            uint32_t covered = 0;
            for (uint32_t i = 0; i < record.bodyCount(); ++i) {
                probe.load(body + 2 * i, 8);
                if (covered >= end)
                    break;
                const uint32_t run_begin = covered;
                const uint32_t run_end = covered + body[2 * i + 1];
                covered = run_end;
                if (run_end <= begin)
                    continue;
                const uint32_t lo = run_begin > begin ? run_begin : begin;
                const uint32_t hi = run_end < end ? run_end : end;
                if (lo < hi)
                    fn(body[2 * i], hi - lo);
            }
        } else {
            for (uint32_t i = begin; i < end; ++i) {
                probe.load(body + i, 4);
                fn(body[i], 1);
            }
        }
    }

    bool rle_ = true;
    /// a built index's records; empty when viewing an artifact
    std::vector<uint32_t> ownedWords_;
    /// what lookups read: ownedWords_ or the artifact's BWRD section
    std::span<const uint32_t> words_;
    /// first word of each record in words_, indexed by internal id
    std::vector<size_t> recordStart_;
};

} // namespace pgb::index

#endif // PGB_INDEX_GBWT_HPP
