/**
 * @file
 * Minimizer seeding: (w,k)-minimizers with canonical k-mers and an
 * index over pangenome graph node sequences.
 *
 * All four Seq2Graph mapping tools the paper studies use minimizer
 * seeding (paper §2.1: "same computation as Seq2Seq minimizers, but
 * with larger memory requirements" since positions are graph
 * coordinates). The index maps minimizer hashes to (node, offset,
 * orientation) positions through one hash-sorted table, built or
 * viewed in an artifact, and a directory on the hash's top bits.
 *
 * Like vg's haplotype-based minimizer index, graphs with embedded
 * paths are indexed along their path sequences, so k-mers spanning
 * node boundaries (the common case in fine-grained graphs like the
 * paper's Split-M-graph) are found; positions are projected back to
 * (node, forward offset). Pathless graphs fall back to per-node
 * indexing.
 */

#ifndef PGB_INDEX_MINIMIZER_HPP
#define PGB_INDEX_MINIMIZER_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/probe.hpp"
#include "core/scratch.hpp"
#include "graph/pangraph.hpp"

namespace pgb::index {

/** Invertible 64-bit mix (minimap2's hash64). */
inline uint64_t
hash64(uint64_t key, uint64_t mask)
{
    key = (~key + (key << 21)) & mask;
    key = key ^ (key >> 24);
    key = ((key + (key << 3)) + (key << 8)) & mask;
    key = key ^ (key >> 14);
    key = ((key + (key << 2)) + (key << 4)) & mask;
    key = key ^ (key >> 28);
    key = (key + (key << 31)) & mask;
    return key;
}

/** One minimizer occurrence on a sequence. */
struct Minimizer
{
    uint64_t hash = 0;
    uint32_t position = 0; ///< start of the k-mer on the sequence
    bool reverse = false;  ///< canonical strand of the k-mer
};

namespace detail {

/** One window candidate of the minimizer scan. */
struct MinimizerCand
{
    uint64_t hash;
    uint32_t pos;
    uint32_t rank; ///< candidates since the last N, this one included
    bool reverse;
};

/** Thread-local candidate buffer reused across scans. */
struct MinimizerWindowScratch
{
    std::vector<MinimizerCand> cands;
};

} // namespace detail

/**
 * Compute the (w,k)-minimizers of @p bases (encoded) into @p out
 * (cleared first, capacity reused). Canonical k-mers; windows
 * containing N are skipped. The window candidate buffer lives in a
 * thread-local scratch, so per-read calls on the mapping hot path do
 * not touch malloc once warm.
 *
 * The window is the last w candidates (palindromic k-mers are not
 * candidates; an N clears it), reported at every candidate whose
 * k-mer starts at or past w - 1. Its minimum is the newest candidate
 * when that ties the smallest hash, otherwise the leftmost smallest.
 * A monotone deque finds it in amortized O(1) per base: candidates
 * sit in rank order with non-decreasing hashes, so the front is the
 * leftmost minimum and the back, the newest candidate, ties it iff
 * every live candidate holds the same hash.
 */
template <typename Probe = core::NullProbe>
void
computeMinimizersInto(std::span<const uint8_t> bases, int k, int w,
                      std::vector<Minimizer> &out, Probe &probe)
{
    using detail::MinimizerCand;
    out.clear();
    const size_t n = bases.size();
    if (n < static_cast<size_t>(k))
        return;
    const uint64_t mask = k < 32 ? (1ull << (2 * k)) - 1 : ~0ull;
    const int shift = 2 * (k - 1);

    uint64_t fwd = 0, rev = 0;
    int valid = 0;     // consecutive non-N bases ending here
    uint32_t rank = 0; // candidates since the last N
    // Window length for expiry; w <= 1 keeps only the newest.
    const auto window = static_cast<uint32_t>(w > 1 ? w : 1);

    // The deque is deque[head, size()): pushes and back pops at the
    // end, expiries advance head. An N empties it.
    std::vector<MinimizerCand> &deque =
        core::threadScratch<detail::MinimizerWindowScratch>().cands;
    deque.clear();
    deque.reserve(n - static_cast<size_t>(k) + 1);
    size_t head = 0;
    auto emit_if_new = [&](const MinimizerCand &cand) {
        if (out.empty() || out.back().hash != cand.hash ||
            out.back().position != cand.pos) {
            out.push_back({cand.hash, cand.pos, cand.reverse});
        }
    };

    for (size_t i = 0; i < n; ++i) {
        probe.load(bases.data() + i, 1);
        const uint8_t base = bases[i];
        if (base >= 4) {
            valid = 0;
            rank = 0;
            deque.clear();
            head = 0;
            probe.branch(/* site */ 50, true);
            continue;
        }
        fwd = ((fwd << 2) | base) & mask;
        rev = (rev >> 2) |
              (static_cast<uint64_t>(3 - base) << shift);
        probe.op(core::OpKind::kScalar, 4);
        ++valid;
        if (valid < k)
            continue;
        // Canonical k-mer; skip palindromes (fwd == rev) like minimap2.
        probe.branch(/* site */ 51, fwd == rev);
        if (fwd == rev)
            continue;
        const bool reverse = rev < fwd;
        const uint64_t hash = hash64(reverse ? rev : fwd, mask);
        const auto pos = static_cast<uint32_t>(i + 1 - k);
        ++rank;
        // Equal hashes stay, so the front remains the leftmost minimum.
        while (deque.size() > head && deque.back().hash > hash) {
            probe.load(&deque.back(), 8);
            deque.pop_back();
        }
        deque.push_back({hash, pos, rank, reverse});
        // Expire the candidates older than the last w.
        while (deque[head].rank + window <= rank) {
            probe.load(&deque[head], 8);
            ++head;
        }

        // Report the window minimum once the window is full.
        if (pos + 1 >= static_cast<uint32_t>(w)) {
            const MinimizerCand &front = deque[head];
            emit_if_new(deque.back().hash == front.hash ? deque.back()
                                                        : front);
        }
    }
}

/** Returning variant of computeMinimizersInto. */
template <typename Probe = core::NullProbe>
std::vector<Minimizer>
computeMinimizers(std::span<const uint8_t> bases, int k, int w,
                  Probe &probe)
{
    std::vector<Minimizer> out;
    computeMinimizersInto(bases, k, w, out, probe);
    return out;
}

/** Convenience overload without instrumentation. */
std::vector<Minimizer> computeMinimizers(std::span<const uint8_t> bases,
                                         int k, int w);

/**
 * One indexed occurrence of a minimizer in the graph.
 *
 * The layout is padding-free and deterministic (reverse is a u32, not
 * a bool) because this struct doubles as the on-disk record of the
 * `.pgbi` MHIT section: a loaded index views the mmap'ed section as a
 * span of GraphSeedHit with no conversion copy.
 */
struct GraphSeedHit
{
    uint32_t node = 0;
    uint32_t offset = 0;  ///< k-mer start on the forward node sequence
    uint32_t reverse = 0; ///< canonical strand on the node (0/1)
};

static_assert(sizeof(GraphSeedHit) == 12,
              "GraphSeedHit is a .pgbi on-disk record");

/**
 * Bucket starts over a hash-sorted minimizer table. Bucket i holds the
 * entries whose 2k-bit hash has i as its top b bits, so a lookup reads
 * two adjacent starts and scans that bucket alone. b grows with the
 * entry count: the 2^b + 1 starts take at most half the table's bytes
 * (once it holds two entries), and a bucket averages at most one entry.
 */
class HashDirectory
{
  public:
    /**
     * An empty directory for a table of @p entries hashes of
     * @p k-mers: every bucket starts at the table end until add()
     * opens it.
     */
    HashDirectory(int k, size_t entries);

    /**
     * Note that table entry @p entry holds @p hash. Call once per
     * entry, in table order; @p hash must fit in 2k bits.
     */
    void
    add(uint32_t entry, uint64_t hash)
    {
        const size_t last = bucket(hash);
        while (opened_ <= last)
            starts_[opened_++] = entry;
    }

    /** The bucket of @p hash (>= buckets() if it exceeds 2k bits). */
    size_t
    bucket(uint64_t hash) const
    {
        return static_cast<size_t>(hash >> shift_);
    }

    /** Number of buckets, 2^b. */
    size_t buckets() const { return starts_.size() - 1; }

    /** First table entry of bucket @p b; start(b + 1) ends it. */
    uint32_t start(size_t b) const { return starts_[b]; }

    /** Heap bytes of the starts. */
    size_t bytes() const { return starts_.size() * sizeof(uint32_t); }

  private:
    std::vector<uint32_t> starts_;
    unsigned shift_;     ///< 2k - b
    size_t opened_ = 0;  ///< buckets whose start add() has set
};

/** Minimizer index over the node sequences of a PanGraph. */
class MinimizerIndex
{
  public:
    /**
     * One hash's occurrence range, sorted by hash: the lookup table's
     * record and the on-disk record of the `.pgbi` MTAB section.
     */
    struct TableEntry
    {
        uint64_t hash = 0;
        uint32_t begin = 0; ///< [begin, end) into the hit array
        uint32_t end = 0;
    };

    static_assert(sizeof(TableEntry) == 16,
                  "TableEntry is a .pgbi on-disk record");

    /**
     * Build over @p graph with (w,k) minimizers. @p threads > 1
     * computes per-path (or per-node) minimizers concurrently on the
     * shared pool; occurrence lists are concatenated in path order
     * before the sort, so the index is identical at every thread
     * count.
     */
    MinimizerIndex(const graph::PanGraph &graph, int k, int w,
                   unsigned threads = 1);

    /** An index with no minimizers (a pathless shard's). */
    MinimizerIndex(int k, int w);

    /**
     * Zero-copy view over serialized sections (pgb::store). The
     * caller has checked that @p table is sorted by hash, fits in 2k
     * bits and points inside @p hits, and has added every entry to
     * @p directory in the same pass. The spans' backing memory (the
     * mmap'ed artifact) must outlive the index.
     */
    MinimizerIndex(int k, int w, std::span<const TableEntry> table,
                   std::span<const GraphSeedHit> hits,
                   HashDirectory directory);

    // The spans may point into the owned vectors: moves keep them
    // valid, copies would not.
    MinimizerIndex(const MinimizerIndex &) = delete;
    MinimizerIndex &operator=(const MinimizerIndex &) = delete;
    MinimizerIndex(MinimizerIndex &&) = default;
    MinimizerIndex &operator=(MinimizerIndex &&) = default;

    int k() const { return k_; }
    int w() const { return w_; }

    /**
     * Occurrences of minimizer @p hash (empty span if absent): one
     * directory read and a scan of one bucket, for built and loaded
     * indexes alike.
     */
    std::span<const GraphSeedHit> occurrences(uint64_t hash) const;

    /** Number of distinct minimizer hashes. */
    size_t distinctMinimizers() const { return table_.size(); }

    /** Total indexed occurrences. */
    size_t totalOccurrences() const { return hits_.size(); }

    /** Whether the table and hits are views into an artifact. */
    bool isView() const { return view_; }

    /** The sorted table (what the MTAB section holds). */
    std::span<const TableEntry> flatTable() const { return table_; }

    /** All occurrences in table order (what MHIT holds). */
    std::span<const GraphSeedHit> allHits() const { return hits_; }

    /** Heap bytes derived beside the table: the directory. */
    size_t derivedBytes() const { return directory_.bytes(); }

  private:
    int k_, w_;
    bool view_ = false;
    /// a built index's storage; empty when viewing an artifact
    std::vector<TableEntry> ownedTable_;
    std::vector<GraphSeedHit> ownedHits_;
    /// what lookups read: the owned vectors or the artifact's sections
    std::span<const TableEntry> table_;
    std::span<const GraphSeedHit> hits_;
    HashDirectory directory_;
};

} // namespace pgb::index

#endif // PGB_INDEX_MINIMIZER_HPP
