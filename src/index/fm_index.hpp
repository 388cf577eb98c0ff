/**
 * @file
 * BWT/FM-index over the haplotype path sequences, the second seeding
 * backend of the suite (ROADMAP item 1, in the spirit of ropebwt3 and
 * vg's `Mapper`/`MaximalExactMatch` machinery).
 *
 * The text is the concatenation of every embedded path's spelled
 * sequence, each path terminated by a sentinel symbol. The suffix
 * array comes from index/suffix_array (prefix doubling over the
 * uint32 alphabet); from it the index keeps only the BWT (what an
 * artifact stores) and a sampled suffix array: text positions that are
 * multiples of sampleRate are marked in a bitvector and their SA
 * values stored; locate() LF-walks to the nearest mark. Every path
 * start is also marked, so a locate walk never has to LF across a
 * sentinel — which keeps the equal-sentinel multi-string BWT exact
 * without per-path sentinel symbols.
 *
 * From the BWT the index derives, in build and artifact-view mode
 * alike, the two structures every query runs on (BWA/ropebwt3 style):
 *
 *  - rank blocks, one per 64 BWT symbols: the six symbol counts before
 *    the block plus three 64-bit bit-planes (bit k of each symbol's
 *    code). rank(c, i) is the block count plus the popcount of the
 *    planes matching c below i, so every extend() and LF step is
 *    constant time and locate() decodes symbols from the planes
 *    without touching the BWT bytes; 48 bytes per 64 symbols;
 *  - a k-mer interval table: the SA range of every ACGT string of
 *    length 1..kmerLength(), with kmerLength() = clamp(floor(log4 n)
 *    - 3, 1, 10) for text length n, so the table's last level has at
 *    most n/64 entries (at most ~0.17 bytes per symbol in all). A
 *    backward search seeds its first bases with one lookup instead of
 *    one extend() per base.
 *
 * Patterns never contain the sentinel, so matches never span path
 * boundaries; backward extension (`extend`/`find`) is exact for any
 * query over the base codes (N matches only N).
 *
 * SMEM enumeration (`SmemSet`) runs over a *set* of indexes whose
 * texts together form one logical text: the monolith is a set of one,
 * a shard set N indexes stepped in lockstep (a pattern occurs iff it
 * occurs in some member, and its count is the sum). With b(e) the
 * minimal begin such that query[b(e), e) occurs, b() is non-decreasing
 * and the SMEMs are the [b(e), e) at right-maximal ends (b(e+1) >
 * b(e), or e = m). Callers discard SMEMs shorter than min_length L,
 * and the enumerator uses that in two exact phases:
 *
 *  (a) Window skip, left to right: backward-search query[x, x+L). If
 *      the search fails on query[y, x+L), every match starting in
 *      [x, y] would contain that absent string, so none of length
 *      >= L does; continue at x = y+1. The first window that occurs
 *      gives x0 (none: no SMEM), and every kept SMEM has b >= x0 and
 *      therefore e >= x0 + L.
 *  (b) Jump, right to left from e = m: extend to b = b(e) once. The
 *      ends e' in (E, e] all share begin b, where E = max e' < e with
 *      query[b-1, e') present (a prefix-closed property of e', found
 *      by galloping up from b-1 and then binary search, each probe one
 *      backward search); E is the next right-maximal end, and b(E) is
 *      the backward extension of E's probe range from b-1. Stop once
 *      E < x0 + L or b = 0.
 *
 * Every fresh backward search from full ranges (each window, the first
 * jump extension, each gallop or binary-search probe) starts with one
 * k-mer table lookup per member, over the longest ACGT run of at most
 * the members' smallest kmerLength() that ends the searched string and
 * lies above its floor. If that k-mer occurs in some member, lockstep
 * extension would have succeeded over every one of its bases and left
 * exactly the looked-up ranges (empty in members it is absent from),
 * so the search continues from there; otherwise it steps from the
 * full ranges. The output does not depend on the table.
 *
 * On one index an exact match of length m thus costs at most m + L
 * steps instead of the O(m * match length) of restarting a backward
 * search at every end position, and a query that occurs nowhere costs
 * a few failed windows. The output is exactly the SMEM set of length
 * >= L with every member's SA range, ordered by end position.
 *
 * Like MinimizerIndex, the index either owns its arrays (built from a
 * graph) or views spans into a memory-mapped `.pgbi` artifact
 * (store/format.hpp sections FMET/FBWT/FSSA/FMRK/FPOF).
 */

#ifndef PGB_INDEX_FM_INDEX_HPP
#define PGB_INDEX_FM_INDEX_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "graph/pangraph.hpp"

namespace pgb::index {

/** A BWT/FM-index over a graph's embedded path sequences. */
class FmIndex
{
  public:
    /** Symbols: 0 = sentinel, 1..4 = A,C,G,T, 5 = N. */
    static constexpr uint32_t kAlphabet = 6;
    /** Rank block spacing, in BWT symbols. */
    static constexpr uint32_t kRankBlock = 64;
    /** Default suffix-array sampling rate. */
    static constexpr uint32_t kDefaultSampleRate = 8;

    /** A half-open suffix-array rank interval. */
    struct SaRange
    {
        uint64_t lo = 0, hi = 0;

        uint64_t size() const { return hi > lo ? hi - lo : 0; }
        bool empty() const { return hi <= lo; }
    };

    /** A text position resolved to (path, offset within the path). */
    struct PathPos
    {
        uint32_t path = 0;
        uint64_t offset = 0;
    };

    /**
     * Build over @p graph's embedded paths (fatal if it has none).
     * Construction is deterministic; @p sample_rate trades locate()
     * speed (at most sample_rate LF steps) for space.
     */
    explicit FmIndex(const graph::PanGraph &graph,
                     uint32_t sample_rate = kDefaultSampleRate);

    /**
     * Zero-copy view over artifact sections (validated by the store
     * layer before construction). The spans must outlive the index.
     */
    FmIndex(uint32_t sample_rate, std::span<const uint8_t> bwt,
            std::span<const uint32_t> samples,
            std::span<const uint64_t> marks,
            std::span<const uint64_t> path_offsets);

    FmIndex(const FmIndex &) = delete;
    FmIndex &operator=(const FmIndex &) = delete;

    uint64_t textLength() const { return bwt_.size(); }
    uint32_t sampleRate() const { return sampleRate_; }
    size_t pathCount() const { return pathOffsets_.size() - 1; }
    bool isView() const { return viewMode_; }

    /** The interval of every suffix. */
    SaRange fullRange() const { return {0, textLength()}; }

    /**
     * Backward-extend @p range by prepending base code @p base_code
     * (0..3 = A..T, 4 = N): the interval of (base + current pattern).
     */
    SaRange extend(const SaRange &range, uint8_t base_code) const;

    /** Interval of @p pattern (base codes); empty range if absent. */
    SaRange find(std::span<const uint8_t> pattern) const;

    /** Occurrence count of @p pattern. */
    uint64_t count(std::span<const uint8_t> pattern) const;

    /** Occurrences of FM symbol @p symbol (< kAlphabet) in
     *  bwt[0, @p limit), @p limit <= textLength(). */
    uint64_t rankSymbol(uint8_t symbol, uint64_t limit) const;

    /** Longest k-mer length the interval table answers (>= 1). */
    uint32_t kmerLength() const { return kmerLength_; }

    /**
     * Interval of the ACGT string of @p length (1..kmerLength()) bases
     * packed in @p key, two bits per base code, first base most
     * significant: find() of that string, or an empty range.
     */
    SaRange
    kmerRange(uint32_t length, uint64_t key) const
    {
        const KmerBounds &bounds = kmers_[kmerLevel(length) + key];
        return {bounds.lo, bounds.hi};
    }

    /** Text position of the suffix at SA rank @p rank. */
    uint64_t locate(uint64_t rank) const;

    /** Resolve a non-sentinel text position to (path, path offset). */
    PathPos resolve(uint64_t text_pos) const;

    /** Heap bytes derived from the stored arrays at build and load
     *  (rank blocks, k-mer table, mark rank directory). */
    uint64_t
    derivedBytes() const
    {
        return blocks_.size() * sizeof(RankBlock) +
               kmers_.size() * sizeof(KmerBounds) +
               markRankWords_.size() * sizeof(uint32_t);
    }

    // ---- Persistence views (both modes) ------------------------------
    std::span<const uint8_t> bwtData() const { return bwt_; }
    std::span<const uint32_t> sampleData() const { return samples_; }
    std::span<const uint64_t> markData() const { return marks_; }
    std::span<const uint64_t> pathOffsetsData() const
    {
        return pathOffsets_;
    }

  private:
    /** Counts and bit-planes of 64 BWT symbols (see file comment). */
    struct RankBlock
    {
        uint32_t counts[kAlphabet]; ///< occurrences before the block
        uint64_t planes[3];         ///< bit k of each symbol code
    };

    struct KmerBounds
    {
        uint32_t lo = 0, hi = 0;
    };

    /** Index of the first k-mer of @p length in kmers_ (levels 0..K
     *  stored one after another, 4^d entries at level d). */
    static uint64_t
    kmerLevel(uint32_t length)
    {
        return ((uint64_t{1} << (2 * length)) - 1) / 3;
    }

    /** Derive the rank blocks, C[], the k-mer table and the mark rank
     *  directory from the stored arrays. */
    void initDerived();

    /** The BWT symbol at @p rank, decoded from the bit-planes. */
    uint8_t symbolAt(uint64_t rank) const;

    bool
    markedRank(uint64_t rank) const
    {
        return (marks_[rank / 64] >> (rank % 64)) & 1u;
    }

    /** Set mark bits at ranks < @p rank. */
    uint64_t markRank(uint64_t rank) const;

    uint32_t sampleRate_ = kDefaultSampleRate;
    bool viewMode_ = false;

    // Owned storage (build mode); the spans below view these.
    std::vector<uint8_t> ownedBwt_;
    std::vector<uint32_t> ownedSamples_;
    std::vector<uint64_t> ownedMarks_;
    std::vector<uint64_t> ownedPathOffsets_;

    std::span<const uint8_t> bwt_;
    std::span<const uint32_t> samples_;
    std::span<const uint64_t> marks_;
    std::span<const uint64_t> pathOffsets_;

    /** C[c] = number of text symbols smaller than c (derived). */
    uint64_t cumulative_[kAlphabet + 1] = {};
    /** One per 64 BWT symbols, plus one at the end (derived). */
    std::vector<RankBlock> blocks_;
    /** kmerLength() and the k-mer interval table (derived). */
    uint32_t kmerLength_ = 1;
    std::vector<KmerBounds> kmers_;
    /** Per-word prefix popcounts of marks_ (derived). */
    std::vector<uint32_t> markRankWords_;
};

/**
 * The SMEMs of one query over a set of FM-indexes, plus the buffers
 * that enumerate them (see the file comment for the algorithm). Keep
 * one per thread and reuse it: collect() allocates nothing once warm.
 */
class SmemSet
{
  public:
    /**
     * Enumerate the SMEMs of @p query of length at least
     * @p min_length over @p indexes, replacing the previous contents;
     * returns the number of FM-index steps taken, summed over the
     * member indexes: one per FmIndex::extend, and one per member for
     * a k-mer table lookup that seeded a search (a lookup of a k-mer
     * absent from every member is followed by ordinary steps and is
     * not counted, so a seeded search never counts more steps than
     * stepping would).
     */
    uint64_t collect(std::span<const FmIndex *const> indexes,
                     std::span<const uint8_t> query, uint32_t min_length);

    size_t size() const { return bounds_.size(); }
    uint32_t queryBegin(size_t i) const { return bounds_[i].begin; }
    uint32_t queryEnd(size_t i) const { return bounds_[i].end; }

    /** SMEM @p i's occurrences, one range per member index (empty
     *  for a member the SMEM does not occur in). */
    std::span<const FmIndex::SaRange>
    ranges(size_t i) const
    {
        return {ranges_.data() + i * width_, width_};
    }

  private:
    using Ranges = std::vector<FmIndex::SaRange>;

    /** Set @p ranges to every member's full range (the empty string). */
    void resetFull(Ranges &ranges) const;

    /**
     * Backward-extend @p ranges (those of query[b, e)) while b >
     * @p floor and the extension occurs in some member; returns the
     * final b. Members whose range is already empty are not stepped.
     */
    uint32_t extendLeft(std::span<const uint8_t> query, uint32_t b,
                        uint32_t floor, Ranges &ranges);

    /**
     * Fresh backward search of query[.., @p end) down to @p floor: seed
     * @p ranges from the k-mer table, then extendLeft(); returns the
     * final begin, as extendLeft() from the full ranges would.
     */
    uint32_t search(std::span<const uint8_t> query, uint32_t end,
                    uint32_t floor, Ranges &ranges);

    /** Whether query[@p begin, @p end) occurs; its ranges in probe_. */
    bool probe(std::span<const uint8_t> query, uint32_t begin,
               uint32_t end);

    struct Bounds
    {
        uint32_t begin = 0, end = 0;
    };

    std::span<const FmIndex *const> indexes_; ///< valid during collect()
    size_t width_ = 0;
    uint32_t kmerLength_ = 0; ///< the members' smallest kmerLength()
    uint64_t steps_ = 0;
    std::vector<Bounds> bounds_;
    Ranges ranges_;
    Ranges cur_, next_, probe_, best_;
};

} // namespace pgb::index

#endif // PGB_INDEX_FM_INDEX_HPP
