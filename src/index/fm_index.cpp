#include "index/fm_index.hpp"

#include <algorithm>
#include <bit>

#include "core/logging.hpp"
#include "index/suffix_array.hpp"
#include "seq/alphabet.hpp"

namespace pgb::index {

namespace {

/** FM symbol of a base code (sentinel 0 is reserved). */
inline uint8_t
symbolOf(uint8_t base_code)
{
    return static_cast<uint8_t>(base_code + 1);
}

} // namespace

FmIndex::FmIndex(const graph::PanGraph &graph, uint32_t sample_rate)
    : sampleRate_(sample_rate == 0 ? 1 : sample_rate)
{
    if (graph.pathCount() == 0)
        core::fatal("FM-index construction needs embedded haplotype "
                    "paths, and the graph has none");

    // Text: each path's spelled sequence followed by one sentinel.
    // All sentinels are equal; suffixes that hit one still order
    // deterministically (shorter-suffix-first, the suffix_array
    // convention), and patterns never contain the sentinel, so
    // backward search is exact for any base-code query.
    ownedPathOffsets_.reserve(graph.pathCount() + 1);
    uint64_t total = 0;
    ownedPathOffsets_.push_back(0);
    for (graph::PathId p = 0; p < graph.pathCount(); ++p) {
        total += graph.pathLength(p) + 1;
        ownedPathOffsets_.push_back(total);
    }
    if (total >= UINT32_MAX)
        core::fatal("FM-index text too large for the uint32 suffix "
                    "array (", total, " symbols)");

    std::vector<uint32_t> text;
    text.reserve(total);
    for (graph::PathId p = 0; p < graph.pathCount(); ++p) {
        const seq::Sequence spelled = graph.pathSequence(p);
        for (uint8_t code : spelled.codes())
            text.push_back(symbolOf(code));
        text.push_back(0);
    }

    const std::vector<uint32_t> sa = buildSuffixArray(text);
    const uint64_t n = text.size();

    ownedBwt_.resize(n);
    for (uint64_t r = 0; r < n; ++r) {
        const uint32_t pos = sa[r];
        ownedBwt_[r] = static_cast<uint8_t>(
            pos == 0 ? text[n - 1] : text[pos - 1]);
    }

    // Sampled SA: mark ranks whose text position is a multiple of the
    // sample rate, plus every path start, so locate()'s LF walk stops
    // before it would cross a sentinel into the previous path.
    std::vector<uint8_t> is_start(n, 0);
    for (size_t p = 0; p + 1 < ownedPathOffsets_.size(); ++p)
        is_start[ownedPathOffsets_[p]] = 1;
    ownedMarks_.assign((n + 63) / 64, 0);
    for (uint64_t r = 0; r < n; ++r) {
        const uint32_t pos = sa[r];
        if (pos % sampleRate_ == 0 || is_start[pos]) {
            ownedMarks_[r / 64] |= uint64_t{1} << (r % 64);
            ownedSamples_.push_back(pos);
        }
    }

    bwt_ = ownedBwt_;
    samples_ = ownedSamples_;
    marks_ = ownedMarks_;
    pathOffsets_ = ownedPathOffsets_;
    initDerived();
}

FmIndex::FmIndex(uint32_t sample_rate, std::span<const uint8_t> bwt,
                 std::span<const uint32_t> samples,
                 std::span<const uint64_t> marks,
                 std::span<const uint64_t> path_offsets)
    : sampleRate_(sample_rate == 0 ? 1 : sample_rate), viewMode_(true),
      bwt_(bwt), samples_(samples), marks_(marks),
      pathOffsets_(path_offsets)
{
    initDerived();
}

void
FmIndex::initDerived()
{
    const uint64_t n = bwt_.size();
    if (n >= UINT32_MAX)
        core::fatal("FM-index text too large for uint32 rank blocks (",
                    n, " symbols)");

    // Rank blocks: running counts at every block start, the planes of
    // the block's symbols, and one block past the last full one so
    // rank(c, n) needs no special case.
    blocks_.assign(n / kRankBlock + 1, RankBlock{});
    uint32_t running[kAlphabet] = {};
    for (uint64_t r = 0; r < n; ++r) {
        RankBlock &block = blocks_[r / kRankBlock];
        if (r % kRankBlock == 0)
            std::copy(running, running + kAlphabet, block.counts);
        const uint8_t sym = bwt_[r];
        for (uint32_t k = 0; k < 3; ++k)
            block.planes[k] |= uint64_t{(sym >> k) & 1u} << (r % kRankBlock);
        ++running[sym];
    }
    if (n % kRankBlock == 0)
        std::copy(running, running + kAlphabet, blocks_.back().counts);

    cumulative_[0] = 0;
    for (uint32_t c = 0; c < kAlphabet; ++c)
        cumulative_[c + 1] = cumulative_[c] + running[c];

    // K-mer table, level by level: the ranges of c·P from those of P.
    const uint32_t log4 =
        n == 0 ? 0 : (static_cast<uint32_t>(std::bit_width(n)) - 1) / 2;
    kmerLength_ = std::clamp<uint32_t>(log4, 4, 13) - 3;
    kmers_.assign(kmerLevel(kmerLength_ + 1), KmerBounds{});
    kmers_[0] = {0, static_cast<uint32_t>(n)};
    for (uint32_t d = 1; d <= kmerLength_; ++d) {
        const uint64_t parents = uint64_t{1} << (2 * (d - 1));
        for (uint64_t key = 0; key < parents; ++key) {
            const KmerBounds &parent = kmers_[kmerLevel(d - 1) + key];
            if (parent.lo >= parent.hi)
                continue;
            for (uint8_t base = 0; base < 4; ++base) {
                const SaRange child = extend({parent.lo, parent.hi}, base);
                kmers_[kmerLevel(d) + (uint64_t{base} << (2 * (d - 1))) +
                       key] = {static_cast<uint32_t>(child.lo),
                               static_cast<uint32_t>(child.hi)};
            }
        }
    }

    markRankWords_.resize(marks_.size());
    uint64_t seen = 0;
    for (size_t w = 0; w < marks_.size(); ++w) {
        markRankWords_[w] = static_cast<uint32_t>(seen);
        seen += std::popcount(marks_[w]);
    }
}

uint64_t
FmIndex::rankSymbol(uint8_t symbol, uint64_t limit) const
{
    const RankBlock &block = blocks_[limit / kRankBlock];
    // plane k ^ ~0 when bit k of the symbol is clear: all three words
    // then have bit i set exactly where bwt[i] == symbol.
    const uint64_t match =
        (block.planes[0] ^ (uint64_t{symbol & 1u} - 1)) &
        (block.planes[1] ^ (uint64_t{(symbol >> 1) & 1u} - 1)) &
        (block.planes[2] ^ (uint64_t{(symbol >> 2) & 1u} - 1));
    const uint64_t below = (uint64_t{1} << (limit % kRankBlock)) - 1;
    return block.counts[symbol] + std::popcount(match & below);
}

uint8_t
FmIndex::symbolAt(uint64_t rank) const
{
    const RankBlock &block = blocks_[rank / kRankBlock];
    const uint64_t bit = rank % kRankBlock;
    return static_cast<uint8_t>(((block.planes[0] >> bit) & 1u) |
                                (((block.planes[1] >> bit) & 1u) << 1) |
                                (((block.planes[2] >> bit) & 1u) << 2));
}

uint64_t
FmIndex::markRank(uint64_t rank) const
{
    const uint64_t mask = (uint64_t{1} << (rank % 64)) - 1;
    return markRankWords_[rank / 64] +
           std::popcount(marks_[rank / 64] & mask);
}

FmIndex::SaRange
FmIndex::extend(const SaRange &range, uint8_t base_code) const
{
    const uint8_t sym = symbolOf(base_code);
    const uint64_t base = cumulative_[sym];
    return {base + rankSymbol(sym, range.lo),
            base + rankSymbol(sym, range.hi)};
}

FmIndex::SaRange
FmIndex::find(std::span<const uint8_t> pattern) const
{
    SaRange range = fullRange();
    for (size_t i = pattern.size(); i-- > 0;) {
        range = extend(range, pattern[i]);
        if (range.empty())
            return {0, 0};
    }
    return range;
}

uint64_t
FmIndex::count(std::span<const uint8_t> pattern) const
{
    return find(pattern).size();
}

uint64_t
FmIndex::locate(uint64_t rank) const
{
    uint64_t steps = 0;
    while (!markedRank(rank)) {
        const uint8_t sym = symbolAt(rank);
        rank = cumulative_[sym] + rankSymbol(sym, rank);
        ++steps;
    }
    return samples_[markRank(rank)] + steps;
}

FmIndex::PathPos
FmIndex::resolve(uint64_t text_pos) const
{
    const auto it = std::upper_bound(pathOffsets_.begin(),
                                     pathOffsets_.end(), text_pos);
    const uint32_t path =
        static_cast<uint32_t>(it - pathOffsets_.begin()) - 1;
    return {path, text_pos - pathOffsets_[path]};
}

// ---------------------------------------------------------------------
// SmemSet
// ---------------------------------------------------------------------

void
SmemSet::resetFull(Ranges &ranges) const
{
    for (size_t s = 0; s < width_; ++s)
        ranges[s] = indexes_[s]->fullRange();
}

uint32_t
SmemSet::extendLeft(std::span<const uint8_t> query, uint32_t b,
                    uint32_t floor, Ranges &ranges)
{
    while (b > floor) {
        const uint8_t base = query[b - 1];
        bool occurs = false;
        for (size_t s = 0; s < width_; ++s) {
            if (ranges[s].empty()) {
                next_[s] = {};
                continue;
            }
            next_[s] = indexes_[s]->extend(ranges[s], base);
            ++steps_;
            occurs |= !next_[s].empty();
        }
        if (!occurs)
            break;
        ranges.swap(next_);
        --b;
    }
    return b;
}

uint32_t
SmemSet::search(std::span<const uint8_t> query, uint32_t end,
                uint32_t floor, Ranges &ranges)
{
    // The longest ACGT run of at most kmerLength_ bases ending at end
    // and lying at or above floor, packed first base most significant.
    uint32_t length = 0;
    uint64_t key = 0;
    while (length < kmerLength_ && end - length > floor) {
        const uint8_t base = query[end - length - 1];
        if (base > 3)
            break;
        key |= uint64_t{base} << (2 * length);
        ++length;
    }
    if (length > 0) {
        bool occurs = false;
        for (size_t s = 0; s < width_; ++s) {
            ranges[s] = indexes_[s]->kmerRange(length, key);
            occurs |= !ranges[s].empty();
        }
        if (occurs) {
            steps_ += width_;
            return extendLeft(query, end - length, floor, ranges);
        }
    }
    resetFull(ranges);
    return extendLeft(query, end, floor, ranges);
}

bool
SmemSet::probe(std::span<const uint8_t> query, uint32_t begin,
               uint32_t end)
{
    return search(query, end, begin, probe_) == begin;
}

uint64_t
SmemSet::collect(std::span<const FmIndex *const> indexes,
                 std::span<const uint8_t> query, uint32_t min_length)
{
    indexes_ = indexes;
    width_ = indexes.size();
    steps_ = 0;
    bounds_.clear();
    ranges_.clear();
    for (Ranges *ranges : {&cur_, &next_, &probe_, &best_})
        ranges->resize(width_);
    kmerLength_ = UINT32_MAX;
    for (const FmIndex *index : indexes)
        kmerLength_ = std::min(kmerLength_, index->kmerLength());
    const auto m = static_cast<uint32_t>(query.size());
    const uint32_t min_len = std::max(min_length, 1u);
    if (width_ == 0 || m < min_len)
        return 0;

    // (a) Window skip: x0 = the first x whose window query[x, x+L)
    // occurs. A search failing on query[y-1, x+L) rules out every
    // long match starting in [x, y-1].
    uint32_t x = 0;
    while (true) {
        if (m - x < min_len)
            return steps_;
        const uint32_t y = search(query, x + min_len, x, cur_);
        if (y == x)
            break;
        x = y;
    }
    const uint32_t lowest_end = x + min_len;

    // (b) Jump from right-maximal end to right-maximal end, from e = m
    // down, carrying (e, b(e), ranges of query[b(e), e)) in cur_.
    uint32_t e = m;
    uint32_t b = search(query, e, 0, cur_);
    while (true) {
        if (e - b >= min_len) {
            bounds_.push_back({b, e});
            ranges_.insert(ranges_.end(), cur_.begin(), cur_.end());
        }
        if (b == 0)
            break;
        // The next end E = max e' < e with query[b-1, e') present:
        // lo is known present (best_ holds its ranges), hi absent.
        // Ends below lowest_end keep no SMEM, so the gallop starts
        // there rather than at b.
        const uint32_t from = b - 1;
        uint32_t lo = from, hi = e;
        resetFull(best_);
        for (uint32_t at = std::max(b, lowest_end); at < hi;
             at = from + 2 * (at - from)) {
            if (!probe(query, from, at)) {
                hi = at;
                break;
            }
            lo = at;
            best_.swap(probe_);
        }
        while (hi - lo > 1 && hi > lowest_end) {
            const uint32_t mid = lo + (hi - lo) / 2;
            if (probe(query, from, mid)) {
                lo = mid;
                best_.swap(probe_);
            } else {
                hi = mid;
            }
        }
        if (lo < lowest_end)
            break;
        e = lo;
        cur_.swap(best_);
        b = extendLeft(query, from, 0, cur_);
    }

    // Found right to left; report in ascending end order.
    std::reverse(bounds_.begin(), bounds_.end());
    std::reverse(ranges_.begin(), ranges_.end());
    for (size_t i = 0; i < bounds_.size(); ++i)
        std::reverse(ranges_.begin() + i * width_,
                     ranges_.begin() + (i + 1) * width_);
    return steps_;
}

} // namespace pgb::index
