#include "pipeline/wfmash.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "align/wfa.hpp"
#include "core/thread_pool.hpp"
#include "index/minimizer.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace pgb::pipeline {

namespace {

obs::Counter obsMatches("wfmash.matches");

/** Minimizer position table over one target sequence region. */
struct TargetIndex
{
    std::unordered_map<uint64_t, std::vector<uint32_t>> table;

    TargetIndex(const std::vector<uint8_t> &bases, size_t begin,
                size_t end, int k, int w)
    {
        const std::span<const uint8_t> window(bases.data() + begin,
                                              end - begin);
        for (const index::Minimizer &mini :
             index::computeMinimizers(window, k, w)) {
            table[mini.hash].push_back(
                mini.position + static_cast<uint32_t>(begin));
        }
    }
};

} // namespace

WfmashResult
allToAllAlign(const build::SequenceCatalog &catalog,
              const WfmashParams &params)
{
    obs::Span span("wfmash.all_to_all");
    WfmashResult result;
    const size_t n = catalog.sequenceCount();
    if (n < 2)
        return result;

    // All ordered pairs (i < j).
    struct Pair
    {
        size_t a, b;
    };
    std::vector<Pair> pairs;
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j)
            pairs.push_back({i, j});
    }

    std::mutex merge_lock;
    core::parallelFor(0, pairs.size(), params.threads,
                      [&](size_t pair_index) {
        const auto [ai, bi] = pairs[pair_index];
        const uint64_t a_begin = catalog.start(ai);
        const uint64_t a_end = catalog.end(ai);
        const uint64_t b_begin = catalog.start(bi);
        const uint64_t b_end = catalog.end(bi);

        // Pull the raw bases of both sequences via the catalog.
        // (Catalog stores the concatenation; recreate spans.)
        std::vector<uint8_t> a_bases(a_end - a_begin);
        for (uint64_t p = a_begin; p < a_end; ++p)
            a_bases[p - a_begin] = catalog.baseAt(p);
        std::vector<uint8_t> b_bases(b_end - b_begin);
        for (uint64_t p = b_begin; p < b_end; ++p)
            b_bases[p - b_begin] = catalog.baseAt(p);

        TargetIndex target(b_bases, 0, b_bases.size(), params.k,
                           params.w);

        std::vector<build::MatchSegment> local_matches;
        uint64_t mapped = 0, total_segments = 0;
        int64_t wfa_penalty = 0;

        for (size_t seg_start = 0; seg_start < a_bases.size();
             seg_start += params.segmentLength) {
            ++total_segments;
            const size_t seg_end = std::min(
                seg_start + params.segmentLength, a_bases.size());
            const std::span<const uint8_t> segment(
                a_bases.data() + seg_start, seg_end - seg_start);

            // ---- MashMap role: diagonal voting.
            std::unordered_map<int64_t, uint32_t> votes;
            int64_t best_diag = 0;
            uint32_t best_votes = 0;
            struct AnchorPair
            {
                uint32_t qpos, tpos;
            };
            std::vector<AnchorPair> anchor_pairs;
            for (const index::Minimizer &mini :
                 index::computeMinimizers(segment, params.k,
                                          params.w)) {
                auto it = target.table.find(mini.hash);
                if (it == target.table.end() || it->second.size() > 16)
                    continue;
                for (uint32_t tpos : it->second) {
                    anchor_pairs.push_back({mini.position, tpos});
                    const int64_t diag = static_cast<int64_t>(tpos) -
                                         mini.position;
                    const uint32_t v = ++votes[diag / 128];
                    if (v > best_votes) {
                        best_votes = v;
                        best_diag = diag;
                    }
                }
            }
            if (best_votes < 3)
                continue; // segment unmapped (diverged region)
            ++mapped;

            // ---- WFA base-level scoring over the mapped window.
            const int64_t t_lo = std::clamp<int64_t>(
                best_diag - 64, 0,
                static_cast<int64_t>(b_bases.size()));
            const int64_t t_hi = std::clamp<int64_t>(
                best_diag + static_cast<int64_t>(segment.size()) + 64,
                0, static_cast<int64_t>(b_bases.size()));
            if (params.runWfa && t_hi > t_lo) {
                const auto wfa = align::wfaAlign(
                    segment,
                    std::span<const uint8_t>(
                        b_bases.data() + t_lo,
                        static_cast<size_t>(t_hi - t_lo)),
                    align::WfaPenalties{},
                    static_cast<int32_t>(segment.size()));
                if (wfa.reached)
                    wfa_penalty += wfa.score;
            }

            // ---- Exact-match runs: extend anchors near the winning
            // diagonal maximally; drop short and duplicate runs.
            std::unordered_map<int64_t, int64_t> diag_covered;
            for (const AnchorPair &anchor : anchor_pairs) {
                const int64_t diag = static_cast<int64_t>(anchor.tpos) -
                                     anchor.qpos;
                if (std::llabs(diag - best_diag) > 128)
                    continue;
                auto covered = diag_covered.find(diag);
                if (covered != diag_covered.end() &&
                    static_cast<int64_t>(anchor.qpos) <
                        covered->second) {
                    continue; // inside an already-emitted run
                }
                // Extend left and right.
                int64_t q = anchor.qpos + seg_start;
                int64_t t = anchor.tpos;
                while (q > 0 && t > 0 &&
                       a_bases[static_cast<size_t>(q - 1)] ==
                           b_bases[static_cast<size_t>(t - 1)]) {
                    --q;
                    --t;
                }
                int64_t q_end = anchor.qpos + seg_start;
                int64_t t_end = anchor.tpos;
                while (q_end < static_cast<int64_t>(a_bases.size()) &&
                       t_end < static_cast<int64_t>(b_bases.size()) &&
                       a_bases[static_cast<size_t>(q_end)] ==
                           b_bases[static_cast<size_t>(t_end)]) {
                    ++q_end;
                    ++t_end;
                }
                const int64_t run = q_end - q;
                diag_covered[diag] = q_end - static_cast<int64_t>(
                    seg_start);
                if (run < static_cast<int64_t>(params.minMatchLength))
                    continue;
                local_matches.push_back(
                    {a_begin + static_cast<uint64_t>(q),
                     b_begin + static_cast<uint64_t>(t),
                     static_cast<uint32_t>(run)});
            }
        }

        std::lock_guard<std::mutex> lock(merge_lock);
        result.matches.insert(result.matches.end(),
                              local_matches.begin(),
                              local_matches.end());
        result.segmentsMapped += mapped;
        result.segmentsTotal += total_segments;
        result.wfaPenaltyTotal += wfa_penalty;
    });

    // Deterministic output order regardless of thread interleaving.
    std::sort(result.matches.begin(), result.matches.end(),
              [](const build::MatchSegment &a,
                 const build::MatchSegment &b) {
                  if (a.aStart != b.aStart)
                      return a.aStart < b.aStart;
                  if (a.bStart != b.bStart)
                      return a.bStart < b.bStart;
                  return a.length < b.length;
              });
    result.matches.erase(
        std::unique(result.matches.begin(), result.matches.end(),
                    [](const build::MatchSegment &a,
                       const build::MatchSegment &b) {
                        return a.aStart == b.aStart &&
                               b.bStart == a.bStart &&
                               a.length == b.length;
                    }),
        result.matches.end());
    obsMatches.add(result.matches.size());
    return result;
}

} // namespace pgb::pipeline
