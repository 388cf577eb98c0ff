#include "pipeline/chain.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/scratch.hpp"
#include "obs/metrics.hpp"

namespace pgb::pipeline {

namespace {

obs::Counter obsChainDpAnchors("chain.dp_anchors");

/**
 * Thread-local buffers of the seed/cluster/chain stages. Cleared (not
 * freed) per read, so the steady-state hot path never mallocs.
 */
struct ChainScratch
{
    std::vector<index::Minimizer> minimizers;
    std::unordered_map<uint64_t, AnchorChain> buckets;
    std::vector<uint32_t> order;
    std::vector<int64_t> dp;
    std::vector<int64_t> parent;
    std::vector<size_t> byScore;
    std::vector<char> used;
};

} // namespace

GraphLinearization::GraphLinearization(const graph::PanGraph &graph)
{
    prefix_.resize(graph.nodeCount());
    uint64_t running = 0;
    for (graph::NodeId node = 0; node < graph.nodeCount(); ++node) {
        prefix_[node] = running;
        running += graph.nodeLength(node);
    }
    total_ = running;
}

void
collectAnchorsInto(const seq::Sequence &read,
                   const index::MinimizerIndex &index,
                   const GraphLinearization &linear,
                   std::vector<Anchor> &anchors, size_t max_occurrences)
{
    anchors.clear();
    std::vector<index::Minimizer> &minimizers =
        core::threadScratch<ChainScratch>().minimizers;
    core::NullProbe probe;
    index::computeMinimizersInto(read.codes(), index.k(), index.w(),
                                 minimizers, probe);
    for (const index::Minimizer &mini : minimizers) {
        const auto hits = index.occurrences(mini.hash);
        if (hits.empty() || hits.size() > max_occurrences)
            continue; // drop repetitive seeds, as all the tools do
        for (const index::GraphSeedHit &hit : hits) {
            Anchor anchor;
            anchor.queryPos = mini.position;
            anchor.node = hit.node;
            anchor.nodeOffset = hit.offset;
            // Read strand: the canonical strands of the query k-mer
            // and the graph k-mer agree on forward mappings.
            anchor.reverse = mini.reverse != hit.reverse;
            anchor.linearPos = linear.offsetOf(hit.node, hit.offset);
            anchors.push_back(anchor);
        }
    }
}

void
clusterAnchorsInto(std::span<const Anchor> anchors, uint64_t band_width,
                   std::vector<AnchorChain> &clusters)
{
    clusters.clear();
    // Bucket by (strand, diagonal band). Reverse-strand alignments
    // are colinear along anti-diagonals (linear + query constant).
    std::unordered_map<uint64_t, AnchorChain> &buckets =
        core::threadScratch<ChainScratch>().buckets;
    buckets.clear();
    for (uint32_t i = 0; i < anchors.size(); ++i) {
        const Anchor &anchor = anchors[i];
        const uint64_t diag = anchor.reverse
            ? anchor.linearPos + anchor.queryPos
            : anchor.linearPos + (1ull << 40) - anchor.queryPos;
        const uint64_t key = (diag / band_width) << 1 |
                             (anchor.reverse ? 1 : 0);
        AnchorChain &chain = buckets[key];
        chain.anchorIds.push_back(i);
        chain.reverse = anchor.reverse;
        ++chain.score;
    }
    clusters.reserve(buckets.size());
    for (auto &[key, chain] : buckets)
        clusters.push_back(std::move(chain));
    std::sort(clusters.begin(), clusters.end(),
              [](const AnchorChain &a, const AnchorChain &b) {
                  return a.score > b.score;
              });
}

std::vector<AnchorChain>
clusterAnchors(std::span<const Anchor> anchors, uint64_t band_width)
{
    std::vector<AnchorChain> clusters;
    clusterAnchorsInto(anchors, band_width, clusters);
    return clusters;
}

void
chainAnchorsInto(std::span<const Anchor> anchors,
                 const ChainParams &params,
                 std::vector<AnchorChain> &chains)
{
    chains.clear();
    obsChainDpAnchors.add(anchors.size());
    ChainScratch &ws = core::threadScratch<ChainScratch>();
    // Sort anchor ids by (strand, linear position, query position).
    std::vector<uint32_t> &order = ws.order;
    order.resize(anchors.size());
    for (uint32_t i = 0; i < anchors.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        if (anchors[a].reverse != anchors[b].reverse)
            return !anchors[a].reverse;
        if (anchors[a].linearPos != anchors[b].linearPos)
            return anchors[a].linearPos < anchors[b].linearPos;
        return anchors[a].queryPos < anchors[b].queryPos;
    });

    const size_t n = order.size();
    std::vector<int64_t> &dp = ws.dp;
    std::vector<int64_t> &parent = ws.parent;
    dp.assign(n, 0);
    parent.assign(n, -1);
    for (size_t i = 0; i < n; ++i) {
        const Anchor &cur = anchors[order[i]];
        dp[i] = params.matchBonus;
        const size_t lookback =
            i > params.maxLookback ? i - params.maxLookback : 0;
        for (size_t j = i; j-- > lookback;) {
            const Anchor &prev = anchors[order[j]];
            if (prev.reverse != cur.reverse)
                break; // strands are grouped by the sort
            if (prev.linearPos >= cur.linearPos)
                continue;
            // Forward chains advance on the query; reverse chains
            // retreat (the query runs backward along the graph).
            if (cur.reverse ? prev.queryPos <= cur.queryPos
                            : prev.queryPos >= cur.queryPos) {
                continue;
            }
            const uint64_t ref_gap = cur.linearPos - prev.linearPos;
            const uint64_t query_gap = cur.reverse
                ? prev.queryPos - cur.queryPos
                : cur.queryPos - prev.queryPos;
            if (ref_gap > params.maxGap || query_gap > params.maxGap)
                continue;
            const auto gap_diff = static_cast<int64_t>(
                ref_gap > query_gap ? ref_gap - query_gap
                                    : query_gap - ref_gap);
            const int64_t candidate = dp[j] + params.matchBonus -
                params.gapScale * gap_diff / 8;
            if (candidate > dp[i]) {
                dp[i] = candidate;
                parent[i] = static_cast<int64_t>(j);
            }
        }
    }

    // Extract chains best-first over unused anchors.
    std::vector<size_t> &by_score = ws.byScore;
    by_score.resize(n);
    for (size_t i = 0; i < n; ++i)
        by_score[i] = i;
    std::sort(by_score.begin(), by_score.end(),
              [&](size_t a, size_t b) { return dp[a] > dp[b]; });
    std::vector<char> &used = ws.used;
    used.assign(n, 0);
    for (size_t head : by_score) {
        if (used[head] != 0)
            continue;
        AnchorChain chain;
        chain.score = dp[head];
        int64_t walk = static_cast<int64_t>(head);
        while (walk >= 0 && used[static_cast<size_t>(walk)] == 0) {
            used[static_cast<size_t>(walk)] = 1;
            chain.anchorIds.push_back(order[static_cast<size_t>(walk)]);
            chain.reverse =
                anchors[order[static_cast<size_t>(walk)]].reverse;
            walk = parent[static_cast<size_t>(walk)];
        }
        std::reverse(chain.anchorIds.begin(), chain.anchorIds.end());
        chains.push_back(std::move(chain));
    }
}

std::vector<AnchorChain>
chainAnchors(std::span<const Anchor> anchors, const ChainParams &params)
{
    std::vector<AnchorChain> chains;
    chainAnchorsInto(anchors, params, chains);
    return chains;
}

} // namespace pgb::pipeline
