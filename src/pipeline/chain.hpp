/**
 * @file
 * Seed anchoring, clustering, and chaining for the Seq2Graph mapping
 * pipelines (paper Figure 1, steps 2-3).
 *
 * Anchors pair a query k-mer position with a graph occurrence.
 * Clustering groups anchors whose graph/query offsets agree (the cheap
 * locality heuristic of vg map / GraphAligner); chaining runs the
 * minigraph-style 2-D dynamic program that scores colinear anchor
 * subsets with gap costs, where graph distances come from the node
 * linearization (minigraph linearizes its reference graph the same
 * way).
 */

#ifndef PGB_PIPELINE_CHAIN_HPP
#define PGB_PIPELINE_CHAIN_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "graph/pangraph.hpp"
#include "index/minimizer.hpp"
#include "seq/sequence.hpp"

namespace pgb::pipeline {

/** A seed anchor: query position matched to a graph position. */
struct Anchor
{
    uint32_t queryPos = 0;
    uint32_t node = 0;
    uint32_t nodeOffset = 0;
    bool reverse = false;  ///< anchor is on the read's reverse strand
    uint64_t linearPos = 0;///< linearized graph coordinate of the hit
};

/** Pseudo-linear coordinates for graph nodes (by id-order prefix sum). */
class GraphLinearization
{
  public:
    explicit GraphLinearization(const graph::PanGraph &graph);

    uint64_t
    offsetOf(uint32_t node, uint32_t node_offset) const
    {
        return prefix_[node] + node_offset;
    }

    uint64_t totalBases() const { return total_; }

    /** Linear offset of every node's first base, by node id. */
    std::span<const uint64_t> nodeStarts() const { return prefix_; }

  private:
    std::vector<uint64_t> prefix_;
    uint64_t total_ = 0;
};

/**
 * Collect anchors for @p read (both strands) into @p anchors (cleared
 * first, capacity reused). Minimizer and window temporaries live in
 * thread-local scratch — the per-read hot path allocates nothing once
 * warm.
 */
void collectAnchorsInto(const seq::Sequence &read,
                        const index::MinimizerIndex &index,
                        const GraphLinearization &linear,
                        std::vector<Anchor> &anchors,
                        size_t max_occurrences = 64);

/** A cluster/chain of anchors with a score. */
struct AnchorChain
{
    std::vector<uint32_t> anchorIds; ///< indices into the anchor array
    int64_t score = 0;
    bool reverse = false;
};

/**
 * Cheap diagonal clustering: bucket anchors by strand and
 * (linearPos - queryPos) band, score = anchor count. Writes into
 * @p clusters (cleared first); the bucket table is thread-local.
 */
void clusterAnchorsInto(std::span<const Anchor> anchors,
                        uint64_t band_width,
                        std::vector<AnchorChain> &clusters);

/** Returning variant of clusterAnchorsInto. */
std::vector<AnchorChain> clusterAnchors(std::span<const Anchor> anchors,
                                        uint64_t band_width = 128);

/** Chaining parameters (minigraph-style). */
struct ChainParams
{
    int64_t matchBonus = 8;     ///< per anchor
    int64_t gapScale = 1;       ///< per base of gap cost (divided by 8)
    uint64_t maxGap = 5000;     ///< max bridgeable gap
    size_t maxLookback = 64;    ///< DP predecessors considered
};

/**
 * Minigraph's 2-D chaining DP over anchors (sorted internally); the
 * stage GWFA was extracted from. Writes chains best-first into
 * @p chains (cleared first); the DP arrays are thread-local.
 */
void chainAnchorsInto(std::span<const Anchor> anchors,
                      const ChainParams &params,
                      std::vector<AnchorChain> &chains);

/** Returning variant of chainAnchorsInto. */
std::vector<AnchorChain> chainAnchors(std::span<const Anchor> anchors,
                                      const ChainParams &params);

} // namespace pgb::pipeline

#endif // PGB_PIPELINE_CHAIN_HPP
