/**
 * @file
 * The two graph-building pipelines (paper Figure 3).
 *
 * PGGB:             all-to-all wfmash alignment -> seqwish transclosure
 *                   induction -> smoothxg-style POA polishing -> odgi
 *                   PGSGD visualization.
 * Minigraph-Cactus: iterative minigraph Seq2Graph mapping against the
 *                   growing graph (variant discovery) -> abPOA-style
 *                   induction of the discovered bubbles -> GFAffix-like
 *                   polishing (redundant-allele collapse) -> PGSGD
 *                   visualization.
 *
 * Every stage is timed by one obs::StageClock scope into the report's
 * StageTimes, and traced as a span, under the paper's stage names:
 * "alignment", "induction", "polishing", "visualization".
 */

#ifndef PGB_PIPELINE_GRAPH_BUILD_HPP
#define PGB_PIPELINE_GRAPH_BUILD_HPP

#include <cstdint>
#include <vector>

#include "core/timer.hpp"
#include "graph/pangraph.hpp"
#include "pipeline/wfmash.hpp"
#include "seq/sequence.hpp"

namespace pgb::pipeline {

/** Stage-timed graph-building outcome. */
struct GraphBuildReport
{
    graph::PanGraph graph;
    core::StageTimes timers;
    double layoutStressBefore = 0.0;
    double layoutStressAfter = 0.0;
    uint64_t matches = 0;         ///< pairwise matches aligned
    uint64_t closureClasses = 0;  ///< TC classes (PGGB)
    uint64_t bubbles = 0;         ///< discovered variants (MC)
    uint64_t poaCells = 0;        ///< polishing/induction DP cells
};

/** PGGB pipeline parameters. */
struct PggbParams
{
    WfmashParams wfmash;
    uint32_t smoothWindow = 2000;   ///< POA window (bases)
    uint32_t smoothMaxSeqs = 16;    ///< sequences per POA block
    uint32_t layoutIterations = 10; ///< PGSGD schedule (30 in odgi)
    unsigned threads = 1;
    uint64_t seed = 42;
};

/** Run the PGGB pipeline over @p haplotypes. */
GraphBuildReport buildPggb(const std::vector<seq::Sequence> &haplotypes,
                           const PggbParams &params);

/** Minigraph-Cactus pipeline parameters. */
struct McParams
{
    int k = 15;
    int w = 10;
    size_t segmentLength = 10000;  ///< assembly chop granule
    size_t minVariantLength = 4;   ///< smaller divergences are polished
    uint32_t layoutIterations = 10;
    unsigned threads = 1;
    uint64_t seed = 42;
};

/**
 * Run the Minigraph-Cactus pipeline: @p haplotypes[0] seeds the graph
 * (the reference-bias property the paper notes), the rest are mapped
 * in iteratively.
 */
GraphBuildReport
buildMinigraphCactus(const std::vector<seq::Sequence> &haplotypes,
                     const McParams &params);

} // namespace pgb::pipeline

#endif // PGB_PIPELINE_GRAPH_BUILD_HPP
