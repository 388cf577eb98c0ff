/**
 * @file
 * Tests for the Smith-Waterman family: SSW (striped vs scalar) and
 * GSSW (SIMD DAG kernel vs per-cell reference), including the
 * node-splitting invariance property behind the paper's §6.2 case
 * study.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "align/gssw.hpp"
#include "align/ssw.hpp"
#include "core/rng.hpp"
#include "graph/local_graph.hpp"
#include "seq/sequence.hpp"

namespace pgb::align {
namespace {

using core::NullProbe;
using core::Rng;
using graph::LocalGraph;

std::vector<uint8_t>
randomBases(Rng &rng, size_t length)
{
    std::vector<uint8_t> bases;
    bases.reserve(length);
    for (size_t i = 0; i < length; ++i)
        bases.push_back(static_cast<uint8_t>(rng.below(4)));
    return bases;
}

/** Mutate `donor` lightly so alignments are non-trivial. */
std::vector<uint8_t>
mutate(Rng &rng, const std::vector<uint8_t> &donor, double rate)
{
    std::vector<uint8_t> out;
    for (uint8_t base : donor) {
        if (rng.chance(rate / 3))
            continue; // deletion
        if (rng.chance(rate / 3))
            out.push_back(static_cast<uint8_t>(rng.below(4)));
        if (rng.chance(rate)) {
            out.push_back(
                static_cast<uint8_t>((base + 1 + rng.below(3)) % 4));
        } else {
            out.push_back(base);
        }
    }
    if (out.empty())
        out.push_back(0);
    return out;
}

// ----------------------------------------------------------- SSW

TEST(Ssw, PerfectMatchScoresLength)
{
    const auto query = seq::encodeString("ACGTACGTAC");
    const auto hit = sswAlign(query, query,
                              ScoreParams::mappingDefaults());
    EXPECT_EQ(hit.score, 10);
    EXPECT_EQ(hit.queryEnd, 9);
    EXPECT_EQ(hit.refEnd, 9);
}

TEST(Ssw, FindsLocalRegion)
{
    const auto query = seq::encodeString("GGGG");
    const auto reference = seq::encodeString("ACACGGGGACAC");
    const auto hit = sswAlign(query, reference,
                              ScoreParams::mappingDefaults());
    EXPECT_EQ(hit.score, 4);
    EXPECT_EQ(hit.refEnd, 7);
}

TEST(Ssw, MismatchOnlyAlignmentsClampAtZero)
{
    const auto query = seq::encodeString("AAAA");
    const auto reference = seq::encodeString("CCCC");
    const auto hit = sswAlign(query, reference,
                              ScoreParams::mappingDefaults());
    EXPECT_EQ(hit.score, 0);
}

TEST(Ssw, GapAlignmentUsesAffineCosts)
{
    // Query = reference with 2-base deletion; one open + one extend.
    const auto reference = seq::encodeString("ACGTACGTACGTACGTACGT");
    auto query = reference;
    query.erase(query.begin() + 8, query.begin() + 10);
    const ScoreParams params = ScoreParams::mappingDefaults();
    const auto hit = sswAlign(query, reference, params);
    // 18 matches - (gapOpen + gapExtend) = 18 - 7 = 11.
    EXPECT_EQ(hit.score, 18 - params.gapOpen - params.gapExtend);
}

struct SswCase
{
    size_t queryLen;
    size_t refLen;
    double errorRate;
};

class SswEquivalence : public ::testing::TestWithParam<SswCase>
{
};

TEST_P(SswEquivalence, StripedMatchesScalar)
{
    const SswCase param = GetParam();
    Rng rng(param.queryLen * 1000003 + param.refLen);
    const ScoreParams params = ScoreParams::mappingDefaults();
    for (int round = 0; round < 10; ++round) {
        const auto reference = randomBases(rng, param.refLen);
        std::vector<uint8_t> query;
        if (param.errorRate < 0) {
            query = randomBases(rng, param.queryLen);
        } else {
            const size_t start =
                rng.below(param.refLen - param.queryLen + 1);
            query.assign(reference.begin() + start,
                         reference.begin() + start + param.queryLen);
            query = mutate(rng, query, param.errorRate);
        }
        NullProbe probe;
        const auto scalar =
            sswAlignScalar(query, reference, params, probe);
        const auto striped = sswAlign(query, reference, params);
        ASSERT_EQ(striped.score, scalar.score)
            << "round " << round << " qlen=" << query.size();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SswEquivalence,
    ::testing::Values(SswCase{1, 10, -1}, SswCase{7, 40, -1},
                      SswCase{8, 64, 0.05}, SswCase{9, 33, -1},
                      SswCase{16, 100, 0.02}, SswCase{50, 300, 0.05},
                      SswCase{150, 500, 0.01}, SswCase{150, 500, 0.2},
                      SswCase{255, 800, 0.1}, SswCase{64, 64, -1}));

TEST(Ssw, StripedMatchesScalarWithVariedParams)
{
    Rng rng(99);
    // Keep 2*gapOpen >= mismatch (lazy-F exactness condition).
    const ScoreParams param_sets[] = {
        {1, 4, 6, 1}, {2, 3, 4, 2}, {1, 1, 1, 1}, {3, 5, 8, 2},
        {1, 2, 2, 1},
    };
    for (const ScoreParams &params : param_sets) {
        for (int round = 0; round < 5; ++round) {
            const auto reference = randomBases(rng, 200);
            const auto query = randomBases(rng, 40);
            NullProbe probe;
            const auto scalar =
                sswAlignScalar(query, reference, params, probe);
            const auto striped = sswAlign(query, reference, params);
            ASSERT_EQ(striped.score, scalar.score);
        }
    }
}

TEST(Ssw, HandlesNBasesAsMismatch)
{
    const auto query = seq::encodeString("ACNGT");
    const auto reference = seq::encodeString("ACGGT");
    NullProbe probe;
    const auto scalar = sswAlignScalar(
        query, reference, ScoreParams::mappingDefaults(), probe);
    const auto striped =
        sswAlign(query, reference, ScoreParams::mappingDefaults());
    EXPECT_EQ(striped.score, scalar.score);
}

// ----------------------------------------------------------- GSSW

/** Single-node graph must reproduce plain SSW. */
TEST(Gssw, SingleNodeEqualsSsw)
{
    Rng rng(7);
    const ScoreParams params = ScoreParams::mappingDefaults();
    for (int round = 0; round < 10; ++round) {
        const auto reference = randomBases(rng, 120);
        const auto query = randomBases(rng, 30);
        LocalGraph g;
        g.addNode(std::vector<uint8_t>(reference));
        g.finalize();
        const auto graph_hit = gsswAlign(g, query, params);
        const auto flat_hit = sswAlign(query, reference, params);
        EXPECT_EQ(graph_hit.best.score, flat_hit.score);
    }
}

/** Chain of nodes spelling one sequence must also reproduce SSW. */
TEST(Gssw, LinearChainEqualsSsw)
{
    Rng rng(8);
    const ScoreParams params = ScoreParams::mappingDefaults();
    for (int round = 0; round < 10; ++round) {
        const auto reference = randomBases(rng, 150);
        const auto query = randomBases(rng, 40);
        LocalGraph g;
        uint32_t prev = UINT32_MAX;
        for (size_t i = 0; i < reference.size(); i += 13) {
            const size_t end = std::min(i + 13, reference.size());
            const uint32_t node = g.addNode(std::vector<uint8_t>(
                reference.begin() + i, reference.begin() + end));
            if (prev != UINT32_MAX)
                g.addEdge(prev, node);
            prev = node;
        }
        g.finalize();
        const auto graph_hit = gsswAlign(g, query, params);
        const auto flat_hit = sswAlign(query, reference, params);
        ASSERT_EQ(graph_hit.best.score, flat_hit.score)
            << "round " << round;
    }
}

/** Random DAGs: striped SIMD kernel vs per-cell scalar reference. */
TEST(Gssw, MatchesScalarReferenceOnRandomDags)
{
    Rng rng(9);
    const ScoreParams params = ScoreParams::mappingDefaults();
    for (int round = 0; round < 20; ++round) {
        LocalGraph g;
        const size_t n_nodes = 2 + rng.below(12);
        for (size_t v = 0; v < n_nodes; ++v)
            g.addNode(randomBases(rng, 1 + rng.below(30)));
        // Random forward edges (guaranteed DAG).
        for (size_t v = 0; v + 1 < n_nodes; ++v) {
            g.addEdge(static_cast<uint32_t>(v),
                      static_cast<uint32_t>(v + 1));
            if (v + 2 < n_nodes && rng.chance(0.5)) {
                g.addEdge(static_cast<uint32_t>(v),
                          static_cast<uint32_t>(
                              v + 2 + rng.below(n_nodes - v - 2)));
            }
        }
        g.finalize();
        ASSERT_TRUE(g.isDag());
        const auto query = randomBases(rng, 5 + rng.below(60));
        const auto simd = gsswAlign(g, query, params);
        const auto scalar = gsswAlignScalar(g, query, params);
        ASSERT_EQ(simd.best.score, scalar.score) << "round " << round;
        ASSERT_EQ(simd.best.node, scalar.node) << "round " << round;
        ASSERT_EQ(simd.best.nodeOffset, scalar.nodeOffset)
            << "round " << round;
    }
}

/**
 * Splitting nodes must not change alignment scores (the paper's §6.2
 * Split-M-Graph transform changes performance, not results).
 */
TEST(Gssw, ScoreInvariantUnderNodeSplitting)
{
    Rng rng(10);
    const ScoreParams params = ScoreParams::mappingDefaults();
    for (int round = 0; round < 10; ++round) {
        LocalGraph g;
        const uint32_t a = g.addNode(randomBases(rng, 40));
        const uint32_t b = g.addNode(randomBases(rng, 25));
        const uint32_t c = g.addNode(randomBases(rng, 33));
        g.addEdge(a, b);
        g.addEdge(a, c);
        g.finalize();
        const auto query = randomBases(rng, 30);
        const auto whole = gsswAlign(g, query, params);
        const LocalGraph split = g.splitTo1bp();
        const auto split_hit = gsswAlign(split, query, params);
        ASSERT_EQ(whole.best.score, split_hit.best.score)
            << "round " << round;
    }
}

TEST(Gssw, KeepMatricesStoresFullDp)
{
    LocalGraph g;
    g.addNode("ACGTACGT");
    g.addNode("TTTT");
    g.addEdge(0, 1);
    g.finalize();
    const auto query = seq::encodeString("ACGTTTT");
    GsswOptions options;
    options.keepMatrices = true;
    const auto result = gsswAlign(
        g, query, ScoreParams::mappingDefaults(), options);
    ASSERT_EQ(result.matrixOffsets.size(), 3u);
    // Uninstrumented runs keep the kernel's striped columns: one
    // segLen x lanes block per reference base, padding included.
    ASSERT_EQ(result.matrixLayout, GsswMatrixLayout::kStriped);
    const size_t col = static_cast<size_t>(result.matrixSegLen) *
                       static_cast<size_t>(result.matrixLanes);
    EXPECT_GE(col, query.size());
    EXPECT_EQ(result.nodeMatrix(0).size(), col * 8);
    EXPECT_EQ(result.nodeMatrix(1).size(), col * 4);
    EXPECT_EQ(result.cellsComputed, query.size() * 12);

    GsswOptions no_matrices;
    no_matrices.keepMatrices = false;
    const auto lean = gsswAlign(
        g, query, ScoreParams::mappingDefaults(), no_matrices);
    EXPECT_EQ(lean.best.score, result.best.score);
    EXPECT_FALSE(lean.hasMatrices());
    EXPECT_TRUE(lean.matrix.empty());
}

TEST(Gssw, MatrixLastColumnConsistentWithScore)
{
    // The stored DP matrix must contain the best score somewhere.
    LocalGraph g;
    g.addNode("ACGTACGTACGT");
    g.finalize();
    const auto query = seq::encodeString("GTAC");
    const auto result = gsswAlign(g, query,
                                  ScoreParams::mappingDefaults());
    int16_t best = 0;
    for (int16_t h : result.nodeMatrix(0))
        best = std::max(best, h);
    EXPECT_EQ(best, result.best.score);
}

TEST(Gssw, RejectsCyclicGraphs)
{
    LocalGraph g;
    g.addNode("A");
    g.addNode("C");
    g.addEdge(0, 1);
    g.addEdge(1, 0);
    g.finalize();
    const auto query = seq::encodeString("AC");
    EXPECT_THROW(gsswAlign(g, query, ScoreParams::mappingDefaults()),
                 core::FatalError);
}

/** Re-score a traceback result from its own CIGAR and bases. */
int32_t
rescoreAlignment(const GsswAlignment &alignment,
                 std::span<const uint8_t> query,
                 const ScoreParams &params)
{
    int32_t score = 0;
    size_t qi = static_cast<size_t>(alignment.queryStart);
    size_t ri = 0;
    for (const CigarEntry &entry : alignment.cigar) {
        switch (entry.op) {
          case '=':
            for (uint32_t k = 0; k < entry.length; ++k) {
                EXPECT_EQ(query[qi], alignment.referenceBases[ri]);
                ++qi;
                ++ri;
            }
            score += params.match * static_cast<int32_t>(entry.length);
            break;
          case 'X':
            for (uint32_t k = 0; k < entry.length; ++k) {
                EXPECT_NE(query[qi], alignment.referenceBases[ri]);
                ++qi;
                ++ri;
            }
            score -= params.mismatch *
                     static_cast<int32_t>(entry.length);
            break;
          case 'I':
            qi += entry.length;
            score -= params.gapOpen +
                     static_cast<int32_t>(entry.length - 1) *
                         params.gapExtend;
            break;
          case 'D':
            ri += entry.length;
            score -= params.gapOpen +
                     static_cast<int32_t>(entry.length - 1) *
                         params.gapExtend;
            break;
          default:
            ADD_FAILURE() << "bad op " << entry.op;
        }
    }
    EXPECT_EQ(static_cast<int32_t>(qi), alignment.queryEnd + 1);
    EXPECT_EQ(ri, alignment.referenceBases.size());
    return score;
}

TEST(GsswTraceback, PerfectMatchIsAllEquals)
{
    LocalGraph g;
    g.addNode("ACGT");
    g.addNode("TTAA");
    g.addEdge(0, 1);
    g.finalize();
    const auto query = seq::encodeString("GTTTA");
    const ScoreParams params = ScoreParams::mappingDefaults();
    const auto result = gsswAlign(g, query, params);
    const auto alignment = gsswTraceback(g, query, params, result);
    ASSERT_EQ(alignment.cigar.size(), 1u);
    EXPECT_EQ(alignment.cigar[0].op, '=');
    EXPECT_EQ(alignment.cigar[0].length, 5u);
    EXPECT_EQ(alignment.nodeWalk,
              (std::vector<uint32_t>{0, 1}));
    EXPECT_EQ(rescoreAlignment(alignment, query, params),
              result.best.score);
}

TEST(GsswTraceback, RescoresToOptimalOnRandomDags)
{
    Rng rng(11);
    const ScoreParams params = ScoreParams::mappingDefaults();
    for (int round = 0; round < 25; ++round) {
        LocalGraph g;
        const size_t n_nodes = 2 + rng.below(10);
        for (size_t v = 0; v < n_nodes; ++v)
            g.addNode(randomBases(rng, 1 + rng.below(25)));
        for (size_t v = 0; v + 1 < n_nodes; ++v) {
            g.addEdge(static_cast<uint32_t>(v),
                      static_cast<uint32_t>(v + 1));
            if (v + 2 < n_nodes && rng.chance(0.4)) {
                g.addEdge(static_cast<uint32_t>(v),
                          static_cast<uint32_t>(v + 2));
            }
        }
        g.finalize();
        const auto query = randomBases(rng, 10 + rng.below(60));
        const auto result = gsswAlign(g, query, params);
        if (result.best.score == 0)
            continue;
        const auto alignment = gsswTraceback(g, query, params, result);
        ASSERT_EQ(rescoreAlignment(alignment, query, params),
                  result.best.score)
            << "round " << round;
        // Node walk must be connected in the DAG.
        for (size_t w = 0; w + 1 < alignment.nodeWalk.size(); ++w) {
            const auto succ = g.successors(alignment.nodeWalk[w]);
            EXPECT_TRUE(std::find(succ.begin(), succ.end(),
                                  alignment.nodeWalk[w + 1]) !=
                        succ.end())
                << "round " << round << " walk step " << w;
        }
    }
}

TEST(GsswTraceback, RecoversIndels)
{
    // Query = path sequence with a 3-base deletion.
    // Long enough flanks that bridging the gap beats a gap-free
    // local alignment of one flank.
    LocalGraph g;
    g.addNode("ACGTACGTACACGTACGTAC");
    g.addNode("GGTTGGAACCGGTTGGAACC");
    g.addEdge(0, 1);
    g.finalize();
    const ScoreParams params = ScoreParams::mappingDefaults();
    auto query = seq::encodeString(
        "ACGTACGTACACGTACGTACGGTTGGAACCGGTTGGAACC");
    query.erase(query.begin() + 20, query.begin() + 23);
    const auto result = gsswAlign(g, query, params);
    const auto alignment = gsswTraceback(g, query, params, result);
    bool has_deletion = false;
    for (const auto &entry : alignment.cigar)
        has_deletion = has_deletion || entry.op == 'D';
    EXPECT_TRUE(has_deletion);
    EXPECT_EQ(rescoreAlignment(alignment, query, params),
              result.best.score);
}

TEST(GsswTraceback, RequiresKeptMatrices)
{
    LocalGraph g;
    g.addNode("ACGT");
    g.finalize();
    const auto query = seq::encodeString("ACGT");
    const ScoreParams params = ScoreParams::mappingDefaults();
    GsswOptions options;
    options.keepMatrices = false;
    const auto result = gsswAlign(g, query, params, options);
    EXPECT_THROW(gsswTraceback(g, query, params, result),
                 core::FatalError);
}

/** Probe counts must be populated by an instrumented run. */
TEST(Gssw, CountingProbeSeesVectorOps)
{
    LocalGraph g;
    g.addNode("ACGTACGTACGTACGT");
    g.finalize();
    const auto query = seq::encodeString("ACGTACGT");
    core::CountingProbe probe;
    GsswOptions options;
    gsswAlign(g, query, ScoreParams::mappingDefaults(), options, probe);
    EXPECT_GT(probe.counts[static_cast<size_t>(core::OpKind::kVector)],
              0u);
    EXPECT_GT(probe.loadOps, 0u);
    EXPECT_GT(probe.storeOps, 0u);
}

} // namespace
} // namespace pgb::align
