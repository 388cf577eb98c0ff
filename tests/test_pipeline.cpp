/**
 * @file
 * Integration tests for the pipelines: anchoring/chaining, the four
 * Seq2Graph mapper profiles (mapping rate + stage attribution), the
 * Seq2Seq baseline, the wfmash stand-in (exact-match validity), both
 * graph builders, and the scaling harness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/logging.hpp"
#include "core/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pipeline/chain.hpp"
#include "pipeline/graph_build.hpp"
#include "pipeline/mapper.hpp"
#include "pipeline/scaling.hpp"
#include "pipeline/wfmash.hpp"
#include "seq/read_sim.hpp"
#include "store/store.hpp"
#include "synth/pangenome_sim.hpp"
#include "temp_path.hpp"

namespace pgb::pipeline {
namespace {

using seq::ReadProfile;
using seq::ReadSimulator;
using seq::Sequence;

struct Workload
{
    synth::Pangenome pangenome;
    std::vector<Sequence> reads;
};

Workload
makeWorkload(size_t base_length, size_t n_reads, size_t read_length,
             uint64_t seed)
{
    Workload w;
    w.pangenome =
        synth::simulatePangenome(synth::mGraphLikeConfig(base_length,
                                                         seed));
    ReadProfile profile = ReadProfile::shortRead();
    profile.readLength = read_length;
    if (read_length > 1000) {
        profile = ReadProfile::longRead();
        profile.readLength = read_length;
    }
    ReadSimulator sim(profile, seed ^ 0xABC);
    for (size_t r = 0; r < n_reads; ++r) {
        // Sample the donor haplotype round-robin.
        const auto &donor =
            w.pangenome.haplotypes[r % w.pangenome.haplotypes.size()];
        auto read = sim.sample(donor);
        std::string name = "r";
        name += std::to_string(r);
        read.read.setName(std::move(name));
        w.reads.push_back(std::move(read.read));
    }
    return w;
}

/** Indexes over @p w's graph, with a GBWT when giraffe maps on it. */
std::shared_ptr<const MappingContext>
contextFor(const Workload &w, bool gbwt = false)
{
    return MappingContext::Builder()
        .fromGraph(w.pangenome.graph)
        .buildGbwt(gbwt)
        .build();
}

// ------------------------------------------------------- Chaining

TEST(Chain, AnchorsLandOnTrueRegion)
{
    const auto w = makeWorkload(30000, 4, 150, 200);
    const GraphLinearization linear(w.pangenome.graph);
    const index::MinimizerIndex index(w.pangenome.graph, 15, 10);
    size_t with_anchors = 0;
    std::vector<Anchor> anchors;
    for (const auto &read : w.reads) {
        collectAnchorsInto(read, index, linear, anchors);
        with_anchors += anchors.empty() ? 0 : 1;
    }
    EXPECT_GE(with_anchors, w.reads.size() - 1);
}

TEST(Chain, ClusterAnchorsGroupsByDiagonal)
{
    std::vector<Anchor> anchors;
    // Two diagonal groups.
    for (uint32_t i = 0; i < 5; ++i)
        anchors.push_back({i * 20, 0, 0, false, 1000 + i * 20});
    for (uint32_t i = 0; i < 3; ++i)
        anchors.push_back({i * 20, 0, 0, false, 90000 + i * 20});
    const auto clusters = clusterAnchors(anchors, 128);
    ASSERT_EQ(clusters.size(), 2u);
    EXPECT_EQ(clusters[0].anchorIds.size(), 5u);
    EXPECT_EQ(clusters[1].anchorIds.size(), 3u);
}

TEST(Chain, ChainAnchorsFindsColinearSubset)
{
    std::vector<Anchor> anchors;
    // A colinear run plus noise.
    for (uint32_t i = 0; i < 10; ++i)
        anchors.push_back({i * 50, 0, 0, false, 5000 + i * 50});
    anchors.push_back({100, 0, 0, false, 700000});
    anchors.push_back({400, 0, 0, false, 2});
    ChainParams params;
    const auto chains = chainAnchors(anchors, params);
    ASSERT_FALSE(chains.empty());
    EXPECT_EQ(chains[0].anchorIds.size(), 10u);
    // Chain anchors are query-ordered.
    for (size_t i = 1; i < chains[0].anchorIds.size(); ++i) {
        EXPECT_LT(anchors[chains[0].anchorIds[i - 1]].queryPos,
                  anchors[chains[0].anchorIds[i]].queryPos);
    }
}

// --------------------------------------------------------- Mappers

class MapperProfiles : public ::testing::TestWithParam<ToolProfile>
{
};

TEST_P(MapperProfiles, MapsSimulatedShortReads)
{
    const ToolProfile profile = GetParam();
    const size_t read_len =
        profile == ToolProfile::kGraphAligner ||
                profile == ToolProfile::kMinigraph
            ? 600 : 150; // long-read tools get longer reads
    const auto w = makeWorkload(30000, 30, read_len, 201);
    MapperConfig config;
    config.profile = profile;
    config.threads = 2;
    const auto stats = mapBatch(
        *contextFor(w, profile == ToolProfile::kVgGiraffe), config,
        w.reads);
    EXPECT_EQ(stats.reads, w.reads.size());
    // Simulated reads come from the graph's own haplotypes: the vast
    // majority must map.
    EXPECT_GE(stats.mappedReads, w.reads.size() * 8 / 10)
        << toolName(profile);
    EXPECT_GT(stats.anchors, 0u);
    EXPECT_GT(stats.timers.seconds("seed"), 0.0);
    EXPECT_GT(stats.timers.seconds("cluster_chain"), 0.0);
    EXPECT_GT(stats.timers.seconds("align"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllTools, MapperProfiles,
    ::testing::Values(ToolProfile::kVgMap, ToolProfile::kVgGiraffe,
                      ToolProfile::kGraphAligner,
                      ToolProfile::kMinigraph),
    [](const ::testing::TestParamInfo<ToolProfile> &info) {
        return toolName(info.param);
    });

TEST(Mapper, GiraffeChargesKernelTimeToFilter)
{
    const auto w = makeWorkload(30000, 20, 150, 202);
    MapperConfig config;
    config.profile = ToolProfile::kVgGiraffe;
    const auto stats = mapBatch(*contextFor(w, true), config, w.reads);
    EXPECT_STREQ(stats.kernelName, "GBWT");
    EXPECT_GT(stats.timers.seconds("filter"), 0.0);
}

TEST(Mapper, MinigraphUsesGwfaInChaining)
{
    const auto w = makeWorkload(30000, 10, 1200, 203);
    MapperConfig config;
    config.profile = ToolProfile::kMinigraph;
    const auto stats = mapBatch(*contextFor(w), config, w.reads);
    EXPECT_STREQ(stats.kernelName, "GWFA");
    EXPECT_GT(stats.kernelSeconds, 0.0);
    EXPECT_LE(stats.kernelSeconds,
              stats.timers.seconds("cluster_chain") + 1e-6);
}

TEST(Mapper, StatsMergeSumsEveryField)
{
    MappingStats a;
    a.timers.add(core::Stage::kSeed, 1.0);
    a.kernelSeconds = 0.5;
    a.reads = 1;
    a.mappedReads = 1;
    a.anchors = 3;
    a.clusters = 2;
    a.alignments = 1;
    MappingStats b = a;
    b.timers.add(core::Stage::kAlign, 2.0);
    b.kernelName = "GSSW";
    a += b;
    EXPECT_DOUBLE_EQ(a.timers.seconds("seed"), 2.0);
    EXPECT_DOUBLE_EQ(a.timers.seconds("align"), 2.0);
    EXPECT_DOUBLE_EQ(a.kernelSeconds, 1.0);
    EXPECT_STREQ(a.kernelName, "GSSW");
    EXPECT_EQ(a.reads, 2u);
    EXPECT_EQ(a.mappedReads, 2u);
    EXPECT_EQ(a.anchors, 6u);
    EXPECT_EQ(a.clusters, 4u);
    EXPECT_EQ(a.alignments, 2u);
    // A merge with no kernel name keeps the one already set.
    a += MappingStats{};
    EXPECT_STREQ(a.kernelName, "GSSW");
}

class MapperStageClock : public ::testing::TestWithParam<ToolProfile>
{
};

TEST_P(MapperStageClock, ChargesEveryStageScopeOfABatch)
{
    const ToolProfile profile = GetParam();
    auto w = makeWorkload(30000, 24, 150, 205);
    // Reads that stop early: random ones find no anchor, and random
    // ones carrying one 24-base graph fragment seed but form no
    // cluster of minClusterAnchors.
    const auto &donor = w.pangenome.haplotypes[0].codes();
    for (size_t r = 0; r < 12; ++r) {
        std::vector<uint8_t> codes =
            synth::randomSequence(150, 206 + r).codes();
        if (r % 2 == 1) {
            std::copy_n(donor.begin() + 1000 * r, 24,
                        codes.begin() + 60);
        }
        w.reads.emplace_back(std::move(codes));
    }
    const auto context =
        contextFor(w, profile == ToolProfile::kVgGiraffe);
    MapperConfig config;
    config.profile = profile;

    // The stages each read reaches, from one-read batches.
    uint64_t clustered = 0, filtered = 0, aligned = 0;
    for (const Sequence &read : w.reads) {
        const auto one = mapBatch(*context, config,
                                  std::span<const Sequence>(&read, 1));
        clustered += one.anchors > 0 ? 1 : 0;
        filtered += one.clusters > 0 ? 1 : 0;
        aligned += one.alignments > 0 ? 1 : 0;
    }
    ASSERT_LT(clustered, w.reads.size());
    ASSERT_LT(filtered, clustered);
    ASSERT_GT(aligned, 0u);

    config.threads = 4;
    const auto before = obs::snapshot();
    const auto stats = mapBatch(*context, config, w.reads);
    const auto after = obs::snapshot();
    auto samples = [&](const char *stage) {
        const std::string name =
            std::string("mapper.stage_nanos.") + stage + ".count";
        return after.counter(name) - before.counter(name);
    };
    EXPECT_EQ(samples("seed"), w.reads.size());
    // Minigraph's GWFA gap bridging is a second cluster_chain scope
    // for every read with a chain.
    EXPECT_EQ(samples("cluster_chain"),
              clustered + (profile == ToolProfile::kMinigraph
                               ? filtered : 0));
    EXPECT_EQ(samples("filter"), filtered);
    EXPECT_EQ(samples("align"), aligned);

    // The kernel's scope charged its stage and the kernel share alike;
    // minigraph's GWFA scope is one of its two cluster_chain scopes.
    const KernelInfo kernel = kernelOf(profile);
    EXPECT_STREQ(stats.kernelName, kernel.name);
    const double stage_secs =
        stats.timers.seconds(core::stageName(kernel.stage));
    EXPECT_GT(stats.kernelSeconds, 0.0);
    if (profile == ToolProfile::kMinigraph)
        EXPECT_LT(stats.kernelSeconds, stage_secs);
    else
        EXPECT_EQ(stats.kernelSeconds, stage_secs);
}

INSTANTIATE_TEST_SUITE_P(
    AllTools, MapperStageClock,
    ::testing::Values(ToolProfile::kVgMap, ToolProfile::kVgGiraffe,
                      ToolProfile::kGraphAligner,
                      ToolProfile::kMinigraph),
    [](const ::testing::TestParamInfo<ToolProfile> &info) {
        return toolName(info.param);
    });

/** Every span of @p events as (name, parent name), recording order. */
std::vector<std::pair<std::string, std::string>>
spanShape(const std::vector<obs::SpanEvent> &events)
{
    // Parents index their own thread's events; traceEvents() groups
    // threads in turn, so a thread's events start at its first one.
    std::map<uint32_t, size_t> first;
    for (size_t i = 0; i < events.size(); ++i)
        first.emplace(events[i].thread, i);
    std::vector<std::pair<std::string, std::string>> shape;
    for (const obs::SpanEvent &event : events) {
        shape.emplace_back(
            event.name,
            event.parent < 0
                ? "" : events[first[event.thread] +
                              static_cast<size_t>(event.parent)]
                           .name);
    }
    return shape;
}

TEST(MapperTrace, StageSpansNestUnderTheRead)
{
    const auto w = makeWorkload(30000, 8, 150, 207);
    for (const SeederKind seeder :
         {SeederKind::kMinimizer, SeederKind::kMem}) {
        const auto context = MappingContext::Builder()
                                 .fromGraph(w.pangenome.graph)
                                 .seeder(seeder)
                                 .build();
        const std::string seed_span =
            seeder == SeederKind::kMem ? "seed.mem" : "seed.minimizer";
        for (const ToolProfile profile :
             {ToolProfile::kVgMap, ToolProfile::kMinigraph}) {
            MapperConfig config;
            config.profile = profile;
            // One read that reaches the align stage, mapped once
            // untraced so the traced run is the steady state.
            const Sequence *read = nullptr;
            for (const Sequence &candidate : w.reads) {
                if (mapBatch(*context, config,
                             std::span<const Sequence>(&candidate, 1))
                        .alignments > 0) {
                    read = &candidate;
                    break;
                }
            }
            ASSERT_NE(read, nullptr) << toolName(profile);
            obs::clearTrace();
            obs::enableTracing(true);
            mapBatch(*context, config, std::span<const Sequence>(read, 1));
            obs::enableTracing(false);
            const auto shape = spanShape(obs::traceEvents());
            obs::clearTrace();

            std::vector<std::pair<std::string, std::string>> expected = {
                {"mapper.read", ""},
                {"seed", "mapper.read"},
                {seed_span, "seed"},
                {"cluster_chain", "mapper.read"},
            };
            if (profile == ToolProfile::kMinigraph)
                expected.emplace_back("cluster_chain", "mapper.read");
            expected.emplace_back("filter", "mapper.read");
            expected.emplace_back("align", "mapper.read");
            EXPECT_EQ(shape, expected) << toolName(profile) << " with "
                                       << seed_span;
        }
    }
}

TEST(Mapper, RandomReadsDoNotMap)
{
    const auto w = makeWorkload(30000, 1, 150, 204);
    // Unrelated random reads.
    std::vector<Sequence> junk;
    for (int i = 0; i < 10; ++i)
        junk.push_back(synth::randomSequence(150, 999 + i));
    MapperConfig config;
    config.profile = ToolProfile::kVgMap;
    const auto stats = mapBatch(*contextFor(w), config, junk);
    EXPECT_LE(stats.mappedReads, 1u);
}

TEST(Mapper, CapturesAlignTraces)
{
    const auto w = makeWorkload(30000, 10, 150, 205);
    MapperConfig config;
    config.profile = ToolProfile::kVgMap;
    const Seq2GraphMapper mapper(contextFor(w), config);
    const auto traces = mapper.captureAlignTraces(w.reads, 5);
    ASSERT_GE(traces.size(), 3u);
    for (const auto &trace : traces) {
        EXPECT_GT(trace.subgraph.nodeCount(), 0u);
        EXPECT_TRUE(trace.subgraph.isDag());
        EXPECT_FALSE(trace.query.empty());
    }
}

TEST(Mapper, CapturesGwfaTraces)
{
    const auto w = makeWorkload(40000, 10, 2000, 206);
    MapperConfig config;
    config.profile = ToolProfile::kMinigraph;
    const Seq2GraphMapper mapper(contextFor(w), config);
    const auto traces = mapper.captureGwfaTraces(w.reads, 8);
    for (const auto &trace : traces) {
        EXPECT_GT(trace.subgraph.nodeCount(), 0u);
        EXPECT_LT(trace.startNode, trace.subgraph.nodeCount());
        EXPECT_FALSE(trace.query.empty());
    }
}

// ------------------------------------------------ Config validation

TEST(Mapper, MapBatchRejectsAConfigWhoseKwDifferFromTheContext)
{
    const auto w = makeWorkload(20000, 4, 150, 216);
    const auto context = contextFor(w);
    MapperConfig config;
    config.k = context->k() + 2;
    try {
        mapBatch(*context, config, w.reads);
        FAIL() << "a k mismatch must be fatal";
    } catch (const core::FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("do not match"),
                  std::string::npos)
            << error.what();
    }
    config.k = context->k();
    config.w = context->w() + 1;
    EXPECT_THROW(mapBatch(*context, config, w.reads), core::FatalError);
}

TEST(Mapper, GiraffeNeedsAGbwtInAnInMemoryContext)
{
    const auto w = makeWorkload(20000, 4, 150, 217);
    const auto config = MapperConfig::forTool(ToolProfile::kVgGiraffe);
    try {
        mapBatch(*contextFor(w), config, w.reads);
        FAIL() << "giraffe without a GBWT must be fatal";
    } catch (const core::FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("needs a GBWT"),
                  std::string::npos)
            << error.what();
    }
    EXPECT_EQ(mapBatch(*contextFor(w, true), config, w.reads).reads,
              w.reads.size());
}

TEST(Mapper, GiraffeNeedsAGbwtInAnArtifact)
{
    const auto w = makeWorkload(20000, 4, 150, 218);
    const std::string path = test::testTempPath("mapper_no_gbwt.pgbi");
    store::writeArtifact(path, w.pangenome.graph,
                         index::MinimizerIndex(w.pangenome.graph, 15, 10),
                         nullptr);
    const auto context =
        MappingContext::Builder().fromArtifact(path).build();
    ASSERT_FALSE(context->hasGbwt());
    EXPECT_THROW(mapBatch(*context,
                          MapperConfig::forTool(ToolProfile::kVgGiraffe),
                          w.reads),
                 core::FatalError);
    // The vg map profile needs no GBWT and maps over the same context.
    EXPECT_EQ(mapBatch(*context, MapperConfig::forTool(ToolProfile::kVgMap),
                       w.reads)
                  .reads,
              w.reads.size());
}

TEST(Seq2Seq, BaselineMapsReadsFromReference)
{
    const auto w = makeWorkload(30000, 1, 150, 207);
    ReadSimulator sim(ReadProfile::shortRead(), 208);
    std::vector<Sequence> reads;
    for (int r = 0; r < 30; ++r)
        reads.push_back(sim.sample(w.pangenome.reference).read);
    Seq2SeqMapper mapper(w.pangenome.reference, 15, 10);
    const auto stats = mapper.mapReads(reads, 2);
    EXPECT_GE(stats.mappedReads, 25u);
    EXPECT_GT(stats.timers.seconds("align"), 0.0);
}

TEST(Seq2Seq, CapturesSswTraces)
{
    const auto w = makeWorkload(30000, 1, 150, 209);
    ReadSimulator sim(ReadProfile::shortRead(), 210);
    std::vector<Sequence> reads;
    for (int r = 0; r < 10; ++r)
        reads.push_back(sim.sample(w.pangenome.reference).read);
    Seq2SeqMapper mapper(w.pangenome.reference, 15, 10);
    const auto traces = mapper.captureSswTraces(reads, 5);
    ASSERT_GE(traces.size(), 3u);
    for (const auto &trace : traces) {
        EXPECT_GE(trace.window.size(), trace.query.size());
    }
}

// ----------------------------------------------------------- wfmash

TEST(Wfmash, MatchesAreExact)
{
    const auto pangenome =
        synth::simulatePangenome(synth::mGraphLikeConfig(20000, 211));
    std::vector<Sequence> seqs;
    seqs.push_back(pangenome.reference);
    seqs.push_back(pangenome.haplotypes[0]);
    seqs.push_back(pangenome.haplotypes[1]);
    build::SequenceCatalog catalog(seqs);
    WfmashParams params;
    const auto result = allToAllAlign(catalog, params);
    ASSERT_GT(result.matches.size(), 10u);
    EXPECT_GT(result.segmentsMapped, 0u);
    for (const auto &match : result.matches) {
        ASSERT_GE(match.length, params.minMatchLength);
        for (uint32_t d = 0; d < match.length; ++d) {
            ASSERT_EQ(catalog.baseAt(match.aStart + d),
                      catalog.baseAt(match.bStart + d))
                << "match at " << match.aStart << "+" << d;
        }
    }
}

TEST(Wfmash, CoversMostOfTheSequences)
{
    const auto pangenome =
        synth::simulatePangenome(synth::mGraphLikeConfig(20000, 212));
    std::vector<Sequence> seqs;
    seqs.push_back(pangenome.reference);
    seqs.push_back(pangenome.haplotypes[0]);
    build::SequenceCatalog catalog(seqs);
    const auto result = allToAllAlign(catalog, WfmashParams{});
    // Coverage of sequence 0 by match bases.
    std::vector<bool> covered(pangenome.reference.size(), false);
    for (const auto &match : result.matches) {
        if (match.aStart < pangenome.reference.size()) {
            for (uint32_t d = 0; d < match.length; ++d) {
                if (match.aStart + d < covered.size())
                    covered[match.aStart + d] = true;
            }
        }
    }
    size_t count = 0;
    for (bool c : covered)
        count += c ? 1 : 0;
    EXPECT_GT(static_cast<double>(count) /
                  static_cast<double>(covered.size()),
              0.6);
}

// ----------------------------------------------------- GraphBuilders

TEST(GraphBuild, PggbBuildsTimedStagesAndCompressedGraph)
{
    const auto pangenome =
        synth::simulatePangenome(synth::mGraphLikeConfig(15000, 213));
    std::vector<Sequence> haps;
    haps.push_back(pangenome.reference);
    for (size_t h = 0; h < 5; ++h)
        haps.push_back(pangenome.haplotypes[h]);
    PggbParams params;
    params.threads = 2;
    params.layoutIterations = 5;
    const auto report = buildPggb(haps, params);
    EXPECT_GT(report.timers.seconds("alignment"), 0.0);
    EXPECT_GT(report.timers.seconds("induction"), 0.0);
    EXPECT_GT(report.timers.seconds("polishing"), 0.0);
    EXPECT_GT(report.timers.seconds("visualization"), 0.0);
    EXPECT_GT(report.matches, 0u);
    EXPECT_GT(report.poaCells, 0u);
    // Paths spell inputs exactly (transclosure invariant).
    ASSERT_EQ(report.graph.pathCount(), haps.size());
    for (size_t h = 0; h < haps.size(); ++h) {
        EXPECT_EQ(report.graph
                      .pathSequence(static_cast<graph::PathId>(h))
                      .toString(),
                  haps[h].toString());
    }
    // Shared variation compresses the graph.
    EXPECT_LT(report.graph.stats().totalBases,
              pangenome.reference.size() * 3);
    EXPECT_LT(report.layoutStressAfter, report.layoutStressBefore);
}

TEST(GraphBuild, MinigraphCactusDiscoversVariants)
{
    const auto pangenome =
        synth::simulatePangenome(synth::mGraphLikeConfig(15000, 214));
    std::vector<Sequence> haps;
    haps.push_back(pangenome.reference);
    for (size_t h = 0; h < 4; ++h)
        haps.push_back(pangenome.haplotypes[h]);
    McParams params;
    params.threads = 2;
    params.layoutIterations = 5;
    const auto report = buildMinigraphCactus(haps, params);
    EXPECT_GT(report.timers.seconds("alignment"), 0.0);
    EXPECT_GT(report.timers.seconds("visualization"), 0.0);
    EXPECT_GT(report.bubbles, 0u);
    ASSERT_EQ(report.graph.pathCount(), haps.size());
    // The reference path spells the reference exactly.
    EXPECT_EQ(report.graph.pathSequence(0).toString(),
              pangenome.reference.toString());
    // The graph contains real alternative structure.
    EXPECT_GT(report.graph.edgeCount(),
              report.graph.nodeCount() - 1);
}

TEST(Mapper, ForToolEncodesTradeoffs)
{
    const auto vgmap =
        MapperConfig::forTool(ToolProfile::kVgMap);
    const auto giraffe =
        MapperConfig::forTool(ToolProfile::kVgGiraffe);
    const auto graphaligner =
        MapperConfig::forTool(ToolProfile::kGraphAligner);
    // vg map aligns more candidates than giraffe's single extension.
    EXPECT_GT(vgmap.maxAlignments, giraffe.maxAlignments);
    // GraphAligner's profile enables the banded bit-vector DP.
    EXPECT_GT(graphaligner.gbvBand, 0);
    EXPECT_EQ(vgmap.gbvBand, 0);
}

TEST(Mapper, GiraffeIsCheaperThanVgMapOnTheSameReads)
{
    const auto w = makeWorkload(30000, 40, 150, 215);
    // Both profiles share one context built before either timer, so
    // the timings compare mapping only. Giraffe's mapping phase is the
    // cheap one (Table 1's ordering); the bound stays loose for noisy
    // hosts: giraffe must not be dramatically slower.
    const auto context = contextFor(w, true);
    core::WallTimer vgmap_timer;
    mapBatch(*context, MapperConfig::forTool(ToolProfile::kVgMap),
             w.reads);
    const double vgmap_seconds = vgmap_timer.seconds();
    core::WallTimer giraffe_timer;
    mapBatch(*context, MapperConfig::forTool(ToolProfile::kVgGiraffe),
             w.reads);
    EXPECT_LT(giraffe_timer.seconds(), vgmap_seconds * 3.0);
}

TEST(Chain, ReverseStrandAnchorsChainOnAntiDiagonals)
{
    // Reverse anchors: query positions DECREASE as linear increases.
    std::vector<Anchor> anchors;
    for (uint32_t i = 0; i < 8; ++i) {
        anchors.push_back(
            {800 - i * 100, 0, 0, true, 5000 + i * 100ull});
    }
    ChainParams params;
    const auto chains = chainAnchors(anchors, params);
    ASSERT_FALSE(chains.empty());
    EXPECT_EQ(chains[0].anchorIds.size(), 8u);
    EXPECT_TRUE(chains[0].reverse);

    const auto clusters = clusterAnchors(anchors, 128);
    ASSERT_FALSE(clusters.empty());
    EXPECT_EQ(clusters[0].anchorIds.size(), 8u);
}

TEST(Wfmash, DeterministicAcrossRuns)
{
    const auto pangenome =
        synth::simulatePangenome(synth::mGraphLikeConfig(10000, 216));
    std::vector<Sequence> seqs = {pangenome.reference,
                                  pangenome.haplotypes[0]};
    build::SequenceCatalog catalog(seqs);
    WfmashParams params;
    params.threads = 2; // thread-parallel pairs must still merge
                        // deterministically
    const auto a = allToAllAlign(catalog, params);
    const auto b = allToAllAlign(catalog, params);
    ASSERT_EQ(a.matches.size(), b.matches.size());
    for (size_t i = 0; i < a.matches.size(); ++i) {
        EXPECT_EQ(a.matches[i].aStart, b.matches[i].aStart);
        EXPECT_EQ(a.matches[i].bStart, b.matches[i].bStart);
        EXPECT_EQ(a.matches[i].length, b.matches[i].length);
    }
}

// ----------------------------------------------------------- Scaling

TEST(Scaling, SpeedupsAreRelativeToFirstPoint)
{
    const std::vector<unsigned> threads = {1, 2, 4};
    const auto series = measureScaling(
        "busywork", threads, [](unsigned t) {
            std::atomic<uint64_t> sink(0);
            core::parallelFor(0, 20000, t, [&](size_t i) {
                double x = static_cast<double>(i) + 1.0;
                for (int rep = 0; rep < 2000; ++rep)
                    x = x * 1.0000001 + 0.1;
                sink.fetch_add(static_cast<uint64_t>(x),
                               std::memory_order_relaxed);
            });
        });
    ASSERT_EQ(series.points.size(), 3u);
    EXPECT_EQ(series.points[0].speedup, 1.0);
    for (const auto &point : series.points) {
        EXPECT_GT(point.seconds, 0.0);
        EXPECT_GT(point.speedup, 0.0);
    }
    // Real speedup needs real cores; CI sandboxes may have one.
    if (core::hardwareThreads() >= 4) {
        EXPECT_GT(series.points[2].speedup, 1.2);
    }
}

} // namespace
} // namespace pgb::pipeline
