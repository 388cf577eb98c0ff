/**
 * Seeder-strategy tests: the minimizer backend must be bit-identical
 * to calling collectAnchorsInto directly, the MEM backend fully
 * deterministic (run-to-run and at thread count 1 vs 8 — the ctest
 * seeder_threads_{1,8} lanes rerun this file), and both must read
 * every backing store alike: an in-memory build, a `.pgbi` artifact, a
 * one-shard and a multi-shard `.pgbs` set yield the same anchors and
 * the same subgraphs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/logging.hpp"
#include "core/rng.hpp"
#include "index/fm_index.hpp"
#include "index/gbwt.hpp"
#include "index/minimizer.hpp"
#include "pipeline/chain.hpp"
#include "pipeline/context.hpp"
#include "pipeline/mapper.hpp"
#include "seq/read_sim.hpp"
#include "store/shard_build.hpp"
#include "store/store.hpp"
#include "synth/pangenome_sim.hpp"
#include "temp_path.hpp"
#include "union_fixture.hpp"

namespace {

using namespace pgb;

/** A small but structurally interesting pangenome plus reads. */
struct SeederFixture
{
    synth::Pangenome pangenome;
    std::vector<seq::Sequence> reads;

    SeederFixture()
    {
        synth::PangenomeConfig config = synth::mGraphLikeConfig(6000, 5);
        config.haplotypeCount = 3;
        pangenome = synth::simulatePangenome(config);
        seq::ReadSimulator sim(seq::ReadProfile::shortRead(), 0x5eed);
        for (size_t r = 0; r < 40; ++r) {
            auto read = sim.sample(
                pangenome.haplotypes[r % pangenome.haplotypes.size()]);
            std::string name = "r";
            name += std::to_string(r);
            read.read.setName(name);
            reads.push_back(std::move(read.read));
        }
    }
};

const SeederFixture &
fixture()
{
    static SeederFixture instance;
    return instance;
}

std::shared_ptr<const pipeline::MappingContext>
buildContext(pipeline::SeederKind kind)
{
    return pipeline::MappingContext::Builder()
        .fromGraph(fixture().pangenome.graph)
        .seeder(kind)
        .build();
}

/** Anchors as comparable tuples. */
std::vector<std::tuple<uint32_t, uint32_t, uint32_t, bool, uint64_t>>
anchorTuples(const std::vector<pipeline::Anchor> &anchors)
{
    std::vector<std::tuple<uint32_t, uint32_t, uint32_t, bool, uint64_t>>
        tuples;
    for (const auto &a : anchors)
        tuples.emplace_back(a.queryPos, a.node, a.nodeOffset, a.reverse,
                            a.linearPos);
    return tuples;
}

std::vector<pipeline::Anchor>
collectVia(const pipeline::MappingContext &context,
           const seq::Sequence &read)
{
    pipeline::PinSet pins(context.source());
    std::vector<pipeline::Anchor> anchors;
    context.seeder().collect(pins, read, anchors);
    return anchors;
}

// ---------------------------------------------------------------------
// Minimizer seeding: bit-identical to the reference collector
// ---------------------------------------------------------------------

TEST(Seeder, MinimizerSeederBitIdenticalToCollectAnchors)
{
    const auto context = buildContext(pipeline::SeederKind::kMinimizer);
    ASSERT_EQ(context->seeder().kind(),
              pipeline::SeederKind::kMinimizer);
    // The reference: a monolithic table and linearization of its own,
    // read by the plain collector.
    const auto &graph = fixture().pangenome.graph;
    const index::MinimizerIndex minimizers(graph, context->k(),
                                           context->w());
    const pipeline::GraphLinearization linear(graph);
    for (const seq::Sequence &read : fixture().reads) {
        std::vector<pipeline::Anchor> direct;
        pipeline::collectAnchorsInto(read, minimizers, linear, direct);
        EXPECT_EQ(anchorTuples(collectVia(*context, read)),
                  anchorTuples(direct))
            << read.name();
    }
}

// ---------------------------------------------------------------------
// MEM seeding: determinism and anchor-geometry correctness
// ---------------------------------------------------------------------

TEST(Seeder, MemSeederIsDeterministic)
{
    const auto context = buildContext(pipeline::SeederKind::kMem);
    ASSERT_EQ(context->seeder().kind(), pipeline::SeederKind::kMem);
    const auto rebuilt = buildContext(pipeline::SeederKind::kMem);
    size_t total = 0;
    for (const seq::Sequence &read : fixture().reads) {
        const auto first = anchorTuples(collectVia(*context, read));
        EXPECT_EQ(anchorTuples(collectVia(*context, read)), first)
            << read.name() << ": second collect drifted";
        EXPECT_EQ(anchorTuples(collectVia(*rebuilt, read)), first)
            << read.name() << ": independently built context drifted";
        total += first.size();
    }
    EXPECT_GT(total, 0u);
}

TEST(Seeder, MemSeederAnchorsAreCanonicallyOrderedAndUnique)
{
    const auto context = buildContext(pipeline::SeederKind::kMem);
    for (const seq::Sequence &read : fixture().reads) {
        const auto tuples = anchorTuples(collectVia(*context, read));
        EXPECT_TRUE(std::is_sorted(tuples.begin(), tuples.end()))
            << read.name();
        EXPECT_EQ(std::adjacent_find(tuples.begin(), tuples.end()),
                  tuples.end())
            << read.name() << ": duplicate anchor";
    }
}

/**
 * Exact-substring oracle on a single-node graph: one SMEM covering the
 * whole read, whose occurrence is split into k-length sub-anchors at
 * stride k plus a final flush window at L-k, each on the constant
 * diagonal of the occurrence. Checked on both strands.
 */
TEST(Seeder, MemSeederSubAnchorGeometryOnExactMatch)
{
    core::Xoshiro256StarStar rng(0x9e0);
    std::string text;
    {
        static const char bases[] = "ACGT";
        for (int i = 0; i < 2000; ++i)
            text += bases[rng.below(4)];
    }
    graph::PanGraph graph;
    const auto node = graph.addNode(seq::Sequence("", text));
    graph.addPath("p", {graph::Handle(node, false)});

    const auto context = pipeline::MappingContext::Builder()
                             .fromGraph(graph)
                             .seeder(pipeline::SeederKind::kMem)
                             .build();
    const auto k = static_cast<uint32_t>(context->k());

    const size_t at = 321, length = 100;
    seq::Sequence read("fwd", text.substr(at, length));
    // The expected window starts: stride k from 0, plus the L-k flush.
    std::vector<uint32_t> windows;
    for (uint32_t w = 0; w + k <= length; w += k)
        windows.push_back(w);
    if (length % k != 0)
        windows.push_back(static_cast<uint32_t>(length) - k);

    const auto fwd = collectVia(*context, read);
    std::vector<std::tuple<uint32_t, uint32_t, bool>> expected, got;
    for (const uint32_t w : windows)
        expected.emplace_back(w, static_cast<uint32_t>(at) + w, false);
    std::sort(expected.begin(), expected.end());
    for (const auto &a : fwd) {
        EXPECT_EQ(a.node, node);
        got.emplace_back(a.queryPos, a.nodeOffset, a.reverse);
    }
    std::sort(got.begin(), got.end());
    // The substring may occur elsewhere by chance (k=15 makes that
    // vanishingly unlikely in 2 kb); require exact equality.
    EXPECT_EQ(got, expected);

    // Reverse-complement read: same windows, reverse=true, and the
    // query position of the window at text offset at+w is L-w-k.
    seq::Sequence rc_read = read.reverseComplement();
    rc_read.setName("rc");
    const auto rc = collectVia(*context, rc_read);
    expected.clear();
    got.clear();
    for (const uint32_t w : windows)
        expected.emplace_back(static_cast<uint32_t>(length) - w - k,
                              static_cast<uint32_t>(at) + w, true);
    std::sort(expected.begin(), expected.end());
    for (const auto &a : rc) {
        EXPECT_EQ(a.node, node);
        got.emplace_back(a.queryPos, a.nodeOffset, a.reverse);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
}

TEST(Seeder, MemSeederSkipsReadsShorterThanK)
{
    const auto context = buildContext(pipeline::SeederKind::kMem);
    const seq::Sequence stub("stub", "ACGT");
    EXPECT_TRUE(collectVia(*context, stub).empty());
}

// ---------------------------------------------------------------------
// Context plumbing: build vs artifact view, end-to-end mapping
// ---------------------------------------------------------------------

/** Per-node bases and successor lists of @p sub, comparable. */
std::vector<std::pair<std::vector<uint8_t>, std::vector<uint32_t>>>
subgraphShape(const graph::LocalGraph &sub)
{
    std::vector<std::pair<std::vector<uint8_t>, std::vector<uint32_t>>>
        shape;
    for (uint32_t v = 0; v < sub.nodeCount(); ++v) {
        const auto bases = sub.nodeSeq(v);
        const auto next = sub.successors(v);
        shape.emplace_back(std::vector<uint8_t>(bases.begin(), bases.end()),
                           std::vector<uint32_t>(next.begin(), next.end()));
    }
    return shape;
}

TEST(Seeder, EverySourceSeedsAndExtractsIdentically)
{
    // One multi-component graph behind every backing store: an
    // in-memory build, a `.pgbi`, a one-shard `.pgbs` (all components
    // in one bin) and a one-shard-per-component `.pgbs`. For both
    // seeders, every read must yield the same anchors, and the
    // subgraph extracted at every anchor the same bases, edges and
    // origin. The last component copies the first, so reads from it
    // seed in two shards at once: the per-shard merge and the summed
    // repeat cap are exercised, not just routing.
    static const test::UnionFixture fixture(3, 8000, 8, true);
    const graph::PanGraph &graph = fixture.graph;

    const index::MinimizerIndex minimizers(graph, 15, 10);
    const index::GbwtIndex gbwt(graph);
    const index::FmIndex fm(graph, 8);
    const std::string artifact = test::testTempPath("seeder_union.pgbi");
    store::writeArtifact(artifact, graph, minimizers, &gbwt, &fm);
    store::ShardBuildParams params;
    params.seeder = "mem";
    params.targetShardMb = 1024;
    const auto one_shard = store::buildShardSet(
        graph, params, test::testTempPath("seeder_union_one.pgbs"));
    ASSERT_EQ(one_shard.shards.size(), 1u);
    params.targetShardMb = 0;
    const auto per_component = store::buildShardSet(
        graph, params, test::testTempPath("seeder_union_many.pgbs"));
    ASSERT_EQ(per_component.shards.size(), fixture.chromosomes + 1);

    for (const auto kind :
         {pipeline::SeederKind::kMinimizer, pipeline::SeederKind::kMem}) {
        using Builder = pipeline::MappingContext::Builder;
        const auto reference = Builder()
                                   .fromGraph(graph)
                                   .seeder(kind)
                                   .buildGbwt(true)
                                   .fmSampleRate(8)
                                   .build();
        const std::vector<std::shared_ptr<const pipeline::MappingContext>>
            others = {
                Builder().fromArtifact(artifact).seeder(kind).build(),
                Builder().fromManifest(one_shard.path).seeder(kind).build(),
                Builder()
                    .fromManifest(per_component.path)
                    .seeder(kind)
                    .build(),
            };
        size_t anchors_seen = 0;
        for (const seq::Sequence &read : fixture.reads) {
            const auto want = collectVia(*reference, read);
            anchors_seen += want.size();
            for (size_t c = 0; c < others.size(); ++c) {
                const auto &other = *others[c];
                ASSERT_EQ(anchorTuples(collectVia(other, read)),
                          anchorTuples(want))
                    << pipeline::seederName(kind) << " source " << c
                    << " read " << read.name();
                pipeline::PinSet want_pins(reference->source());
                pipeline::PinSet got_pins(other.source());
                for (const pipeline::Anchor &anchor : want) {
                    const graph::Handle at(anchor.node, anchor.reverse);
                    graph::LocalGraph a, b;
                    uint32_t a_origin = 0, b_origin = 0;
                    reference->source().extractSubgraph(
                        want_pins, at, 150, a, &a_origin);
                    other.source().extractSubgraph(got_pins, at, 150, b,
                                                   &b_origin);
                    ASSERT_EQ(subgraphShape(b), subgraphShape(a))
                        << "source " << c << " node " << anchor.node;
                    ASSERT_EQ(b_origin, a_origin);
                }
            }
        }
        EXPECT_GT(anchors_seen, 0u) << pipeline::seederName(kind);
    }
}

TEST(Seeder, StandaloneShardArtifactMapsLikeItsGraph)
{
    // A shard file opened on its own with fromArtifact maps in its own
    // (local) ids, exactly like an in-memory build over the shard's
    // graph: its SNOD/SLIN projection applies only inside its set.
    static const test::UnionFixture fixture(2, 8000, 8);
    store::ShardBuildParams params;
    params.seeder = "mem";
    params.targetShardMb = 0;
    const auto manifest = store::buildShardSet(
        fixture.graph, params, test::testTempPath("seeder_alone.pgbs"));
    ASSERT_EQ(manifest.shards.size(), 2u);
    const std::string shard_path = manifest.shardPath(1);
    const auto shard = store::Artifact::load(shard_path);
    ASSERT_TRUE(shard->isShard());

    for (const auto kind :
         {pipeline::SeederKind::kMinimizer, pipeline::SeederKind::kMem}) {
        const auto standalone = pipeline::MappingContext::Builder()
                                    .fromArtifact(shard_path)
                                    .seeder(kind)
                                    .build();
        EXPECT_STREQ(standalone->source().kindName(), "monolith");
        const auto built = pipeline::MappingContext::Builder()
                               .fromGraph(shard->graph())
                               .seeder(kind)
                               .buildGbwt(true)
                               .fmSampleRate(params.fmSampleRate)
                               .build();
        for (const seq::Sequence &read : fixture.reads) {
            EXPECT_EQ(anchorTuples(collectVia(*standalone, read)),
                      anchorTuples(collectVia(*built, read)))
                << read.name();
        }
        for (const auto tool : {pipeline::ToolProfile::kVgMap,
                                pipeline::ToolProfile::kVgGiraffe}) {
            const auto config = pipeline::MapperConfig::forTool(tool);
            std::vector<pipeline::ReadMapping> a, b;
            const auto stats =
                pipeline::mapBatch(*standalone, config, fixture.reads, a);
            pipeline::mapBatch(*built, config, fixture.reads, b);
            EXPECT_GT(stats.mappedReads, 0u);
            ASSERT_EQ(a.size(), b.size());
            for (size_t r = 0; r < a.size(); ++r) {
                EXPECT_EQ(a[r].mapped, b[r].mapped) << r;
                EXPECT_EQ(a[r].node, b[r].node) << r;
                EXPECT_EQ(a[r].score, b[r].score) << r;
                EXPECT_EQ(a[r].reverse, b[r].reverse) << r;
            }
        }
    }
}

TEST(Seeder, MemSeederMappingsAreThreadCountInvariant)
{
    const auto context = buildContext(pipeline::SeederKind::kMem);
    auto config =
        pipeline::MapperConfig::forTool(pipeline::ToolProfile::kVgMap);
    config.threads = 1;
    std::vector<pipeline::ReadMapping> one, eight;
    pipeline::mapBatch(*context, config, fixture().reads, one);
    config.threads = 8;
    pipeline::mapBatch(*context, config, fixture().reads, eight);
    ASSERT_EQ(one.size(), eight.size());
    for (size_t r = 0; r < one.size(); ++r) {
        EXPECT_EQ(one[r].mapped, eight[r].mapped) << r;
        EXPECT_EQ(one[r].score, eight[r].score) << r;
        EXPECT_EQ(one[r].node, eight[r].node) << r;
        EXPECT_EQ(one[r].reverse, eight[r].reverse) << r;
    }
}

TEST(Seeder, MemSeederMapsMostSimulatedReads)
{
    // Not a tautology: a seeder emitting garbage anchors would still
    // be deterministic. It must also actually find the reads.
    const auto context = buildContext(pipeline::SeederKind::kMem);
    auto config =
        pipeline::MapperConfig::forTool(pipeline::ToolProfile::kVgMap);
    config.threads = 2;
    const auto stats =
        pipeline::mapBatch(*context, config, fixture().reads);
    EXPECT_GE(stats.mappedReads, fixture().reads.size() * 9 / 10);
}

TEST(Seeder, ParseSeederNames)
{
    EXPECT_EQ(pipeline::parseSeeder("minimizer"),
              pipeline::SeederKind::kMinimizer);
    EXPECT_EQ(pipeline::parseSeeder("mem"), pipeline::SeederKind::kMem);
    EXPECT_THROW(pipeline::parseSeeder("banana"), core::FatalError);
    EXPECT_STREQ(
        pipeline::seederName(pipeline::SeederKind::kMinimizer),
        "minimizer");
    EXPECT_STREQ(pipeline::seederName(pipeline::SeederKind::kMem),
                 "mem");
}

} // namespace
