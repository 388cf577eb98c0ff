/**
 * @file
 * Seeder-strategy tests: the refactor that put seeding behind the
 * Seeder interface must be invisible for the minimizer backend
 * (bit-identical anchors to calling collectAnchorsInto directly) and
 * fully deterministic for the MEM backend — same anchors run-to-run,
 * build-context vs artifact-view context, and thread count 1 vs 8
 * (the ctest seeder_threads_{1,8} lanes rerun this file).
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
#include "store/store.hpp"
#include "synth/pangenome_sim.hpp"
#include "temp_path.hpp"

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
            read.read.setName("r" + std::to_string(r));
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
    std::vector<pipeline::Anchor> anchors;
    context.seeder().collect(read, anchors);
    return anchors;
}

// ---------------------------------------------------------------------
// MinimizerSeeder: a pass-through, proven bit-identical
// ---------------------------------------------------------------------

TEST(Seeder, MinimizerSeederBitIdenticalToCollectAnchors)
{
    const auto context = buildContext(pipeline::SeederKind::kMinimizer);
    ASSERT_EQ(context->seeder().kind(),
              pipeline::SeederKind::kMinimizer);
    for (const seq::Sequence &read : fixture().reads) {
        std::vector<pipeline::Anchor> direct;
        pipeline::collectAnchorsInto(read, context->minimizers(),
                                     context->linearization(), direct);
        EXPECT_EQ(anchorTuples(collectVia(*context, read)),
                  anchorTuples(direct))
            << read.name();
    }
}

// ---------------------------------------------------------------------
// MemSeeder: determinism and anchor-geometry correctness
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

TEST(Seeder, MemSeederViaArtifactMatchesInMemoryBuild)
{
    const auto &graph = fixture().pangenome.graph;
    const auto built = buildContext(pipeline::SeederKind::kMem);

    const index::MinimizerIndex minimizers(graph, 15, 10);
    const index::FmIndex fm(graph);
    const std::string path = test::testTempPath("seeder_fixture.pgbi");
    store::writeArtifact(path, graph, minimizers, nullptr, &fm);
    const auto loaded = pipeline::MappingContext::Builder()
                            .fromArtifact(path)
                            .seeder(pipeline::SeederKind::kMem)
                            .build();
    ASSERT_NE(loaded->fmIndex(), nullptr);
    EXPECT_TRUE(loaded->fmIndex()->isView());

    for (const seq::Sequence &read : fixture().reads) {
        EXPECT_EQ(anchorTuples(collectVia(*loaded, read)),
                  anchorTuples(collectVia(*built, read)))
            << read.name();
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
