/**
 * @file
 * End-to-end golden regression tests: the PGGB build pipeline and the
 * short/long-read mappers are run on a fixed-seed synthetic fixture
 * and their outputs fingerprinted (MD5) against checked-in goldens.
 *
 * The digests cover only integer-deterministic output — GFA text and
 * per-read mapping records — which PR 3's scheduler guarantees are
 * bit-identical at every thread count, so the same goldens hold under
 * PGB_THREADS=1 and PGB_THREADS=8 (the ctest harness runs both).
 *
 * Regenerate after an intentional behavior change:
 *
 *     PGB_GOLDEN_REGEN=1 ./pgb_tests --gtest_filter='Golden*'
 *
 * then review the diff like any other source change: a golden that
 * moved without an intentional pipeline change is a regression.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/md5.hpp"
#include "graph/gfa.hpp"
#include "index/gbwt.hpp"
#include "index/minimizer.hpp"
#include "pipeline/context.hpp"
#include "pipeline/graph_build.hpp"
#include "pipeline/mapper.hpp"
#include "seq/read_sim.hpp"
#include "store/store.hpp"
#include "synth/pangenome_sim.hpp"
#include "mapping_digest.hpp"
#include "temp_path.hpp"

namespace {

using namespace pgb;

TEST(Md5, Rfc1321KnownAnswers)
{
    EXPECT_EQ(core::md5Hex(""), "d41d8cd98f00b204e9800998ecf8427e");
    EXPECT_EQ(core::md5Hex("a"), "0cc175b9c0f1b6a831c399e269772661");
    EXPECT_EQ(core::md5Hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
    EXPECT_EQ(core::md5Hex("message digest"),
              "f96b697d7cb7938d525a2f31aaf161d0");
    EXPECT_EQ(core::md5Hex("abcdefghijklmnopqrstuvwxyz"),
              "c3fcd3d76192e4007dfb496cca67e13b");
    // 80 bytes: the padded length crosses into a second final block.
    EXPECT_EQ(core::md5Hex("1234567890123456789012345678901234567890"
                           "1234567890123456789012345678901234567890"),
              "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, PaddingBoundaries)
{
    // 55/56/64 bytes straddle the one- vs two-block padding split;
    // cross-check agreement with an incremental property instead of
    // magic constants: distinct inputs, distinct stable digests.
    const std::string a(55, 'x'), b(56, 'x'), c(64, 'x');
    EXPECT_EQ(core::md5Hex(a), core::md5Hex(a));
    EXPECT_NE(core::md5Hex(a), core::md5Hex(b));
    EXPECT_NE(core::md5Hex(b), core::md5Hex(c));
    EXPECT_EQ(core::md5Hex(a).size(), 32u);
}

/** The fixed-seed fixture every golden digest derives from. */
struct GoldenFixture
{
    synth::Pangenome pangenome;
    std::vector<seq::Sequence> assemblies; ///< reference + haplotypes
    std::vector<seq::Sequence> shortReads;
    std::vector<seq::Sequence> longReads;

    GoldenFixture()
    {
        synth::PangenomeConfig config = synth::mGraphLikeConfig(12000, 7);
        config.haplotypeCount = 4;
        pangenome = synth::simulatePangenome(config);
        assemblies.push_back(pangenome.reference);
        for (const auto &hap : pangenome.haplotypes)
            assemblies.push_back(hap);

        seq::ReadSimulator short_sim(seq::ReadProfile::shortRead(),
                                     0x5eed);
        seq::ReadProfile long_profile = seq::ReadProfile::longRead();
        long_profile.readLength = 1500;
        seq::ReadSimulator long_sim(long_profile, 0x10e6);
        for (size_t r = 0; r < 30; ++r) {
            auto read = short_sim.sample(
                pangenome.haplotypes[r % pangenome.haplotypes.size()]);
            read.read.setName("sr_" + std::to_string(r));
            shortReads.push_back(std::move(read.read));
        }
        for (size_t r = 0; r < 6; ++r) {
            auto read = long_sim.sample(
                pangenome.haplotypes[r % pangenome.haplotypes.size()]);
            read.read.setName("lr_" + std::to_string(r));
            longReads.push_back(std::move(read.read));
        }
    }
};

const GoldenFixture &
fixture()
{
    static GoldenFixture instance;
    return instance;
}

std::string
gfaDigest(const graph::PanGraph &graph)
{
    std::ostringstream out;
    graph::writeGfa(out, graph);
    return core::md5Hex(out.str());
}

/** The fixture graph indexed in memory (GBWT included, so giraffe
 *  maps through it too), shared by every test. */
std::shared_ptr<const pipeline::MappingContext>
inMemoryContext()
{
    static const auto context = pipeline::MappingContext::Builder()
                                    .fromGraph(fixture().pangenome.graph)
                                    .buildGbwt(true)
                                    .build();
    return context;
}

/** Compare @p digest against the checked-in golden @p file, or
 *  rewrite the golden under PGB_GOLDEN_REGEN=1. */
void
checkGolden(const char *file, const std::string &digest)
{
    const std::string path = std::string(PGB_GOLDEN_DIR) + "/" + file;
    if (std::getenv("PGB_GOLDEN_REGEN") != nullptr) {
        std::ofstream out(path);
        out << digest << '\n';
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden " << path
        << " (regenerate with PGB_GOLDEN_REGEN=1)";
    std::string expected;
    in >> expected;
    EXPECT_EQ(digest, expected)
        << file << " drifted: pipeline output changed. If the change "
        << "is intentional, regenerate with PGB_GOLDEN_REGEN=1.";
}

TEST(Golden, PggbGraphMatchesGolden)
{
    pipeline::PggbParams params;
    params.threads = 8;
    const auto report =
        pipeline::buildPggb(fixture().assemblies, params);
    EXPECT_GT(report.matches, 0u);
    EXPECT_GT(report.closureClasses, 0u);
    checkGolden("pggb_graph.md5", gfaDigest(report.graph));
}

TEST(Golden, PggbGraphIsThreadCountInvariant)
{
    pipeline::PggbParams serial;
    serial.threads = 1;
    pipeline::PggbParams wide;
    wide.threads = 8;
    const auto one = pipeline::buildPggb(fixture().assemblies, serial);
    const auto eight = pipeline::buildPggb(fixture().assemblies, wide);
    EXPECT_EQ(gfaDigest(one.graph), gfaDigest(eight.graph));
    EXPECT_EQ(one.closureClasses, eight.closureClasses);
    EXPECT_EQ(one.poaCells, eight.poaCells);
}

/**
 * The fixture graph serialized to a `.pgbi` artifact and loaded back
 * as a MappingContext — the build-once/map-many path. Mapping through
 * it must reproduce the same goldens as the in-memory path, at every
 * thread count the harness runs (PGB_THREADS=1 and 8).
 */
std::shared_ptr<const pipeline::MappingContext>
artifactContext()
{
    static std::shared_ptr<const pipeline::MappingContext> context =
        [] {
            const auto &graph = fixture().pangenome.graph;
            const index::MinimizerIndex minimizers(graph, 15, 10);
            const index::GbwtIndex gbwt(graph);
            const std::string path =
                test::testTempPath("golden_fixture.pgbi");
            store::writeArtifact(path, graph, minimizers, &gbwt);
            return pipeline::MappingContext::Builder()
                .fromArtifact(path)
                .build();
        }();
    return context;
}

/**
 * The MEM-seeded artifact context: the fixture graph with FM-index
 * sections, loaded back with the mem seeding strategy. Like the
 * minimizer goldens, the mem digests must hold at PGB_THREADS=1 and 8.
 */
std::shared_ptr<const pipeline::MappingContext>
memArtifactContext()
{
    static std::shared_ptr<const pipeline::MappingContext> context =
        [] {
            const auto &graph = fixture().pangenome.graph;
            const index::MinimizerIndex minimizers(graph, 15, 10);
            const index::FmIndex fm(graph);
            const std::string path =
                test::testTempPath("golden_fixture_mem.pgbi");
            store::writeArtifact(path, graph, minimizers, nullptr, &fm);
            return pipeline::MappingContext::Builder()
                .fromArtifact(path)
                .seeder(pipeline::SeederKind::kMem)
                .build();
        }();
    return context;
}

TEST(Golden, ShortReadMappingsMemSeederMatchGolden)
{
    checkGolden("short_reads_vgmap_mem.md5",
                test::mappingDigest(*memArtifactContext(),
                                    pipeline::ToolProfile::kVgMap,
                                    fixture().shortReads));
}

TEST(Golden, LongReadMappingsMemSeederMatchGolden)
{
    checkGolden("long_reads_minigraph_mem.md5",
                test::mappingDigest(*memArtifactContext(),
                                    pipeline::ToolProfile::kMinigraph,
                                    fixture().longReads));
}

TEST(Golden, MemSeederInMemoryBuildMatchesArtifactDigest)
{
    // Build-mode FM-index (owned vectors) and view-mode (zero-copy
    // artifact spans) must drive the mapper to identical output.
    const auto built = pipeline::MappingContext::Builder()
                           .fromGraph(fixture().pangenome.graph)
                           .seeder(pipeline::SeederKind::kMem)
                           .build();
    EXPECT_EQ(test::mappingDigest(*built, pipeline::ToolProfile::kVgMap,
                                  fixture().shortReads),
              test::mappingDigest(*memArtifactContext(),
                                  pipeline::ToolProfile::kVgMap,
                                  fixture().shortReads));
}

TEST(Golden, ShortReadMappingsMatchGolden)
{
    checkGolden("short_reads_vgmap.md5",
                test::mappingDigest(*inMemoryContext(),
                                    pipeline::ToolProfile::kVgMap,
                                    fixture().shortReads));
}

TEST(Golden, ShortReadGiraffeMappingsMatchGolden)
{
    // Giraffe's GBWT filter decides which clusters reach the aligner;
    // a change to the walk that moves any read's mapping moves this.
    checkGolden("short_reads_giraffe.md5",
                test::mappingDigest(*inMemoryContext(),
                                    pipeline::ToolProfile::kVgGiraffe,
                                    fixture().shortReads));
}

TEST(Golden, LongReadMappingsMatchGolden)
{
    checkGolden("long_reads_minigraph.md5",
                test::mappingDigest(*inMemoryContext(),
                                    pipeline::ToolProfile::kMinigraph,
                                    fixture().longReads));
}

TEST(Golden, ShortReadMappingsViaArtifactMatchGolden)
{
    // The .pgbi round trip is invisible to the mapper: the same
    // golden digest as the in-memory ShortReadMappingsMatchGolden.
    checkGolden("short_reads_vgmap.md5",
                test::mappingDigest(*artifactContext(),
                                    pipeline::ToolProfile::kVgMap,
                                    fixture().shortReads));
}

TEST(Golden, ShortReadGiraffeMappingsViaArtifactMatchGolden)
{
    // The GBWT restored from the artifact's sections walks exactly as
    // the built one does.
    checkGolden("short_reads_giraffe.md5",
                test::mappingDigest(*artifactContext(),
                                    pipeline::ToolProfile::kVgGiraffe,
                                    fixture().shortReads));
}

TEST(Golden, LongReadMappingsViaArtifactMatchGolden)
{
    checkGolden("long_reads_minigraph.md5",
                test::mappingDigest(*artifactContext(),
                                    pipeline::ToolProfile::kMinigraph,
                                    fixture().longReads));
}

TEST(Golden, MapBatchViaArtifactAggregatesMatchInMemory)
{
    // A batch over a loaded artifact agrees with a batch over the
    // in-memory build on every aggregate.
    auto config =
        pipeline::MapperConfig::forTool(pipeline::ToolProfile::kVgMap);
    config.threads = 2;
    const auto direct = pipeline::mapBatch(*inMemoryContext(), config,
                                           fixture().shortReads);
    const auto batched = pipeline::mapBatch(*artifactContext(), config,
                                            fixture().shortReads);
    EXPECT_EQ(direct.mappedReads, batched.mappedReads);
    EXPECT_EQ(direct.anchors, batched.anchors);
    EXPECT_EQ(direct.clusters, batched.clusters);
    EXPECT_EQ(direct.alignments, batched.alignments);
}

TEST(Golden, ParallelMapReadsAggregatesAreThreadCountInvariant)
{
    auto config =
        pipeline::MapperConfig::forTool(pipeline::ToolProfile::kVgMap);
    config.threads = 1;
    const auto one = pipeline::mapBatch(*inMemoryContext(), config,
                                        fixture().shortReads);
    config.threads = 8;
    const auto eight = pipeline::mapBatch(*inMemoryContext(), config,
                                          fixture().shortReads);
    EXPECT_EQ(one.mappedReads, eight.mappedReads);
    EXPECT_EQ(one.anchors, eight.anchors);
    EXPECT_EQ(one.clusters, eight.clusters);
    EXPECT_EQ(one.alignments, eight.alignments);
}

} // namespace
