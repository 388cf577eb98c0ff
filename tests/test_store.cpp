/**
 * @file
 * pgb::store tests: `.pgbi` round-trip fidelity, zero-copy view
 * behavior, and the fail-closed loading contract (corrupted,
 * truncated, and version-mismatched artifacts are one-line
 * FatalErrors, never crashes).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "core/fault.hpp"
#include "core/logging.hpp"
#include "graph/gfa.hpp"
#include "index/gbwt.hpp"
#include "index/minimizer.hpp"
#include "store/format.hpp"
#include "store/store.hpp"
#include "synth/pangenome_sim.hpp"
#include "temp_path.hpp"

namespace {

using namespace pgb;

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

std::string
gfaText(const graph::PanGraph &graph)
{
    std::ostringstream out;
    graph::writeGfa(out, graph);
    return out.str();
}

/** A small fixed-seed pangenome, its indexes, and a written artifact
 *  shared by every test (written once into gtest's temp dir). */
struct StoreFixture
{
    synth::Pangenome pangenome;
    std::unique_ptr<index::MinimizerIndex> minimizers;
    std::unique_ptr<index::GbwtIndex> gbwt;
    std::string artifactPath;

    StoreFixture()
    {
        pangenome =
            synth::simulatePangenome(synth::mGraphLikeConfig(5000, 3));
        minimizers = std::make_unique<index::MinimizerIndex>(
            pangenome.graph, 15, 10);
        gbwt = std::make_unique<index::GbwtIndex>(pangenome.graph);
        artifactPath = test::testTempPath("pgb_store_fixture.pgbi");
        store::writeArtifact(artifactPath, pangenome.graph,
                             *minimizers, gbwt.get());
    }
};

const StoreFixture &
fixture()
{
    static StoreFixture instance;
    return instance;
}

/** Copy the fixture artifact to @p name inside the temp dir. */
std::string
copyArtifact(const std::string &name)
{
    const std::string dst = test::testTempPath(name);
    std::ifstream in(fixture().artifactPath, std::ios::binary);
    std::ofstream out(dst, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
    return dst;
}

// ---- round-trip fidelity ---------------------------------------------

TEST(StoreRoundTrip, GraphIsByteIdentical)
{
    const auto artifact = store::Artifact::load(fixture().artifactPath);
    EXPECT_EQ(gfaText(artifact->graph()), gfaText(fixture().pangenome.graph));
    EXPECT_EQ(artifact->graph().nodeCount(),
              fixture().pangenome.graph.nodeCount());
    EXPECT_EQ(artifact->graph().pathCount(),
              fixture().pangenome.graph.pathCount());
}

TEST(StoreRoundTrip, MinimizerIndexIsZeroCopyViewWithEqualContent)
{
    const auto artifact = store::Artifact::load(fixture().artifactPath);
    const auto &loaded = artifact->minimizers();
    const auto &built = *fixture().minimizers;

    EXPECT_TRUE(loaded.isView());
    EXPECT_FALSE(built.isView());
    EXPECT_EQ(loaded.k(), built.k());
    EXPECT_EQ(loaded.w(), built.w());
    EXPECT_EQ(artifact->k(), built.k());
    EXPECT_EQ(artifact->w(), built.w());
    ASSERT_EQ(loaded.distinctMinimizers(), built.distinctMinimizers());
    ASSERT_EQ(loaded.totalOccurrences(), built.totalOccurrences());

    // Every hash resolves to the same occurrence list in both.
    for (const auto &entry : built.flatTable()) {
        const auto a = built.occurrences(entry.hash);
        const auto b = loaded.occurrences(entry.hash);
        ASSERT_EQ(a.size(), b.size()) << "hash " << entry.hash;
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].node, b[i].node);
            EXPECT_EQ(a[i].offset, b[i].offset);
            EXPECT_EQ(a[i].reverse, b[i].reverse);
        }
    }
    // And a hash that is not in the table resolves to nothing.
    EXPECT_TRUE(loaded.occurrences(0xdeadbeefdeadbeefull).empty());
}

TEST(StoreRoundTrip, GbwtAnswersIdenticalQueries)
{
    const auto artifact = store::Artifact::load(fixture().artifactPath);
    ASSERT_NE(artifact->gbwt(), nullptr);
    const auto &loaded = *artifact->gbwt();
    const auto &built = *fixture().gbwt;

    const auto a = built.stats();
    const auto b = loaded.stats();
    EXPECT_EQ(a.records, b.records);
    EXPECT_EQ(a.totalVisits, b.totalVisits);
    EXPECT_EQ(a.totalRuns, b.totalRuns);
    EXPECT_EQ(loaded.runLengthEncoded(), built.runLengthEncoded());

    // find() along real haplotype subpaths returns identical ranges.
    const auto &graph = fixture().pangenome.graph;
    ASSERT_GT(graph.pathCount(), 0u);
    for (graph::PathId p = 0; p < graph.pathCount(); ++p) {
        const auto &steps = graph.pathSteps(p);
        const size_t take = std::min<size_t>(steps.size(), 12);
        const std::span<const graph::Handle> prefix(steps.data(), take);
        const auto ra = built.find(prefix);
        const auto rb = loaded.find(prefix);
        EXPECT_EQ(ra.node, rb.node);
        EXPECT_EQ(ra.begin, rb.begin);
        EXPECT_EQ(ra.end, rb.end);
        EXPECT_FALSE(rb.empty());
    }
}

TEST(StoreRoundTrip, ArtifactWithoutGbwtLoadsWithNullGbwt)
{
    const std::string path = test::testTempPath("no_gbwt.pgbi");
    store::writeArtifact(path, fixture().pangenome.graph,
                         *fixture().minimizers, nullptr);
    const auto artifact = store::Artifact::load(path);
    EXPECT_EQ(artifact->gbwt(), nullptr);
    EXPECT_EQ(gfaText(artifact->graph()),
              gfaText(fixture().pangenome.graph));
    std::remove(path.c_str());
}

TEST(StoreRoundTrip, RewriteOfLoadedArtifactIsByteIdentical)
{
    // Serialization is deterministic: load + rewrite reproduces the
    // file byte for byte (the build-once guarantee).
    const auto artifact = store::Artifact::load(fixture().artifactPath);
    const std::string path = test::testTempPath("rewrite.pgbi");
    store::writeArtifact(path, artifact->graph(), artifact->minimizers(),
                         artifact->gbwt());
    std::ifstream a(fixture().artifactPath, std::ios::binary);
    std::ifstream b(path, std::ios::binary);
    std::stringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_EQ(sa.str(), sb.str());
    std::remove(path.c_str());
}

// ---- fail-closed loading ---------------------------------------------

TEST(StoreFail, MissingFileIsFatal)
{
    EXPECT_THROW(
        store::Artifact::load(test::testTempPath("no_such_artifact.pgbi")),
        core::FatalError);
}

TEST(StoreFail, FlippedPayloadByteFailsChecksum)
{
    const std::string path = copyArtifact("corrupt.pgbi");
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        // Flip one byte deep in the payload region, past the header
        // and the section table.
        f.seekp(4096);
        char byte = 0;
        f.seekg(4096);
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x40);
        f.seekp(4096);
        f.write(&byte, 1);
    }
    EXPECT_THROW(store::Artifact::load(path), core::FatalError);
    std::remove(path.c_str());
}

TEST(StoreFail, TruncationIsFatal)
{
    const std::string path = copyArtifact("trunc.pgbi");
    {
        std::ifstream in(path, std::ios::binary);
        std::stringstream buf;
        buf << in.rdbuf();
        const std::string all = buf.str();
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(all.data(),
                  static_cast<std::streamsize>(all.size() / 2));
    }
    EXPECT_THROW(store::Artifact::load(path), core::FatalError);
    std::remove(path.c_str());
}

TEST(StoreFail, FutureFormatVersionIsFatal)
{
    const std::string path = copyArtifact("newver.pgbi");
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        const uint32_t version = store::kFormatVersion + 1;
        f.seekp(offsetof(store::Header, version));
        f.write(reinterpret_cast<const char *>(&version),
                sizeof(version));
    }
    EXPECT_THROW(store::Artifact::load(path), core::FatalError);
    std::remove(path.c_str());
}

TEST(StoreFail, BadMagicIsFatal)
{
    const std::string path = copyArtifact("badmagic.pgbi");
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.write("GARBAGE!", 8);
    }
    EXPECT_THROW(store::Artifact::load(path), core::FatalError);
    std::remove(path.c_str());
}

TEST(StoreFail, CorpusFixturesAllFailClosed)
{
    const std::string corpus = PGB_CORPUS_DIR;
    EXPECT_THROW(store::Artifact::load(corpus + "/bad_magic.pgbi"),
                 core::FatalError);
    EXPECT_THROW(store::Artifact::load(corpus + "/wrong_version.pgbi"),
                 core::FatalError);
    EXPECT_THROW(store::Artifact::load(corpus + "/truncated.pgbi"),
                 core::FatalError);
}

TEST(StoreFail, FmCorpusFixturesAllFailClosed)
{
    // Three FM-bearing artifacts, each corrupted at a different layer:
    // a flipped BWT payload byte (section checksum), an FBWT one byte
    // shorter than FMET's textLength with checksums *recomputed* (the
    // FM cross-section validation, not the checksum layer), and an
    // FMET sampleRate of zero (FM meta validation). All must be
    // FatalErrors even when the caller never asked for MEM seeding —
    // a corrupt optional section is corruption, not an option.
    const std::string corpus = PGB_CORPUS_DIR;
    EXPECT_THROW(
        store::Artifact::load(corpus + "/fm_bad_checksum.pgbi"),
        core::FatalError);
    EXPECT_THROW(store::Artifact::load(corpus + "/fm_truncated.pgbi"),
                 core::FatalError);
    EXPECT_THROW(store::Artifact::load(corpus + "/fm_bad_meta.pgbi"),
                 core::FatalError);
}

TEST(StoreFail, GbwtCorpusFixtureFailsClosed)
{
    // A GBWT whose BRUN names edge 2 of record 1's two edges, with
    // every checksum recomputed: only the per-record GBWT validation
    // can catch it, and it must before a walk indexes past the edges.
    const std::string corpus = PGB_CORPUS_DIR;
    EXPECT_THROW(store::Artifact::load(corpus + "/gbwt_bad_edge.pgbi"),
                 core::FatalError);
}

TEST(StoreFail, MinimizerCorpusFixturesFailClosed)
{
    // A META k of 40 (the scan shifts by 2(k - 1) and masks 2k bits)
    // and an MTAB hash one past the 2k-bit mask (it would index past
    // the hash directory), each with every checksum recomputed.
    const std::string corpus = PGB_CORPUS_DIR;
    EXPECT_THROW(
        store::Artifact::load(corpus + "/minimizer_bad_k.pgbi"),
        core::FatalError);
    EXPECT_THROW(
        store::Artifact::load(corpus + "/minimizer_hash_range.pgbi"),
        core::FatalError);
}

TEST(StoreFail, FmSectionRoundTripsAndValidates)
{
    // A healthy FM-bearing artifact loads with view-mode FM spans that
    // answer queries identically to the built index.
    const index::FmIndex fm(fixture().pangenome.graph);
    const std::string path = test::testTempPath("with_fm.pgbi");
    store::writeArtifact(path, fixture().pangenome.graph,
                         *fixture().minimizers, nullptr, &fm);
    const auto artifact = store::Artifact::load(path);
    ASSERT_NE(artifact->fmIndex(), nullptr);
    EXPECT_TRUE(artifact->fmIndex()->isView());
    EXPECT_EQ(artifact->fmIndex()->textLength(), fm.textLength());
    EXPECT_EQ(artifact->fmIndex()->pathCount(), fm.pathCount());
    // And an artifact written without one loads with a null FM-index.
    const auto plain = store::Artifact::load(fixture().artifactPath);
    EXPECT_EQ(plain->fmIndex(), nullptr);
    std::remove(path.c_str());
}

// ---- fault injection --------------------------------------------------

class StoreFaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { core::fault::disarmAll(); }
    void TearDown() override { core::fault::disarmAll(); }
};

TEST_F(StoreFaultTest, EveryLoadSiteFailsClosed)
{
    for (const char *site :
         {"store.open", "store.mmap", "store.section",
          "store.checksum"}) {
        core::fault::arm(site, 1);
        EXPECT_THROW(store::Artifact::load(fixture().artifactPath),
                     core::FatalError)
            << site;
        core::fault::disarmAll();
        // The site is one-shot: the next load succeeds.
        EXPECT_NO_THROW(store::Artifact::load(fixture().artifactPath))
            << site;
    }
}

TEST_F(StoreFaultTest, FailedWriteLeavesNoPartialArtifact)
{
    const std::string path = test::testTempPath("failed_write.pgbi");
    core::fault::arm("io.flush", 1);
    EXPECT_THROW(store::writeArtifact(path, fixture().pangenome.graph,
                                      *fixture().minimizers,
                                      fixture().gbwt.get()),
                 core::FatalError);
    core::fault::disarmAll();
    EXPECT_FALSE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".tmp"));
}

} // namespace
