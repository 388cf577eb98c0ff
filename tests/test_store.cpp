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
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
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
    // A GBWT whose BWRD body names edge 2 of record 1's two edges, with
    // every checksum recomputed: only the per-record GBWT validation
    // can catch it, and it must before a walk indexes past the edges.
    const std::string corpus = PGB_CORPUS_DIR;
    EXPECT_THROW(store::Artifact::load(corpus + "/gbwt_bad_edge.pgbi"),
                 core::FatalError);
}

TEST(StoreFail, SplitGbwtLayoutFailsClosed)
{
    // An artifact whose GBWT is stored in the older five-section split
    // (BREC/BEDG/BEOF/BRUN/BPLN) and not as BWRD words.
    const std::string path =
        std::string(PGB_CORPUS_DIR) + "/gbwt_split_layout.pgbi";
    try {
        store::Artifact::load(path);
        FAIL() << "the split GBWT layout loaded";
    } catch (const core::FatalError &error) {
        EXPECT_EQ(std::string(error.what()),
                  "fatal: " + path + ": missing required section BWRD");
    }
}

/**
 * Rewrite the fixture artifact into @p name with BWRD's payload
 * replaced by @p words, laid out and checksummed as writeArtifact
 * would: only the GBWT record check can then reject it.
 */
std::string
withGbwtWords(const std::string &name, const std::vector<uint32_t> &words)
{
    std::ifstream in(fixture().artifactPath, std::ios::binary);
    const std::string file((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    store::Header header;
    std::memcpy(&header, file.data(), sizeof(header));
    std::vector<store::SectionDesc> table(header.sectionCount);
    std::memcpy(table.data(), file.data() + sizeof(header),
                table.size() * sizeof(store::SectionDesc));
    std::vector<std::string> payloads;
    for (const store::SectionDesc &desc : table)
        payloads.push_back(desc.tag == store::kSecGbwtWords
                               ? std::string(
                                     reinterpret_cast<const char *>(
                                         words.data()),
                                     words.size() * sizeof(uint32_t))
                               : file.substr(desc.offset, desc.length));
    const auto align = [](size_t offset) {
        return (offset + store::kSectionAlign - 1) /
               store::kSectionAlign * store::kSectionAlign;
    };
    size_t offset = sizeof(header) + table.size() * sizeof(table[0]);
    for (size_t s = 0; s < table.size(); ++s) {
        offset = align(offset);
        table[s].offset = offset;
        table[s].length = payloads[s].size();
        table[s].checksum =
            store::fnv1a64(payloads[s].data(), payloads[s].size());
        offset += payloads[s].size();
    }
    header.fileBytes = align(offset);
    header.tableChecksum = store::fnv1a64(
        table.data(), table.size() * sizeof(store::SectionDesc));
    std::string out(header.fileBytes, '\0');
    std::memcpy(out.data(), &header, sizeof(header));
    std::memcpy(out.data() + sizeof(header), table.data(),
                table.size() * sizeof(store::SectionDesc));
    for (size_t s = 0; s < table.size(); ++s)
        std::memcpy(out.data() + table[s].offset, payloads[s].data(),
                    payloads[s].size());
    const std::string path = test::testTempPath(name);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << out;
    return path;
}

TEST(StoreFail, EveryGbwtRecordDefectFailsClosed)
{
    // One BWRD mutation per record check, every checksum valid: each
    // load must end in that check's one-line FatalError.
    const std::vector<uint32_t> built(fixture().gbwt->words().begin(),
                                      fixture().gbwt->words().end());
    ASSERT_TRUE(fixture().gbwt->runLengthEncoded());
    constexpr uint32_t kHeader = index::GbwtIndex::kHeaderWords;
    std::vector<size_t> starts;
    for (size_t at = 0; at < built.size();
         at += kHeader + 2 * built[at + 1] + 2 * built[at + 2])
        starts.push_back(at);
    const size_t records = starts.size();
    ASSERT_EQ(records, fixture().pangenome.graph.nodeCount() * 2 + 1);
    const size_t last = starts.back();
    // The first record with a followed edge and a body.
    size_t r = 0;
    while (built[starts[r] + 1] == 0 || built[starts[r] + kHeader] == 0)
        ++r;
    const size_t at = starts[r];
    const uint32_t edges = built[at + 1];
    const size_t body = at + kHeader + 2 * edges;
    const uint32_t successor = built[at + kHeader];
    const std::string rec = "GBWT record " + std::to_string(r);

    struct Case
    {
        const char *name;
        std::function<void(std::vector<uint32_t> &)> mutate;
        std::string message;
    };
    const std::vector<Case> cases = {
        {"header_past", [&](auto &w) { w.resize(last + 2); },
         "GBWT record " + std::to_string(records - 1) +
             " header runs past BWRD"},
        {"edges_past", [&](auto &w) { w[last + 1] = 1u << 30; },
         "GBWT record " + std::to_string(records - 1) +
             " edges run past BWRD"},
        {"body_past", [&](auto &w) { w[last + 2] = 1u << 30; },
         "GBWT record " + std::to_string(records - 1) +
             " body runs past BWRD"},
        {"trailing", [&](auto &w) { w.push_back(0); },
         "BWRD holds 1 words after the last record"},
        {"record_count", [&](auto &w) { w.resize(last); },
         "BWRD holds " + std::to_string(records - 1) +
             " records, graph needs " + std::to_string(records)},
        {"body_edge", [&](auto &w) { w[body] = edges; },
         rec + " body names edge " + std::to_string(edges) + " of " +
             std::to_string(edges)},
        {"body_visits", [&](auto &w) { ++w[body + 1]; },
         rec + " body holds " + std::to_string(built[at] + 1) +
             " visits, header says " + std::to_string(built[at])},
        {"successor",
         [&](auto &w) { w[at + kHeader] = static_cast<uint32_t>(records); },
         rec + " edge 0 names record " + std::to_string(records) +
             " of " + std::to_string(records)},
        {"block_overrun",
         [&](auto &w) { w[at + kHeader + 1] = built[starts[successor]]; },
         rec + " edge 0 block overruns record " +
             std::to_string(successor)},
    };
    for (const Case &c : cases) {
        std::vector<uint32_t> words = built;
        c.mutate(words);
        const std::string path =
            withGbwtWords(std::string("bwrd_") + c.name + ".pgbi", words);
        try {
            store::Artifact::load(path);
            ADD_FAILURE() << c.name << ": the mutated BWRD loaded";
        } catch (const core::FatalError &error) {
            EXPECT_EQ(std::string(error.what()),
                      "fatal: " + path + ": " + c.message)
                << c.name;
        }
        std::remove(path.c_str());
    }
    // The unmutated words pass through the same rewrite and load.
    const std::string path = withGbwtWords("bwrd_intact.pgbi", built);
    EXPECT_NE(store::Artifact::load(path)->gbwt(), nullptr);
    std::remove(path.c_str());
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
