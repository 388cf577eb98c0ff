/**
 * @file
 * Broken-input corpus tests: every file in tests/corpus is parsed in
 * strict mode (asserting the exact line-numbered diagnostic) and in
 * lenient mode (asserting what is skipped and what survives).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "core/logging.hpp"
#include "core/parse.hpp"
#include "graph/gfa.hpp"
#include "seq/fasta.hpp"
#include "store/manifest.hpp"
#include "store/store.hpp"

#ifndef PGB_CORPUS_DIR
#error "PGB_CORPUS_DIR must point at tests/corpus"
#endif

namespace pgb {
namespace {

using core::FatalError;
using core::ParseOptions;
using core::ParseStats;

std::string
corpusPath(const std::string &name)
{
    return std::string(PGB_CORPUS_DIR) + "/" + name;
}

/** Slurp a corpus file so the stream readers see a fixed label. */
std::string
slurp(const std::string &name)
{
    std::ifstream input(corpusPath(name), std::ios::binary);
    EXPECT_TRUE(input.good()) << "missing corpus file " << name;
    std::ostringstream text;
    text << input.rdbuf();
    return text.str();
}

ParseOptions
lenient()
{
    ParseOptions options;
    options.lenient = true;
    return options;
}

/** Expect a strict-mode FatalError whose what() is exactly @p message. */
template <typename Parse>
void
expectStrictError(const Parse &parse, const std::string &message)
{
    try {
        parse();
        FAIL() << "expected FatalError: " << message;
    } catch (const FatalError &error) {
        EXPECT_STREQ(error.what(), message.c_str());
    }
}

// --------------------------------------------------------- FASTQ

TEST(ParseCorpus, TruncatedFastqStrict)
{
    std::istringstream input(slurp("truncated.fq"));
    expectStrictError(
        [&] { seq::readFastq(input); },
        "fatal: FASTQ: line 1: truncated record before quality line "
        "in '@r1'");
}

TEST(ParseCorpus, TruncatedFastqLenient)
{
    std::istringstream input(slurp("truncated.fq"));
    ParseStats stats;
    const auto records = seq::readFastq(input, lenient(), &stats);
    EXPECT_TRUE(records.empty());
    EXPECT_EQ(stats.skipped, 1u);
}

TEST(ParseCorpus, BadHeaderFastqStrict)
{
    std::istringstream input(slurp("bad_header.fq"));
    expectStrictError(
        [&] { seq::readFastq(input); },
        "fatal: FASTQ: line 1: expected '@' header, got "
        "'r1 no at-sign'");
}

TEST(ParseCorpus, BadHeaderFastqLenient)
{
    // Lenient resync skips line by line until the next '@' header;
    // this corpus has none, so every line is skipped.
    std::istringstream input(slurp("bad_header.fq"));
    ParseStats stats;
    const auto records = seq::readFastq(input, lenient(), &stats);
    EXPECT_TRUE(records.empty());
    EXPECT_EQ(stats.skipped, 4u);
}

TEST(ParseCorpus, QualityMismatchFastqStrict)
{
    std::istringstream input(slurp("qual_mismatch.fq"));
    expectStrictError(
        [&] { seq::readFastq(input); },
        "fatal: FASTQ: line 1: quality length 3 != sequence length 5 "
        "in record '@r1'");
}

TEST(ParseCorpus, QualityMismatchFastqLenient)
{
    std::istringstream input(slurp("qual_mismatch.fq"));
    ParseStats stats;
    const auto records = seq::readFastq(input, lenient(), &stats);
    EXPECT_TRUE(records.empty());
    EXPECT_EQ(stats.skipped, 1u);
}

// ----------------------------------------------------------- GFA

TEST(ParseCorpus, BadOrientationGfaStrict)
{
    std::istringstream input(slurp("bad_orientation.gfa"));
    expectStrictError([&] { graph::readGfa(input); },
                      "fatal: GFA: line 4: bad L orientation '?'");
}

TEST(ParseCorpus, BadOrientationGfaLenient)
{
    std::istringstream input(slurp("bad_orientation.gfa"));
    ParseStats stats;
    const auto graph = graph::readGfa(input, lenient(), &stats);
    EXPECT_EQ(graph.nodeCount(), 2u);
    EXPECT_EQ(graph.edgeCount(), 0u);
    EXPECT_EQ(stats.skipped, 1u);
}

TEST(ParseCorpus, DuplicateSegmentGfaStrict)
{
    std::istringstream input(slurp("dup_segment.gfa"));
    expectStrictError([&] { graph::readGfa(input); },
                      "fatal: GFA: line 2: duplicate segment '1'");
}

TEST(ParseCorpus, DuplicateSegmentGfaLenient)
{
    std::istringstream input(slurp("dup_segment.gfa"));
    ParseStats stats;
    const auto graph = graph::readGfa(input, lenient(), &stats);
    EXPECT_EQ(graph.nodeCount(), 1u);
    // The first definition wins; the duplicate is skipped.
    EXPECT_EQ(graph.nodeSequence(0).toString(), "ACGT");
    EXPECT_EQ(stats.skipped, 1u);
}

TEST(ParseCorpus, UnknownSegmentGfaStrict)
{
    std::istringstream input(slurp("unknown_segment.gfa"));
    expectStrictError(
        [&] { graph::readGfa(input); },
        "fatal: GFA: line 2: unknown segment '9' in L record");
}

TEST(ParseCorpus, UnknownSegmentGfaLenient)
{
    std::istringstream input(slurp("unknown_segment.gfa"));
    ParseStats stats;
    const auto graph = graph::readGfa(input, lenient(), &stats);
    EXPECT_EQ(graph.nodeCount(), 1u);
    EXPECT_EQ(graph.edgeCount(), 0u);
    EXPECT_EQ(stats.skipped, 1u);
}

TEST(ParseCorpus, CrlfGfaParsesCleanlyStrict)
{
    // Windows line endings are not an error in either mode.
    std::istringstream input(slurp("crlf.gfa"));
    ParseStats stats;
    const auto graph = graph::readGfa(input, {}, &stats);
    EXPECT_EQ(graph.nodeCount(), 2u);
    EXPECT_EQ(graph.edgeCount(), 1u);
    EXPECT_EQ(graph.pathCount(), 1u);
    EXPECT_EQ(graph.nodeSequence(0).toString(), "ACGT");
    EXPECT_EQ(stats.records, 4u);
    EXPECT_EQ(stats.skipped, 0u);
}

TEST(ParseCorpus, EmptyGfaStrict)
{
    std::istringstream input(slurp("empty.gfa"));
    expectStrictError([&] { graph::readGfa(input); },
                      "fatal: GFA: empty input (no segments)");
}

TEST(ParseCorpus, EmptyGfaLenient)
{
    std::istringstream input(slurp("empty.gfa"));
    const auto graph = graph::readGfa(input, lenient());
    EXPECT_EQ(graph.nodeCount(), 0u);
}

// --------------------------------------------------------- FASTA

TEST(ParseCorpus, BadBasesFastaStrict)
{
    std::istringstream input(slurp("bad_bases.fa"));
    expectStrictError(
        [&] { seq::readFasta(input); },
        "fatal: FASTA: line 2: non-ACGTN character 'X' in record 'a'");
}

TEST(ParseCorpus, BadBasesFastaLenient)
{
    std::istringstream input(slurp("bad_bases.fa"));
    ParseStats stats;
    const auto records = seq::readFasta(input, lenient(), &stats);
    EXPECT_TRUE(records.empty());
    EXPECT_EQ(stats.skipped, 1u);
}

TEST(ParseCorpus, DataBeforeHeaderFastaStrict)
{
    std::istringstream input(slurp("data_before_header.fa"));
    expectStrictError(
        [&] { seq::readFasta(input); },
        "fatal: FASTA: line 1: sequence data before first '>' header");
}

TEST(ParseCorpus, DataBeforeHeaderFastaLenient)
{
    std::istringstream input(slurp("data_before_header.fa"));
    ParseStats stats;
    const auto records = seq::readFasta(input, lenient(), &stats);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].name(), "a");
    EXPECT_EQ(records[0].toString(), "ACGT");
    EXPECT_EQ(stats.records, 1u);
    EXPECT_EQ(stats.skipped, 1u);
}

// ------------------------------------------------ file-path labels

TEST(ParseCorpus, FileReadersUseThePathAsTheLabel)
{
    const std::string path = corpusPath("dup_segment.gfa");
    expectStrictError(
        [&] { graph::readGfaFile(path); },
        "fatal: " + path + ": line 2: duplicate segment '1'");
}

TEST(ParseCorpus, MissingFileIsFatal)
{
    const std::string path = corpusPath("no_such_file.gfa");
    expectStrictError([&] { graph::readGfaFile(path); },
                      "fatal: GFA: cannot open '" + path + "'");
}

// ---------------------------------------------- FM-index sections

TEST(ParseCorpus, FmBadChecksumArtifactNamesTheSection)
{
    const std::string path = corpusPath("fm_bad_checksum.pgbi");
    expectStrictError(
        [&] { store::Artifact::load(path); },
        "fatal: " + path + ": section FBWT corrupt (checksum mismatch)");
}

TEST(ParseCorpus, FmTruncatedArtifactReportsBothSizes)
{
    // Checksums in this fixture are *valid* for the truncated payload;
    // only the FM cross-section validation can catch it.
    const std::string path = corpusPath("fm_truncated.pgbi");
    expectStrictError(
        [&] { store::Artifact::load(path); },
        "fatal: " + path +
            ": section FBWT holds 5989 bytes, expected 5990");
}

TEST(ParseCorpus, FmBadMetaArtifactReportsTheField)
{
    const std::string path = corpusPath("fm_bad_meta.pgbi");
    expectStrictError([&] { store::Artifact::load(path); },
                      "fatal: " + path + ": FMET sample rate is zero");
}

TEST(ParseCorpus, GbwtBadEdgeArtifactNamesTheRecord)
{
    // Checksums in this fixture are valid; the body's edge index is
    // not.
    const std::string path = corpusPath("gbwt_bad_edge.pgbi");
    expectStrictError(
        [&] { store::Artifact::load(path); },
        "fatal: " + path + ": GBWT record 1 body names edge 2 of 2");
}

TEST(ParseCorpus, SplitGbwtLayoutArtifactNamesTheMissingSection)
{
    // A valid artifact of the older layout, whose GBWT is split into
    // BREC/BEDG/BEOF/BRUN/BPLN sections instead of BWRD words.
    const std::string path = corpusPath("gbwt_split_layout.pgbi");
    expectStrictError([&] { store::Artifact::load(path); },
                      "fatal: " + path +
                          ": missing required section BWRD");
}

TEST(ParseCorpus, MinimizerBadKArtifactNamesTheField)
{
    // Checksums in this fixture are valid; META's k is 40.
    const std::string path = corpusPath("minimizer_bad_k.pgbi");
    expectStrictError([&] { store::Artifact::load(path); },
                      "fatal: " + path +
                          ": META k = 40 is outside [1, 32]");
}

TEST(ParseCorpus, MinimizerHashRangeArtifactNamesTheEntry)
{
    // Checksums in this fixture are valid; the last MTAB hash is
    // 2^30, one past the 30-bit hashes of k = 15.
    const std::string path = corpusPath("minimizer_hash_range.pgbi");
    expectStrictError([&] { store::Artifact::load(path); },
                      "fatal: " + path +
                          ": MTAB entry 772 hash exceeds 30 bits");
}

// ------------------------------------------------ .pgbs shard sets
//
// Shard manifests fail closed: any defect — bad trailer, bad version,
// inconsistent routing, missing shard file — is a FatalError with a
// pinned one-line diagnostic, never a partially-usable shard set.

TEST(ParseCorpus, ShardManifestMissingFileIsFatal)
{
    const std::string path = corpusPath("no_such.pgbs");
    expectStrictError([&] { store::ShardManifest::load(path); },
                      "fatal: " + path + ": cannot open manifest");
}

TEST(ParseCorpus, ShardManifestWithoutTrailerIsFatal)
{
    const std::string path = corpusPath("no_trailer.pgbs");
    expectStrictError(
        [&] { store::ShardManifest::load(path); },
        "fatal: " + path + ": manifest has no checksum trailer");
}

TEST(ParseCorpus, ShardManifestChecksumMismatchIsFatal)
{
    const std::string path = corpusPath("bad_checksum.pgbs");
    expectStrictError(
        [&] { store::ShardManifest::load(path); },
        "fatal: " + path + ": manifest corrupt (checksum mismatch)");
}

TEST(ParseCorpus, ShardManifestBadMagicIsFatal)
{
    const std::string path = corpusPath("not_pgbs.pgbs");
    expectStrictError([&] { store::ShardManifest::load(path); },
                      "fatal: " + path +
                          ": line 1: not a .pgbs manifest");
}

TEST(ParseCorpus, ShardManifestFutureVersionIsFatal)
{
    const std::string path = corpusPath("bad_version.pgbs");
    expectStrictError(
        [&] { store::ShardManifest::load(path); },
        "fatal: " + path +
            ": manifest version 2 unsupported (this build reads "
            "version 1)");
}

TEST(ParseCorpus, ShardManifestDuplicateComponentIsFatal)
{
    const std::string path = corpusPath("dup_component.pgbs");
    expectStrictError([&] { store::ShardManifest::load(path); },
                      "fatal: " + path +
                          ": line 6: duplicate component 0");
}

TEST(ParseCorpus, ShardManifestMissingShardFileIsFatal)
{
    // The manifest itself is well-formed; the shard file it routes to
    // does not exist, and load() refuses rather than deferring the
    // failure to the first read that touches the shard.
    const std::string path = corpusPath("missing_shard.pgbs");
    expectStrictError([&] { store::ShardManifest::load(path); },
                      "fatal: " + path + ": missing shard file '" +
                          corpusPath("no_such.shard0.pgbi") + "'");
}

TEST(ParseCorpus, ShardManifestLoadFaultSiteFailsClosed)
{
    // The store.manifest fault site models an unreadable manifest at
    // open time (ENOENT/EACCES races); armed, load() must fail before
    // trusting a single byte.
    const std::string path = corpusPath("missing_shard.pgbs");
    core::fault::arm("store.manifest", 1);
    expectStrictError([&] { store::ShardManifest::load(path); },
                      "fatal: " + path + ": cannot open: injected fault");
    core::fault::disarmAll();
}

} // namespace
} // namespace pgb
