/**
 * @file
 * Fault-injection tests: every registered fault site is armed and the
 * documented recovery (Arena degradation, checked-write FatalError) or
 * the documented clean propagation (worker exceptions rethrown on the
 * calling thread) is asserted. No path may reach std::terminate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "build/transclosure.hpp"
#include "core/arena.hpp"
#include "core/fault.hpp"
#include "core/io.hpp"
#include "core/logging.hpp"
#include "core/thread_pool.hpp"
#include "graph/gfa.hpp"
#include "pipeline/mapper.hpp"
#include "seq/fasta.hpp"
#include "seq/read_sim.hpp"
#include "synth/pangenome_sim.hpp"
#include "temp_path.hpp"

namespace pgb {
namespace {

using core::Arena;
using core::FatalError;
using core::FaultSite;
using core::PanicError;

/** A site owned by the tests for registry/trigger semantics. */
FaultSite testSite("test.site");

class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { core::fault::disarmAll(); }
    void TearDown() override { core::fault::disarmAll(); }
};

// ----------------------------------------------------- registry

TEST_F(FaultTest, RegistryListsEveryProductionSite)
{
    // This is the suite's site inventory: adding a FaultSite without
    // covering it here (and below) is a test failure by design.
    const auto sites = core::fault::sites();
    const std::vector<std::string> expected = {
        "arena.ftruncate",  "arena.mmap",      "arena.open",
        "io.flush",         "mapper.read",     "serve.accept",
        "serve.read",       "serve.reload",    "serve.stall",
        "serve.write",      "store.checksum",  "store.manifest",
        "store.mmap",       "store.open",      "store.section",
        "test.chaos.other", "test.chaos.twin", "test.chaos.twin",
        "test.obs.site",    "test.site",       "threadpool.for",
        "threadpool.run",
    };
    EXPECT_EQ(sites, expected);
}

TEST_F(FaultTest, EveryProductionSiteDocumentsItsRecovery)
{
    // `pgb fault-sites` is operator documentation; an empty recovery
    // column would make the catalog useless for the sites that matter.
    for (const auto &info : core::fault::siteInfos()) {
        if (info.name.rfind("test.", 0) == 0)
            continue; // test-owned sites need no operator docs
        EXPECT_FALSE(info.recovery.empty())
            << info.name << " has no recovery documentation";
    }
}

TEST_F(FaultTest, DisarmedSiteNeverFires)
{
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(testSite.fire());
}

TEST_F(FaultTest, FiresExactlyOnTheNthHit)
{
    core::fault::arm("test.site", 3);
    EXPECT_TRUE(core::fault::armed("test.site"));
    EXPECT_FALSE(testSite.fire());
    EXPECT_FALSE(testSite.fire());
    EXPECT_TRUE(testSite.fire());
    // One-shot: fires once, then disarms.
    EXPECT_FALSE(testSite.fire());
    EXPECT_FALSE(core::fault::armed("test.site"));
}

TEST_F(FaultTest, DisarmCancelsPendingTrigger)
{
    core::fault::arm("test.site", 1);
    core::fault::disarm("test.site");
    EXPECT_FALSE(testSite.fire());
}

TEST_F(FaultTest, ConfigureParsesPgbFaultSyntax)
{
    core::fault::configure("test.site:2,threadpool.for");
    EXPECT_TRUE(core::fault::armed("test.site"));
    EXPECT_TRUE(core::fault::armed("threadpool.for"));
    EXPECT_FALSE(testSite.fire());
    EXPECT_TRUE(testSite.fire());
    core::fault::disarmAll();
    EXPECT_FALSE(core::fault::armed("threadpool.for"));
}

TEST_F(FaultTest, ConfigureIgnoresMalformedEntriesWithWarning)
{
    core::fault::configure("test.site:banana,,test.site:0");
    EXPECT_FALSE(core::fault::armed("test.site"));
}

TEST_F(FaultTest, ArmUnregisteredSiteStaysPending)
{
    core::fault::arm("not.a.site", 1);
    EXPECT_FALSE(core::fault::armed("not.a.site"));
    core::fault::disarmAll();
}

// -------------------------------------------------- thread pool

TEST_F(FaultTest, ParallelForPropagatesInjectedFatalError)
{
    core::fault::arm("threadpool.for", 3);
    std::atomic<size_t> visited(0);
    EXPECT_THROW(core::parallelFor(0, 100000, 8,
                                   [&](size_t) { ++visited; }),
                 FatalError);
    // The gang drained and joined: some work ran, not all of it.
    EXPECT_LT(visited.load(), 100000u);
}

TEST_F(FaultTest, ParallelForInlinePathFiresTheSameSite)
{
    core::fault::arm("threadpool.for", 1);
    EXPECT_THROW(core::parallelFor(0, 10, 1, [](size_t) {}),
                 FatalError);
}

TEST_F(FaultTest, ParallelForPropagatesBodyExceptions)
{
    // No fault site involved: a worker body that panics must surface
    // on the calling thread, not std::terminate.
    EXPECT_THROW(
        core::parallelFor(0, 10000, 8,
                          [](size_t i) {
                              if (i == 1234)
                                  core::panic("worker invariant");
                          }),
        PanicError);
}

TEST_F(FaultTest, ParallelForKeepsFirstExceptionOnly)
{
    // Every chunk throws; exactly one exception must come back.
    try {
        core::parallelFor(0, 10000, 8, [](size_t) {
            core::fatal("boom");
        });
        FAIL() << "parallelFor did not rethrow";
    } catch (const FatalError &error) {
        EXPECT_STREQ(error.what(), "fatal: boom");
    }
}

TEST_F(FaultTest, ParallelForCompletesWhenDisarmed)
{
    std::atomic<size_t> visited(0);
    core::parallelFor(0, 5000, 4, [&](size_t) { ++visited; });
    EXPECT_EQ(visited.load(), 5000u);
}

TEST_F(FaultTest, ParallelRunPropagatesInjectedFatalError)
{
    core::fault::arm("threadpool.run", 2);
    std::atomic<unsigned> started(0);
    EXPECT_THROW(core::parallelRun(4, [&](unsigned) { ++started; }),
                 FatalError);
    EXPECT_LT(started.load(), 4u);
}

TEST_F(FaultTest, ParallelRunSingleThreadFiresTheSameSite)
{
    core::fault::arm("threadpool.run", 1);
    EXPECT_THROW(core::parallelRun(1, [](unsigned) {}), FatalError);
}

TEST_F(FaultTest, ParallelRunPropagatesBodyExceptions)
{
    EXPECT_THROW(core::parallelRun(4,
                                   [](unsigned t) {
                                       if (t == 3)
                                           core::fatal("worker 3 died");
                                   }),
                 FatalError);
}

// -------------------------------------------------------- arena

TEST_F(FaultTest, ArenaOpenFailureDegradesToMemory)
{
    core::fault::arm("arena.open", 1);
    Arena arena(Arena::Mode::kFileBacked);
    EXPECT_EQ(arena.mode(), Arena::Mode::kInMemory);
    EXPECT_TRUE(arena.path().empty());
    const char payload[] = "still works";
    const size_t offset = arena.append(payload, sizeof(payload));
    EXPECT_EQ(std::memcmp(arena.at(offset), payload, sizeof(payload)),
              0);
}

TEST_F(FaultTest, ArenaTruncateFailureDegradesToMemory)
{
    core::fault::arm("arena.ftruncate", 1);
    Arena arena(Arena::Mode::kFileBacked);
    EXPECT_EQ(arena.mode(), Arena::Mode::kFileBacked);
    const uint32_t value = 0xDEADBEEF;
    arena.append(&value, sizeof(value)); // first grow hits the fault
    EXPECT_EQ(arena.mode(), Arena::Mode::kInMemory);
    uint32_t read_back = 0;
    std::memcpy(&read_back, arena.at(0), sizeof(read_back));
    EXPECT_EQ(read_back, value);
}

TEST_F(FaultTest, ArenaMmapFailureDegradesToMemory)
{
    core::fault::arm("arena.mmap", 1);
    Arena arena(Arena::Mode::kFileBacked);
    const uint32_t value = 0x5EED;
    arena.append(&value, sizeof(value));
    EXPECT_EQ(arena.mode(), Arena::Mode::kInMemory);
    uint32_t read_back = 0;
    std::memcpy(&read_back, arena.at(0), sizeof(read_back));
    EXPECT_EQ(read_back, value);
}

TEST_F(FaultTest, ArenaMidGrowthDegradationPreservesContents)
{
    // First grow succeeds file-backed; the second (past 1 MiB) hits
    // the mmap fault, so the fallback must copy live contents over.
    core::fault::arm("arena.mmap", 2);
    Arena arena(Arena::Mode::kFileBacked);
    std::vector<uint8_t> block(4096);
    const size_t blocks = (2u << 20) / block.size();
    for (size_t b = 0; b < blocks; ++b) {
        for (size_t i = 0; i < block.size(); ++i)
            block[i] = static_cast<uint8_t>((b * 31 + i) & 0xFF);
        arena.append(block.data(), block.size());
    }
    EXPECT_EQ(arena.mode(), Arena::Mode::kInMemory);
    for (size_t b = 0; b < blocks; ++b) {
        const uint8_t *data = arena.at(b * block.size());
        for (size_t i = 0; i < block.size(); ++i)
            ASSERT_EQ(data[i],
                      static_cast<uint8_t>((b * 31 + i) & 0xFF));
    }
}

// ------------------------------------------- transclose threading

std::string
transcloseToGfa(bool file_backed)
{
    const auto pangenome =
        synth::simulatePangenome(synth::mGraphLikeConfig(6000, 99));
    std::vector<seq::Sequence> seqs;
    seqs.push_back(pangenome.reference);
    for (const auto &hap : pangenome.haplotypes)
        seqs.push_back(hap);
    const build::SequenceCatalog catalog(seqs);
    std::vector<build::MatchSegment> matches;
    for (const auto &m : synth::groundTruthMatches(pangenome)) {
        matches.push_back(
            {catalog.globalOffset(0, m.refStart),
             catalog.globalOffset(m.haplotype + 1, m.hapStart),
             m.length});
    }
    build::TcOptions options;
    options.fileBackedMatches = file_backed;
    const auto result = build::transclose(catalog, matches, options);
    std::ostringstream gfa;
    graph::writeGfa(gfa, result.graph);
    return gfa.str();
}

TEST_F(FaultTest, TranscloseSurvivesArenaDegradationIdentically)
{
    const std::string healthy = transcloseToGfa(false);
    core::fault::arm("arena.open", 1);
    const std::string degraded = transcloseToGfa(true);
    EXPECT_EQ(degraded, healthy);
    core::fault::disarmAll();
    const std::string file_backed = transcloseToGfa(true);
    EXPECT_EQ(file_backed, healthy);
}

// -------------------------------------------------------- mapper

TEST_F(FaultTest, MapReadsPropagatesWorkerFault)
{
    const auto pangenome =
        synth::simulatePangenome(synth::mGraphLikeConfig(20000, 7));
    seq::ReadSimulator sim(seq::ReadProfile::shortRead(), 0x11);
    std::vector<seq::Sequence> reads;
    for (size_t r = 0; r < 32; ++r) {
        auto read = sim.sample(
            pangenome.haplotypes[r % pangenome.haplotypes.size()]);
        std::string name = "r";
        name += std::to_string(r);
        read.read.setName(std::move(name));
        reads.push_back(std::move(read.read));
    }
    auto config =
        pipeline::MapperConfig::forTool(pipeline::ToolProfile::kVgMap);
    config.threads = 4;
    const auto context = pipeline::MappingContext::Builder()
                             .fromGraph(pangenome.graph)
                             .build();

    core::fault::arm("mapper.read", 5);
    EXPECT_THROW(pipeline::mapBatch(*context, config, reads), FatalError);

    // Same context, disarmed: the batch completes normally.
    const auto report = pipeline::mapBatch(*context, config, reads);
    EXPECT_EQ(report.reads, reads.size());
    EXPECT_GT(report.mappedReads, 0u);
}

// ------------------------------------------------ checked writes

TEST_F(FaultTest, CheckedWriterInjectedFlushFailureIsFatal)
{
    const std::string path =
        test::testTempPath("pgb_fault_writer.txt");
    core::fault::arm("io.flush", 1);
    core::CheckedWriter writer(path);
    writer.stream() << "payload\n";
    EXPECT_THROW(writer.finish(), FatalError);
    std::remove(path.c_str());
}

TEST_F(FaultTest, CheckedWriterUnwritablePathIsFatal)
{
    EXPECT_THROW(
        core::CheckedWriter("/nonexistent-dir/pgb_fault/out.txt"),
        FatalError);
}

TEST_F(FaultTest, CheckedWriterCleanPathSucceeds)
{
    const std::string path =
        test::testTempPath("pgb_fault_writer_ok.txt");
    core::CheckedWriter writer(path);
    writer.stream() << "ok\n";
    writer.finish();
    std::remove(path.c_str());
}

TEST_F(FaultTest, WriteGfaFilePropagatesInjectedWriteFailure)
{
    graph::PanGraph g;
    g.addNode(seq::Sequence("s", "ACGT"));
    const std::string path = test::testTempPath("pgb_fault.gfa");
    core::fault::arm("io.flush", 1);
    EXPECT_THROW(graph::writeGfaFile(path, g), FatalError);
    std::remove(path.c_str());
}

TEST_F(FaultTest, WriteFastaFilePropagatesInjectedWriteFailure)
{
    std::vector<seq::Sequence> records;
    records.emplace_back("a", "ACGT");
    const std::string path = test::testTempPath("pgb_fault.fa");
    core::fault::arm("io.flush", 1);
    EXPECT_THROW(seq::writeFastaFile(path, records), FatalError);
    std::remove(path.c_str());
}

TEST_F(FaultTest, WriteFastqFilePropagatesInjectedWriteFailure)
{
    std::vector<seq::Sequence> records;
    records.emplace_back("a", "ACGT");
    const std::string path = test::testTempPath("pgb_fault.fq");
    core::fault::arm("io.flush", 1);
    EXPECT_THROW(seq::writeFastqFile(path, records), FatalError);
    std::remove(path.c_str());
}

// --------------------------------------------------------- chaos

/** Two independently-counting sites with the same name: the chaos
 *  decision must depend only on (seed, name, hit index), never on
 *  object identity — that is what makes runs reproducible. */
FaultSite chaosSiteA("test.chaos.twin");
FaultSite chaosSiteB("test.chaos.twin");
FaultSite chaosSiteOther("test.chaos.other");

class ChaosSchedule : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        core::fault::disarmAll();
        core::fault::chaosOff();
    }
    void
    TearDown() override
    {
        core::fault::disarmAll();
        core::fault::chaosOff();
    }

    /** Record which of the next @p n hits on @p site fire. */
    static std::vector<bool>
    pattern(FaultSite &site, size_t n)
    {
        std::vector<bool> fired(n);
        for (size_t i = 0; i < n; ++i)
            fired[i] = site.fire();
        return fired;
    }
};

TEST_F(ChaosSchedule, DisabledByDefault)
{
    EXPECT_FALSE(core::fault::chaosEnabled());
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(chaosSiteOther.fire());
}

TEST_F(ChaosSchedule, ProbabilityZeroNeverFires)
{
    core::fault::chaos(1234, 0.0);
    EXPECT_TRUE(core::fault::chaosEnabled());
    for (int i = 0; i < 2000; ++i)
        EXPECT_FALSE(chaosSiteOther.fire());
}

TEST_F(ChaosSchedule, ProbabilityOneAlwaysFires)
{
    core::fault::chaos(1234, 1.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(chaosSiteOther.fire());
}

TEST_F(ChaosSchedule, SameSeedSameSiteNameSamePattern)
{
    // chaosSiteA and chaosSiteB share a name but count hits
    // separately, so over the same hit-index range they must produce
    // bit-identical fire patterns — the reproducibility contract.
    core::fault::chaos(0xC0FFEE, 0.25);
    const auto a = pattern(chaosSiteA, 512);
    const auto b = pattern(chaosSiteB, 512);
    EXPECT_EQ(a, b);
    EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
}

TEST_F(ChaosSchedule, DifferentSeedsDecorrelate)
{
    core::fault::chaos(1, 0.25);
    const auto a = pattern(chaosSiteA, 512);
    core::fault::chaosOff();
    core::fault::chaos(2, 0.25);
    const auto b = pattern(chaosSiteB, 512);
    EXPECT_NE(a, b);
}

TEST_F(ChaosSchedule, FireRateTracksProbabilityLoosely)
{
    core::fault::chaos(77, 0.1);
    size_t fired = 0;
    const size_t trials = 20000;
    for (size_t i = 0; i < trials; ++i)
        fired += chaosSiteOther.fire() ? 1 : 0;
    // 0.1 ± a wide margin: this guards gross miscalibration (e.g.
    // threshold math off by 2x), not the distribution's quality.
    EXPECT_GT(fired, trials / 20);   // > 0.05
    EXPECT_LT(fired, trials * 3 / 20); // < 0.15
}

TEST_F(ChaosSchedule, OneShotTriggersStillFireUnderChaos)
{
    // Chaos layers under the deterministic one-shot triggers: arming
    // a site keeps its guarantee even with p = 0.
    core::fault::chaos(99, 0.0);
    core::fault::arm("test.chaos.other", 2);
    EXPECT_FALSE(chaosSiteOther.fire());
    EXPECT_TRUE(chaosSiteOther.fire());
    EXPECT_FALSE(chaosSiteOther.fire());
}

TEST_F(ChaosSchedule, ChaosOffRestoresQuiet)
{
    core::fault::chaos(5, 1.0);
    EXPECT_TRUE(chaosSiteOther.fire());
    core::fault::chaosOff();
    EXPECT_FALSE(core::fault::chaosEnabled());
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(chaosSiteOther.fire());
}

} // namespace
} // namespace pgb
