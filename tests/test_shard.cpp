/**
 * @file
 * Shard-set tests (DESIGN.md §13): `pgb shard` artifacts, the .pgbs
 * manifest round trip, component→shard routing, the LRU/pinned-refcount
 * shard cache, and — the load-bearing guarantee — byte-identity of
 * sharded mapping with the monolithic golden path, including under a
 * cache budget small enough to force evictions mid-run.
 *
 * The ctest shard_threads_{1,8} lanes rerun this file at both pool
 * widths; the golden digests here are the same files the monolithic
 * Golden suite pins.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/logging.hpp"
#include "core/md5.hpp"
#include "index/gbwt.hpp"
#include "obs/metrics.hpp"
#include "pipeline/context.hpp"
#include "pipeline/mapper.hpp"
#include "seq/read_sim.hpp"
#include "store/manifest.hpp"
#include "store/shard_build.hpp"
#include "synth/pangenome_sim.hpp"
#include "temp_path.hpp"

namespace {

using namespace pgb;

constexpr uint64_t kMiB = 1ull << 20;

/**
 * Append @p src to @p dst as a fresh connected component: nodes keep
 * their relative order (shifted by dst's node count), edges replay the
 * oriented successor lists (addEdge dedupes and mirrors, exactly as
 * `pgb shard` replays them back out), and paths are renamed under
 * @p tag to stay unique in the union.
 */
void
appendChromosome(graph::PanGraph &dst, const synth::Pangenome &src,
                 const std::string &tag)
{
    const auto &g = src.graph;
    const auto base = static_cast<uint32_t>(dst.nodeCount());
    for (uint32_t n = 0; n < g.nodeCount(); ++n)
        dst.addNode(g.nodeSequence(n));
    for (uint32_t n = 0; n < g.nodeCount(); ++n) {
        for (const bool reverse : {false, true}) {
            const graph::Handle from(n, reverse);
            for (const graph::Handle to : g.successors(from))
                dst.addEdge(graph::Handle(base + n, reverse),
                            graph::Handle(base + to.node(),
                                          to.isReverse()));
        }
    }
    for (graph::PathId p = 0; p < g.pathCount(); ++p) {
        std::vector<graph::Handle> steps;
        steps.reserve(g.pathSteps(p).size());
        for (const graph::Handle s : g.pathSteps(p))
            steps.emplace_back(base + s.node(), s.isReverse());
        dst.addPath(tag + "." + g.pathName(p), std::move(steps));
    }
}

/**
 * A disjoint union of @p chromosomes simulated pangenomes — the
 * beyond-RAM shape `pgb shard` partitions — plus reads drawn from
 * every chromosome's haplotypes.
 */
struct UnionFixture
{
    graph::PanGraph graph;
    std::vector<seq::Sequence> reads;
    size_t chromosomes;

    UnionFixture(size_t chromosomes, size_t bases_per_chromosome,
                 size_t reads_per_chromosome)
        : chromosomes(chromosomes)
    {
        for (size_t c = 0; c < chromosomes; ++c) {
            synth::PangenomeConfig config = synth::mGraphLikeConfig(
                bases_per_chromosome, 0xc0 + c);
            config.haplotypeCount = 2;
            const auto pangenome = synth::simulatePangenome(config);
            appendChromosome(graph, pangenome,
                             "chr" + std::to_string(c));
            seq::ReadSimulator sim(seq::ReadProfile::shortRead(),
                                   0x5eed00 + c);
            for (size_t r = 0; r < reads_per_chromosome; ++r) {
                auto read = sim.sample(
                    pangenome.haplotypes[r %
                                         pangenome.haplotypes.size()]);
                read.read.setName("c" + std::to_string(c) + "_r" +
                                  std::to_string(r));
                reads.push_back(std::move(read.read));
            }
        }
    }
};

/** Small union: multi-shard identity and routing, cheap to index. */
const UnionFixture &
smallUnion()
{
    static UnionFixture instance(3, 8000, 8);
    return instance;
}

/** Big union: shards large enough that a MiB-granular cache budget
 *  can hold one shard but not two (the eviction/LRU tests assert that
 *  precondition from the manifest's own byte counts). */
const UnionFixture &
bigUnion()
{
    static UnionFixture instance(3, 200000, 5);
    return instance;
}

/** Shard @p graph into TempDir under @p stem; one shard per component
 *  unless @p target_mb groups them. */
store::ShardManifest
shardInto(const graph::PanGraph &graph, const std::string &stem,
          const std::string &seeder = "minimizer",
          uint64_t target_mb = 0)
{
    store::ShardBuildParams params;
    params.seeder = seeder;
    params.targetShardMb = target_mb;
    params.threads = 4;
    const std::string path = test::testTempPath(stem + ".pgbs");
    return store::buildShardSet(graph, params, path);
}

std::shared_ptr<const pipeline::MappingContext>
shardContext(const std::string &manifest_path,
             pipeline::SeederKind kind, uint64_t cache_mb)
{
    return pipeline::MappingContext::Builder()
        .fromManifest(manifest_path)
        .seeder(kind)
        .shardCacheMb(cache_mb)
        .build();
}

/** Per-read mapping records (serial mapOne for a stable order) —
 *  byte-compatible with test_golden.cpp's digest format. */
std::string
mappingDigest(
    const std::shared_ptr<const pipeline::MappingContext> &context,
    pipeline::ToolProfile tool, const std::vector<seq::Sequence> &reads)
{
    auto config = pipeline::MapperConfig::forTool(tool);
    config.threads = 1;
    const pipeline::Seq2GraphMapper mapper(context, config);
    pipeline::MappingStats stats;
    std::ostringstream out;
    for (const seq::Sequence &read : reads) {
        const auto mapping = mapper.mapOne(read, stats);
        out << read.name() << '\t' << mapping.mapped << '\t'
            << mapping.node << '\t' << mapping.score << '\t'
            << mapping.reverse << '\n';
    }
    return core::md5Hex(out.str());
}

/** Compare @p digest against the checked-in golden (owned and
 *  regenerated by test_golden.cpp; this suite only reads it). */
void
expectGolden(const char *file, const std::string &digest)
{
    if (std::getenv("PGB_GOLDEN_REGEN") != nullptr)
        GTEST_SKIP() << "goldens are being regenerated by the Golden "
                        "suite; skipping the shard-side comparison";
    const std::string path = std::string(PGB_GOLDEN_DIR) + "/" + file;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden " << path;
    std::string expected;
    in >> expected;
    EXPECT_EQ(digest, expected)
        << file << ": sharded mapping diverged from the monolithic "
        << "golden path — the byte-identity guarantee of DESIGN.md "
        << "§13 is broken.";
}

/** Global node id of the first node routed to @p shard. */
uint32_t
nodeInShard(const store::ShardManifest &manifest, uint32_t shard)
{
    for (const store::ComponentEntry &component : manifest.components) {
        if (component.shard == shard)
            return component.ranges.front().first;
    }
    ADD_FAILURE() << "no component routed to shard " << shard;
    return 0;
}

// ---------------------------------------------------------------------
// Manifest and router
// ---------------------------------------------------------------------

TEST(Shard, BuildPartitionsByComponentAndRoundTripsTheManifest)
{
    const auto manifest =
        shardInto(smallUnion().graph, "shard_small_roundtrip");
    EXPECT_EQ(manifest.components.size(), smallUnion().chromosomes);
    EXPECT_EQ(manifest.shards.size(), smallUnion().chromosomes);
    EXPECT_EQ(manifest.nodeCount, smallUnion().graph.nodeCount());
    EXPECT_EQ(manifest.pathCount, smallUnion().graph.pathCount());
    EXPECT_EQ(manifest.seeder, "minimizer");

    const auto loaded = store::ShardManifest::load(manifest.path);
    EXPECT_EQ(loaded.nodeCount, manifest.nodeCount);
    EXPECT_EQ(loaded.edgeCount, manifest.edgeCount);
    EXPECT_EQ(loaded.totalBases, manifest.totalBases);
    EXPECT_EQ(loaded.k, manifest.k);
    EXPECT_EQ(loaded.w, manifest.w);
    EXPECT_EQ(loaded.hasGbwt, manifest.hasGbwt);
    ASSERT_EQ(loaded.shards.size(), manifest.shards.size());
    for (size_t s = 0; s < manifest.shards.size(); ++s) {
        EXPECT_EQ(loaded.shards[s].file, manifest.shards[s].file);
        EXPECT_EQ(loaded.shards[s].bytes, manifest.shards[s].bytes);
        EXPECT_EQ(loaded.shards[s].digest, manifest.shards[s].digest);
        EXPECT_EQ(loaded.shards[s].nodes, manifest.shards[s].nodes);
    }
    ASSERT_EQ(loaded.components.size(), manifest.components.size());
    for (size_t c = 0; c < manifest.components.size(); ++c) {
        EXPECT_EQ(loaded.components[c].shard,
                  manifest.components[c].shard);
        EXPECT_EQ(loaded.components[c].ranges,
                  manifest.components[c].ranges);
    }
}

TEST(Shard, RouterRoundTripsEveryNode)
{
    const auto manifest =
        shardInto(smallUnion().graph, "shard_small_router");
    const store::ShardRouter router(manifest);
    std::vector<uint64_t> per_shard(manifest.shards.size(), 0);
    for (uint32_t node = 0; node < manifest.nodeCount; ++node) {
        const auto route = router.route(node);
        ASSERT_LT(route.shard, manifest.shards.size());
        EXPECT_EQ(router.globalOf(route.shard, route.local), node);
        ++per_shard[route.shard];
    }
    for (size_t s = 0; s < manifest.shards.size(); ++s)
        EXPECT_EQ(per_shard[s], manifest.shards[s].nodes) << s;
}

TEST(Shard, PathlessGraphRefusesToShard)
{
    graph::PanGraph pathless;
    pathless.addNode(seq::Sequence("", "ACGTACGTACGTACGT"));
    const std::string path = test::testTempPath("pathless.pgbs");
    try {
        store::buildShardSet(pathless, {}, path);
        FAIL() << "expected FatalError";
    } catch (const core::FatalError &error) {
        EXPECT_STREQ(
            error.what(),
            ("fatal: " + path +
             ": cannot shard a pathless pangenome; shard sets are "
             "seeded along embedded paths (add P lines or use the "
             "monolithic `pgb index`)")
                .c_str());
    }
}

TEST(Shard, MemSeederAgainstMinimizerSetIsFatal)
{
    const auto manifest =
        shardInto(smallUnion().graph, "shard_small_no_fm");
    try {
        shardContext(manifest.path, pipeline::SeederKind::kMem, 0);
        FAIL() << "expected FatalError";
    } catch (const core::FatalError &error) {
        EXPECT_STREQ(
            error.what(),
            ("fatal: " + manifest.path +
             ": shard set has no FM-index sections; rebuild it with "
             "`pgb shard --seeder=mem` to map with --seeder=mem")
                .c_str());
    }
}

// ---------------------------------------------------------------------
// Byte-identity with the monolith
// ---------------------------------------------------------------------

TEST(Shard, MinimizerShardedMatchesMonolithAcrossComponents)
{
    const auto manifest =
        shardInto(smallUnion().graph, "shard_small_min");
    const auto sharded = shardContext(
        manifest.path, pipeline::SeederKind::kMinimizer, 0);
    ASSERT_STREQ(sharded->source().kindName(), "shard-set");
    ASSERT_GT(sharded->source().shardCount(), 1u);
    const auto monolith = pipeline::MappingContext::Builder()
                              .fromGraph(smallUnion().graph)
                              .buildGbwt(true)
                              .build();
    for (const auto tool : {pipeline::ToolProfile::kVgMap,
                            pipeline::ToolProfile::kVgGiraffe}) {
        EXPECT_EQ(
            mappingDigest(sharded, tool, smallUnion().reads),
            mappingDigest(monolith, tool, smallUnion().reads));
    }
}

TEST(Shard, MemShardedMatchesMonolithAcrossComponents)
{
    const auto manifest =
        shardInto(smallUnion().graph, "shard_small_mem", "mem");
    const auto sharded =
        shardContext(manifest.path, pipeline::SeederKind::kMem, 0);
    const auto monolith = pipeline::MappingContext::Builder()
                              .fromGraph(smallUnion().graph)
                              .seeder(pipeline::SeederKind::kMem)
                              .build();
    EXPECT_EQ(mappingDigest(sharded, pipeline::ToolProfile::kVgMap,
                            smallUnion().reads),
              mappingDigest(monolith, pipeline::ToolProfile::kVgMap,
                            smallUnion().reads));
}

TEST(Shard, GwfaTracesFromAShardSetMatchTheMonolith)
{
    // Trace capture seeds through the context's source, so on a shard
    // set it sees exactly the monolith's anchors, subgraphs and
    // queries (no monolith-only index is involved).
    static const UnionFixture fixture(4, 8000, 8);
    const auto manifest = shardInto(fixture.graph, "shard_gwfa_traces");
    ASSERT_EQ(manifest.shards.size(), 4u);
    const auto sharded = shardContext(
        manifest.path, pipeline::SeederKind::kMinimizer, 0);
    const auto monolith = pipeline::MappingContext::Builder()
                              .fromGraph(fixture.graph)
                              .build();
    const auto config =
        pipeline::MapperConfig::forTool(pipeline::ToolProfile::kMinigraph);
    const auto want = pipeline::Seq2GraphMapper(monolith, config)
                          .captureGwfaTraces(fixture.reads, 64);
    const auto got = pipeline::Seq2GraphMapper(sharded, config)
                         .captureGwfaTraces(fixture.reads, 64);
    ASSERT_GT(want.size(), 0u);
    ASSERT_EQ(got.size(), want.size());
    for (size_t t = 0; t < want.size(); ++t) {
        const graph::LocalGraph &a = got[t].subgraph;
        const graph::LocalGraph &b = want[t].subgraph;
        EXPECT_EQ(got[t].query, want[t].query) << "trace " << t;
        EXPECT_EQ(got[t].startNode, want[t].startNode) << "trace " << t;
        ASSERT_EQ(a.nodeCount(), b.nodeCount()) << "trace " << t;
        for (uint32_t v = 0; v < a.nodeCount(); ++v) {
            EXPECT_TRUE(std::ranges::equal(a.nodeSeq(v), b.nodeSeq(v)));
            EXPECT_TRUE(
                std::ranges::equal(a.successors(v), b.successors(v)));
        }
    }
}

/**
 * The golden fixture from test_golden.cpp, reproduced bit-exactly
 * (same configs, seeds, and read names), so the sharded digests can be
 * compared against the same checked-in tests/golden/*.md5 files the
 * monolithic path pins.
 */
struct GoldenFixture
{
    synth::Pangenome pangenome;
    std::vector<seq::Sequence> shortReads;
    std::vector<seq::Sequence> longReads;

    GoldenFixture()
    {
        synth::PangenomeConfig config = synth::mGraphLikeConfig(12000, 7);
        config.haplotypeCount = 4;
        pangenome = synth::simulatePangenome(config);
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
golden()
{
    static GoldenFixture instance;
    return instance;
}

TEST(Shard, GoldenShortReadsViaShardSetMatchGolden)
{
    const auto manifest =
        shardInto(golden().pangenome.graph, "shard_golden_min");
    const auto context = shardContext(
        manifest.path, pipeline::SeederKind::kMinimizer, 0);
    expectGolden("short_reads_vgmap.md5",
                 mappingDigest(context, pipeline::ToolProfile::kVgMap,
                               golden().shortReads));
}

TEST(Shard, GoldenLongReadsViaShardSetMatchGolden)
{
    const auto manifest =
        shardInto(golden().pangenome.graph, "shard_golden_min_long");
    const auto context = shardContext(
        manifest.path, pipeline::SeederKind::kMinimizer, 0);
    expectGolden("long_reads_minigraph.md5",
                 mappingDigest(context,
                               pipeline::ToolProfile::kMinigraph,
                               golden().longReads));
}

TEST(Shard, GoldenShortReadsMemViaShardSetMatchGolden)
{
    const auto manifest =
        shardInto(golden().pangenome.graph, "shard_golden_mem", "mem");
    const auto context =
        shardContext(manifest.path, pipeline::SeederKind::kMem, 0);
    expectGolden("short_reads_vgmap_mem.md5",
                 mappingDigest(context, pipeline::ToolProfile::kVgMap,
                               golden().shortReads));
}

TEST(Shard, GoldenLongReadsMemViaShardSetMatchGolden)
{
    const auto manifest = shardInto(golden().pangenome.graph,
                                    "shard_golden_mem_long", "mem");
    const auto context =
        shardContext(manifest.path, pipeline::SeederKind::kMem, 0);
    expectGolden("long_reads_minigraph_mem.md5",
                 mappingDigest(context,
                               pipeline::ToolProfile::kMinigraph,
                               golden().longReads));
}

// ---------------------------------------------------------------------
// Shard cache: LRU, pinning, thrash
// ---------------------------------------------------------------------

/** The big-union manifest, built once (three ~MiB-scale shards). */
const store::ShardManifest &
bigManifest()
{
    static store::ShardManifest manifest =
        shardInto(bigUnion().graph, "shard_big");
    return manifest;
}

/** Smallest MiB budget that holds the largest single shard. The LRU
 *  and eviction tests assert (from the manifest's own byte counts)
 *  that this budget cannot hold two shards at once — if the fixture
 *  ever shrinks below that, grow bigUnion(). */
uint64_t
oneShardBudgetMb(const store::ShardManifest &manifest)
{
    uint64_t max_bytes = 0;
    for (const store::ShardEntry &shard : manifest.shards)
        max_bytes = std::max(max_bytes, shard.bytes);
    return (max_bytes + kMiB - 1) / kMiB;
}

TEST(Shard, FixtureShardsOverflowAOneShardBudgetPairwise)
{
    const auto &manifest = bigManifest();
    ASSERT_EQ(manifest.shards.size(), 3u);
    const uint64_t budget = oneShardBudgetMb(manifest) * kMiB;
    for (size_t a = 0; a < manifest.shards.size(); ++a) {
        for (size_t b = a + 1; b < manifest.shards.size(); ++b) {
            ASSERT_GT(manifest.shards[a].bytes +
                          manifest.shards[b].bytes,
                      budget)
                << "shards " << a << "+" << b << " fit a one-shard "
                << "budget; grow bigUnion() so the eviction tests "
                << "can observe evictions";
        }
    }
}

TEST(Shard, LruEvictsLeastRecentlyUsedFirst)
{
    const auto &manifest = bigManifest();
    // Budget for the largest pair: any two shards fit, three never do.
    uint64_t pair_bytes = 0;
    for (size_t a = 0; a < manifest.shards.size(); ++a)
        for (size_t b = a + 1; b < manifest.shards.size(); ++b)
            pair_bytes = std::max(pair_bytes,
                                  manifest.shards[a].bytes +
                                      manifest.shards[b].bytes);
    const uint64_t budget_mb = (pair_bytes + kMiB - 1) / kMiB;
    uint64_t total = 0;
    for (const store::ShardEntry &shard : manifest.shards)
        total += shard.bytes;
    ASSERT_GT(total, budget_mb * kMiB)
        << "three shards fit a two-shard budget; grow bigUnion()";

    const auto context = shardContext(
        manifest.path, pipeline::SeederKind::kMinimizer, budget_mb);
    const auto &source = context->source();
    const auto touch = [&](uint32_t shard) {
        graph::LocalGraph sub;
        source.extractSubgraph(
            graph::Handle(nodeInShard(manifest, shard), false), 32, sub);
    };
    const auto before = obs::snapshot();
    touch(0);
    touch(1);
    touch(0); // refresh shard 0: shard 1 is now the LRU
    touch(2); // overflow: must evict shard 1, not shard 0
    const auto after = obs::snapshot();
    // Provider entries surface with the counters (one flat object).
    EXPECT_EQ(after.counter("shard.0.resident"), 1u);
    EXPECT_EQ(after.counter("shard.1.resident"), 0u);
    EXPECT_EQ(after.counter("shard.2.resident"), 1u);
    EXPECT_EQ(after.counter("shard.loads") - before.counter("shard.loads"),
              3u);
    EXPECT_EQ(after.counter("shard.evictions") -
                  before.counter("shard.evictions"),
              1u);
    EXPECT_GE(after.counter("shard.hits") - before.counter("shard.hits"),
              1u); // the refresh of shard 0
}

TEST(Shard, EvictionNeverUnmapsAPinnedShard)
{
    const auto &manifest = bigManifest();
    const uint64_t budget_mb = oneShardBudgetMb(manifest);
    const auto context = shardContext(
        manifest.path, pipeline::SeederKind::kMinimizer, budget_mb);
    const auto &source = context->source();

    const uint32_t pinned_node = nodeInShard(manifest, 0);
    ASSERT_TRUE(source.hasGbwt());
    {
        // The walk pins shard 0 for as long as it is held — the
        // in-flight-batch shape.
        const pipeline::GbwtWalk walk = source.gbwtWalkAt(pinned_node);
        ASSERT_NE(walk.gbwt, nullptr);
        for (const uint32_t other : {1u, 2u}) {
            graph::LocalGraph sub;
            source.extractSubgraph(
                graph::Handle(nodeInShard(manifest, other), false), 32,
                sub);
        }
        // Shards 1 and 2 overflowed the budget, but shard 0 is pinned:
        // it must still be resident, and the pinned GBWT must still be
        // readable (a use-after-unmap here dies, not just fails).
        const auto during = obs::snapshot();
        EXPECT_EQ(during.counter("shard.0.resident"), 1u);
        EXPECT_GT(during.gauge("shard.resident_bytes"),
                  static_cast<int64_t>(budget_mb * kMiB));
        EXPECT_GT(walk.gbwt->fullRange(walk.start).size(), 0u);
    }
    // Pin released: the next cache touch may now evict shard 0.
    const auto before = obs::snapshot();
    graph::LocalGraph sub;
    source.extractSubgraph(
        graph::Handle(nodeInShard(manifest, 1), false), 32, sub);
    const auto after = obs::snapshot();
    EXPECT_GE(after.counter("shard.evictions") -
                  before.counter("shard.evictions"),
              1u);
    EXPECT_EQ(after.counter("shard.0.resident"), 0u);
}

TEST(Shard, OneShardBudgetThrashesButMapsIdentically)
{
    // The acceptance run: a cache budget of one shard forces evictions
    // mid-run (asserted via shard.evictions), and the mapping digest
    // still matches the monolith byte for byte.
    const auto &manifest = bigManifest();
    const uint64_t budget_mb = oneShardBudgetMb(manifest);
    const auto sharded = shardContext(
        manifest.path, pipeline::SeederKind::kMinimizer, budget_mb);
    const auto monolith = pipeline::MappingContext::Builder()
                              .fromGraph(bigUnion().graph)
                              .buildGbwt(true)
                              .build();
    const auto before = obs::snapshot();
    const std::string sharded_digest = mappingDigest(
        sharded, pipeline::ToolProfile::kVgMap, bigUnion().reads);
    const auto after = obs::snapshot();
    EXPECT_GE(after.counter("shard.evictions") -
                  before.counter("shard.evictions"),
              1u)
        << "the one-shard budget never evicted: the thrash run is not "
        << "exercising the cache";
    EXPECT_EQ(sharded_digest,
              mappingDigest(monolith, pipeline::ToolProfile::kVgMap,
                            bigUnion().reads));
}

TEST(Shard, MapBatchUnderThrashMatchesMonolith)
{
    // Worker threads pin and release shards concurrently while the
    // cache evicts under a one-shard budget; per-read results must
    // still match the monolith exactly.
    const auto &manifest = bigManifest();
    const auto sharded =
        shardContext(manifest.path, pipeline::SeederKind::kMinimizer,
                     oneShardBudgetMb(manifest));
    const auto monolith = pipeline::MappingContext::Builder()
                              .fromGraph(bigUnion().graph)
                              .buildGbwt(true)
                              .build();
    auto config =
        pipeline::MapperConfig::forTool(pipeline::ToolProfile::kVgMap);
    config.threads = 4;
    std::vector<pipeline::ReadMapping> a, b;
    pipeline::mapBatch(*sharded, config, bigUnion().reads, a);
    pipeline::mapBatch(*monolith, config, bigUnion().reads, b);
    ASSERT_EQ(a.size(), b.size());
    for (size_t r = 0; r < a.size(); ++r) {
        EXPECT_EQ(a[r].mapped, b[r].mapped) << r;
        EXPECT_EQ(a[r].node, b[r].node) << r;
        EXPECT_EQ(a[r].score, b[r].score) << r;
        EXPECT_EQ(a[r].reverse, b[r].reverse) << r;
    }
}

} // namespace
