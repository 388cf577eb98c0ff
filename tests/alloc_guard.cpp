/**
 * @file
 * Allocation guards for the seed, filter and align stages: once warm,
 * opening and closing a per-task pin set, minimizer seeding, giraffe's
 * GBWT walk, subgraph extraction, and GSSW alignment into reused
 * buffers perform no heap allocation.
 *
 * This file replaces the global operator new/delete with counting
 * versions, so it builds as its own executable (pgb_alloc_guard, ctest
 * `alloc_guard`) instead of joining pgb_tests. Only allocations made
 * by the thread that armed the counter are counted, so idle pool
 * workers cannot perturb the result.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "align/gssw.hpp"
#include "core/rng.hpp"
#include "index/gbwt.hpp"
#include "graph/local_graph.hpp"
#include "pipeline/context.hpp"
#include "store/shard_build.hpp"
#include "synth/pangenome_sim.hpp"
#include "temp_path.hpp"

namespace {

thread_local bool tCounting = false;
uint64_t gAllocations = 0;

void *
countedAlloc(std::size_t size, std::size_t align)
{
    if (tCounting)
        ++gAllocations;
    if (size == 0)
        size = 1;
    void *p = align <= alignof(std::max_align_t)
        ? std::malloc(size)
        : std::aligned_alloc(align, (size + align - 1) / align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size, 0); }
void *operator new[](std::size_t size) { return countedAlloc(size, 0); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace pgb;

/** Heap allocations the calling thread makes while running @p body. */
template <typename Body>
uint64_t
allocationsDuring(Body &&body)
{
    const uint64_t before = gAllocations;
    tCounting = true;
    body();
    tCounting = false;
    return gAllocations - before;
}

/** Two simulated chromosomes as two connected components. */
struct Fixture
{
    graph::PanGraph graph;
    std::vector<seq::Sequence> references;

    Fixture()
    {
        for (uint64_t c = 0; c < 2; ++c) {
            synth::PangenomeConfig config =
                synth::mGraphLikeConfig(20000, 0xa110c + c);
            config.haplotypeCount = 3;
            const auto pan = synth::simulatePangenome(config);
            const auto base = static_cast<uint32_t>(graph.nodeCount());
            for (uint32_t n = 0; n < pan.graph.nodeCount(); ++n)
                graph.addNode(pan.graph.nodeSequence(n));
            for (uint32_t n = 0; n < pan.graph.nodeCount(); ++n) {
                for (const bool reverse : {false, true}) {
                    for (const graph::Handle to :
                         pan.graph.successors(graph::Handle(n, reverse)))
                        graph.addEdge(graph::Handle(base + n, reverse),
                                      graph::Handle(base + to.node(),
                                                    to.isReverse()));
                }
            }
            for (graph::PathId p = 0; p < pan.graph.pathCount(); ++p) {
                std::vector<graph::Handle> steps;
                for (const graph::Handle s : pan.graph.pathSteps(p))
                    steps.emplace_back(base + s.node(), s.isReverse());
                graph.addPath(pan.graph.pathName(p) + ".c" +
                                  std::to_string(c),
                              std::move(steps));
            }
            references.push_back(pan.reference);
        }
    }
};

const Fixture &
fixture()
{
    static const Fixture instance;
    return instance;
}

/** One align-stage task: where to extract and what to align. */
struct Task
{
    graph::Handle start;
    size_t radius;
    std::vector<uint8_t> query;
};

std::vector<Task>
makeTasks(const Fixture &f)
{
    core::Xoshiro256StarStar rng(0xa110c);
    std::vector<Task> tasks;
    for (int t = 0; t < 50; ++t) {
        const auto &reference = f.references[t % 2].codes();
        const size_t at = rng.below(reference.size() - 150);
        Task task;
        task.start = graph::Handle(
            static_cast<uint32_t>(rng.below(f.graph.nodeCount())),
            rng.below(2) == 1);
        task.radius = 100 + rng.below(200);
        task.query.assign(reference.begin() + static_cast<ptrdiff_t>(at),
                          reference.begin() +
                              static_cast<ptrdiff_t>(at + 150));
        tasks.push_back(std::move(task));
    }
    return tasks;
}

/**
 * One warm-up pass over the tasks brings every reused buffer (and the
 * thread's pin-set storage) to its high-water size; the next 1,000
 * tasks, each opening its own pin set as a mapped read does, must then
 * allocate nothing.
 */
void
expectAllocationFree(const pipeline::GraphSource &source,
                     bool keep_matrices)
{
    const std::vector<Task> tasks = makeTasks(fixture());
    const auto params = align::ScoreParams::mappingDefaults();
    align::GsswOptions options;
    options.keepMatrices = keep_matrices;
    graph::LocalGraph subgraph;
    align::GsswResult result;
    uint64_t cells = 0;
    auto run = [&](const Task &task) {
        pipeline::PinSet pins(source);
        uint32_t origin = 0;
        source.extractSubgraph(pins, task.start, task.radius, subgraph,
                               &origin);
        align::gsswAlignInto(subgraph, task.query, params, options,
                             result);
        cells += result.cellsComputed;
    };
    for (const Task &task : tasks)
        run(task);
    const uint64_t allocations = allocationsDuring([&] {
        for (size_t i = 0; i < 1000; ++i)
            run(tasks[i % tasks.size()]);
    });
    EXPECT_EQ(allocations, 0u) << source.kindName() << " keepMatrices="
                               << keep_matrices;
    EXPECT_GT(cells, 0u);
    EXPECT_EQ(result.hasMatrices(), keep_matrices);
}

TEST(AllocGuard, CounterSeesAllocations)
{
    // The guard is only meaningful if the replacement is linked in.
    const uint64_t allocations = allocationsDuring([] {
        void *volatile p = ::operator new(64);
        ::operator delete(p);
    });
    EXPECT_EQ(allocations, 1u);
}

TEST(AllocGuard, MonolithExtractAndGsswAllocateNothing)
{
    const auto context = pipeline::MappingContext::Builder()
                             .fromGraph(fixture().graph)
                             .build();
    expectAllocationFree(context->source(), true);
    expectAllocationFree(context->source(), false);
}

/**
 * Giraffe's filter walk as the mapper runs it: a pin set per read, the
 * anchor's GBWT from gbwtWalkAt(), and walkBest() over up to 16 steps.
 * After one warm pass, 1,000 walks must allocate nothing.
 */
void
expectWalksAllocationFree(const pipeline::GraphSource &source)
{
    ASSERT_TRUE(source.hasGbwt());
    core::Xoshiro256StarStar rng(0x6b3);
    std::vector<uint32_t> starts;
    for (int s = 0; s < 50; ++s)
        starts.push_back(static_cast<uint32_t>(
            rng.below(fixture().graph.nodeCount())));
    size_t steps = 0;
    auto run = [&](uint32_t node) {
        pipeline::PinSet pins(source);
        const pipeline::GbwtWalk walk = source.gbwtWalkAt(pins, node);
        if (walk.gbwt != nullptr)
            steps += walk.gbwt->walkBest(walk.start, 16).steps;
    };
    for (uint32_t node : starts)
        run(node);
    const uint64_t allocations = allocationsDuring([&] {
        for (size_t i = 0; i < 1000; ++i)
            run(starts[i % starts.size()]);
    });
    EXPECT_EQ(allocations, 0u) << source.kindName();
    EXPECT_GT(steps, 0u);
}

TEST(AllocGuard, GbwtWalksAllocateNothing)
{
    const auto monolith = pipeline::MappingContext::Builder()
                              .fromGraph(fixture().graph)
                              .buildGbwt(true)
                              .build();
    expectWalksAllocationFree(monolith->source());

    store::ShardBuildParams params;
    params.targetShardMb = 0; // one shard per component
    const std::string path = test::testTempPath("alloc_guard_gbwt.pgbs");
    const auto manifest =
        store::buildShardSet(fixture().graph, params, path);
    ASSERT_EQ(manifest.shards.size(), 2u);
    const auto shards = pipeline::MappingContext::Builder()
                            .fromManifest(path)
                            .build();
    expectWalksAllocationFree(shards->source());
}

/**
 * The seed stage as the mapper runs it: a pin set per read and the
 * minimizer seeder's collect() into a reused anchor vector. After one
 * warm pass, 1,000 reads must allocate nothing.
 */
void
expectSeedingAllocationFree(const pipeline::MappingContext &context)
{
    ASSERT_EQ(context.seeder().kind(), pipeline::SeederKind::kMinimizer);
    core::Xoshiro256StarStar rng(0x5eed);
    std::vector<seq::Sequence> reads;
    for (int r = 0; r < 50; ++r) {
        const auto &reference = fixture().references[r % 2].codes();
        const size_t at = rng.below(reference.size() - 150);
        reads.emplace_back(std::vector<uint8_t>(
            reference.begin() + static_cast<ptrdiff_t>(at),
            reference.begin() + static_cast<ptrdiff_t>(at + 150)));
    }
    std::vector<pipeline::Anchor> anchors;
    size_t seeded = 0;
    auto run = [&](const seq::Sequence &read) {
        pipeline::PinSet pins(context.source());
        context.seeder().collect(pins, read, anchors);
        seeded += anchors.size();
    };
    for (const seq::Sequence &read : reads)
        run(read);
    const uint64_t allocations = allocationsDuring([&] {
        for (size_t i = 0; i < 1000; ++i)
            run(reads[i % reads.size()]);
    });
    EXPECT_EQ(allocations, 0u) << context.source().kindName();
    EXPECT_GT(seeded, 0u);
}

TEST(AllocGuard, MinimizerSeedingAllocatesNothing)
{
    const auto monolith = pipeline::MappingContext::Builder()
                              .fromGraph(fixture().graph)
                              .build();
    expectSeedingAllocationFree(*monolith);

    store::ShardBuildParams params;
    params.targetShardMb = 0; // one shard per component
    const std::string path = test::testTempPath("alloc_guard_seed.pgbs");
    const auto manifest =
        store::buildShardSet(fixture().graph, params, path);
    ASSERT_EQ(manifest.shards.size(), 2u);
    const auto shards = pipeline::MappingContext::Builder()
                            .fromManifest(path)
                            .build();
    expectSeedingAllocationFree(*shards);
}

TEST(AllocGuard, ShardSetExtractAndGsswAllocateNothing)
{
    store::ShardBuildParams params;
    params.targetShardMb = 0; // one shard per component
    const std::string path = test::testTempPath("alloc_guard.pgbs");
    const auto manifest =
        store::buildShardSet(fixture().graph, params, path);
    ASSERT_EQ(manifest.shards.size(), 2u);
    const auto context = pipeline::MappingContext::Builder()
                             .fromManifest(path)
                             .build();
    expectAllocationFree(context->source(), true);
    expectAllocationFree(context->source(), false);
}

} // namespace
