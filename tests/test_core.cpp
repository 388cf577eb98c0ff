/**
 * @file
 * Unit and property tests for src/core: RNG, bit vectors, interval
 * tree, union-find, sorting, arena, stats, thread pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>
#include <thread>

#include "core/arena.hpp"
#include "core/bitvector.hpp"
#include "core/interval_tree.hpp"
#include "core/logging.hpp"
#include "core/rng.hpp"
#include "core/sort.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "core/union_find.hpp"
#include "obs/span.hpp"

namespace pgb::core {
namespace {

// ---------------------------------------------------------------- RNG

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowCoversSmallRangeUniformly)
{
    Rng rng(11);
    std::array<int, 4> histogram{};
    for (int i = 0; i < 40000; ++i)
        ++histogram[rng.below(4)];
    for (int count : histogram) {
        EXPECT_GT(count, 9000);
        EXPECT_LT(count, 11000);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(13);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ZipfStaysInRangeAndFavorsSmall)
{
    Rng rng(17);
    uint64_t small = 0;
    for (int i = 0; i < 10000; ++i) {
        const uint64_t z = rng.zipf(1000, 0.99);
        ASSERT_GE(z, 1u);
        ASSERT_LE(z, 1000u);
        small += z <= 10 ? 1 : 0;
    }
    // A Zipf-like draw must be heavily biased toward small values.
    EXPECT_GT(small, 3000u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(19);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.between(-5, 5);
        ASSERT_GE(v, -5);
        ASSERT_LE(v, 5);
    }
}

TEST(Rng, ForStreamIndependence)
{
    Rng a = Rng::forStream(42, 0);
    Rng b = Rng::forStream(42, 1);
    EXPECT_NE(a(), b());
}

// ---------------------------------------------------------- BitVector

TEST(BitVector, SetGetClear)
{
    BitVector bits(130);
    EXPECT_EQ(bits.size(), 130u);
    bits.set(0);
    bits.set(64);
    bits.set(129);
    EXPECT_TRUE(bits.get(0));
    EXPECT_TRUE(bits.get(64));
    EXPECT_TRUE(bits.get(129));
    EXPECT_FALSE(bits.get(1));
    bits.clear(64);
    EXPECT_FALSE(bits.get(64));
    EXPECT_EQ(bits.count(), 2u);
}

TEST(BitVector, RankMatchesBruteForce)
{
    Rng rng(3);
    BitVector bits(1000);
    std::vector<bool> mirror(1000, false);
    for (int i = 0; i < 300; ++i) {
        const size_t pos = rng.below(1000);
        bits.set(pos);
        mirror[pos] = true;
    }
    bits.buildRank();
    size_t running = 0;
    for (size_t i = 0; i < 1000; ++i) {
        EXPECT_EQ(bits.rank1(i), running) << "at " << i;
        running += mirror[i] ? 1 : 0;
    }
}

TEST(BitVector, FindNextSet)
{
    BitVector bits(200);
    bits.set(5);
    bits.set(70);
    bits.set(199);
    EXPECT_EQ(bits.findNextSet(0), 5u);
    EXPECT_EQ(bits.findNextSet(5), 5u);
    EXPECT_EQ(bits.findNextSet(6), 70u);
    EXPECT_EQ(bits.findNextSet(71), 199u);
    EXPECT_EQ(bits.findNextSet(200), 200u);
}

TEST(AtomicBitVector, SetIfClearReportsFirstOnly)
{
    AtomicBitVector bits(100);
    EXPECT_TRUE(bits.setIfClear(42));
    EXPECT_FALSE(bits.setIfClear(42));
    EXPECT_TRUE(bits.get(42));
    EXPECT_EQ(bits.count(), 1u);
}

TEST(AtomicBitVector, ConcurrentSettersClaimDistinctWins)
{
    AtomicBitVector bits(4096);
    std::atomic<uint64_t> wins(0);
    parallelRun(8, [&](unsigned) {
        for (size_t i = 0; i < 4096; ++i) {
            if (bits.setIfClear(i))
                wins.fetch_add(1);
        }
    });
    // Every bit won exactly once across all threads.
    EXPECT_EQ(wins.load(), 4096u);
    EXPECT_EQ(bits.count(), 4096u);
}

// ------------------------------------------------------ IntervalTree

TEST(ImplicitIntervalTree, EmptyTreeReportsNothing)
{
    ImplicitIntervalTree tree;
    tree.index();
    std::vector<Interval> out;
    EXPECT_EQ(tree.overlap(0, 100, out), 0u);
}

TEST(ImplicitIntervalTree, SingleInterval)
{
    ImplicitIntervalTree tree;
    tree.add(10, 20, 7);
    tree.index();
    std::vector<Interval> out;
    EXPECT_EQ(tree.overlap(0, 10, out), 0u); // end-exclusive
    EXPECT_EQ(tree.overlap(19, 25, out), 1u);
    EXPECT_EQ(out[0].value, 7u);
    out.clear();
    EXPECT_EQ(tree.overlap(20, 30, out), 0u);
}

TEST(ImplicitIntervalTree, MatchesBruteForceOnRandomSets)
{
    Rng rng(21);
    for (int round = 0; round < 20; ++round) {
        const size_t n = 1 + rng.below(400);
        ImplicitIntervalTree tree;
        std::vector<Interval> reference;
        for (size_t i = 0; i < n; ++i) {
            const uint64_t start = rng.below(2000);
            const uint64_t end = start + 1 + rng.below(100);
            tree.add(start, end, i);
            reference.push_back({start, end, i});
        }
        tree.index();
        for (int q = 0; q < 50; ++q) {
            const uint64_t qs = rng.below(2100);
            const uint64_t qe = qs + 1 + rng.below(200);
            std::vector<Interval> got;
            tree.overlap(qs, qe, got);
            std::multiset<uint64_t> got_values;
            for (const Interval &iv : got)
                got_values.insert(iv.value);
            std::multiset<uint64_t> want_values;
            for (const Interval &iv : reference) {
                if (iv.start < qe && qs < iv.end)
                    want_values.insert(iv.value);
            }
            ASSERT_EQ(got_values, want_values)
                << "round " << round << " query [" << qs << "," << qe
                << ")";
        }
    }
}

TEST(ImplicitIntervalTree, VisitOverlapsAgreesWithOverlap)
{
    ImplicitIntervalTree tree;
    for (uint64_t i = 0; i < 50; ++i)
        tree.add(i * 3, i * 3 + 5, i);
    tree.index();
    std::vector<Interval> collected;
    tree.overlap(30, 60, collected);
    size_t visited = 0;
    tree.visitOverlaps(30, 60, [&](const Interval &) { ++visited; });
    EXPECT_EQ(visited, collected.size());
}

// --------------------------------------------------------- UnionFind

TEST(UnionFind, BasicUnions)
{
    UnionFind dsu(10);
    EXPECT_EQ(dsu.setCount(), 10u);
    dsu.unite(1, 2);
    dsu.unite(2, 3);
    EXPECT_TRUE(dsu.same(1, 3));
    EXPECT_FALSE(dsu.same(1, 4));
    EXPECT_EQ(dsu.setCount(), 8u);
    // Idempotent unite.
    dsu.unite(1, 3);
    EXPECT_EQ(dsu.setCount(), 8u);
}

TEST(UnionFind, RandomUnionsMatchBruteForce)
{
    Rng rng(23);
    const size_t n = 200;
    UnionFind dsu(n);
    std::vector<size_t> label(n);
    for (size_t i = 0; i < n; ++i)
        label[i] = i;
    for (int i = 0; i < 150; ++i) {
        const size_t a = rng.below(n);
        const size_t b = rng.below(n);
        dsu.unite(a, b);
        const size_t la = label[a], lb = label[b];
        if (la != lb) {
            for (size_t j = 0; j < n; ++j) {
                if (label[j] == lb)
                    label[j] = la;
            }
        }
    }
    for (size_t a = 0; a < n; ++a) {
        for (size_t b = a + 1; b < n; ++b) {
            EXPECT_EQ(dsu.same(a, b), label[a] == label[b])
                << a << " vs " << b;
        }
    }
}

// -------------------------------------------------------------- Sort

TEST(RadixSort, MatchesStdSortOnRandomKeys)
{
    Rng rng(29);
    for (size_t n : {0ull, 1ull, 2ull, 100ull, 4097ull}) {
        std::vector<uint64_t> keys;
        for (size_t i = 0; i < n; ++i)
            keys.push_back(rng());
        std::vector<uint64_t> expected = keys;
        std::sort(expected.begin(), expected.end());
        radixSortU64(keys);
        EXPECT_EQ(keys, expected) << "n=" << n;
    }
}

TEST(RadixSort, HandlesSmallKeyRange)
{
    Rng rng(31);
    std::vector<uint64_t> keys;
    for (int i = 0; i < 1000; ++i)
        keys.push_back(rng.below(7));
    std::vector<uint64_t> expected = keys;
    std::sort(expected.begin(), expected.end());
    radixSortU64(keys);
    EXPECT_EQ(keys, expected);
}

TEST(RadixSortBy, StableAndSorted)
{
    struct Rec
    {
        uint64_t key;
        uint32_t tag;
        bool operator==(const Rec &o) const
        {
            return key == o.key && tag == o.tag;
        }
    };
    Rng rng(37);
    std::vector<Rec> records;
    for (uint32_t i = 0; i < 2000; ++i)
        records.push_back({rng.below(50), i});
    std::vector<Rec> expected = records;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Rec &a, const Rec &b) {
                         return a.key < b.key;
                     });
    radixSortBy(records, [](const Rec &r) { return r.key; });
    EXPECT_EQ(records.size(), expected.size());
    for (size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(records[i], expected[i]) << i;
}

// ------------------------------------------------------------- Arena

TEST(Arena, InMemoryAppendAndRead)
{
    Arena arena;
    const char *payload = "pangenomics";
    const size_t offset = arena.append(payload, 11);
    EXPECT_EQ(offset, 0u);
    EXPECT_EQ(arena.size(), 11u);
    EXPECT_EQ(std::memcmp(arena.at(0), payload, 11), 0);
}

TEST(Arena, GrowthPreservesContents)
{
    Arena arena;
    std::vector<uint8_t> block(100000, 0xAB);
    for (int i = 0; i < 30; ++i)
        arena.append(block.data(), block.size());
    EXPECT_EQ(arena.size(), 30u * 100000);
    for (size_t probe : {0ull, 1500000ull, 2999999ull})
        EXPECT_EQ(*arena.at(probe), 0xAB);
}

TEST(Arena, FileBackedRoundTrip)
{
    Arena arena(Arena::Mode::kFileBacked);
    std::vector<uint8_t> data(123456);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 31);
    arena.append(data.data(), data.size());
    for (size_t i = 0; i < data.size(); i += 997)
        EXPECT_EQ(*arena.at(i), data[i]) << i;
}

TEST(Arena, MoveTransfersOwnership)
{
    Arena a;
    a.append("xyz", 3);
    Arena b = std::move(a);
    EXPECT_EQ(b.size(), 3u);
    EXPECT_EQ(std::memcmp(b.at(0), "xyz", 3), 0);
}

// ------------------------------------------------------------- Stats

TEST(StatAccumulator, MeanMinMaxStddev)
{
    StatAccumulator acc;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(v);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_NEAR(acc.stddev(), 2.138, 0.01); // sample stddev
}

TEST(StatAccumulator, EmptyIsZero)
{
    StatAccumulator acc;
    EXPECT_EQ(acc.mean(), 0.0);
    EXPECT_EQ(acc.stddev(), 0.0);
}

// -------------------------------------------------------- ThreadPool

TEST(ParallelFor, SumsAllIndices)
{
    std::atomic<uint64_t> sum(0);
    parallelFor(0, 10000, 8, [&](size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 10000ull * 9999 / 2);
}

TEST(ParallelFor, SingleThreadRunsInline)
{
    std::vector<size_t> order;
    parallelFor(5, 10, 1, [&](size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<size_t>{5, 6, 7, 8, 9}));
}

TEST(ParallelRun, AllWorkersRun)
{
    std::atomic<uint32_t> mask(0);
    parallelRun(4, [&](unsigned tid) { mask.fetch_or(1u << tid); });
    EXPECT_EQ(mask.load(), 0xFu);
}

// ------------------------------------------------------------ Timers

TEST(StageTimes, AccumulatesAcrossScopesInPipelineOrder)
{
    StageTimes times;
    double kernel = 0.0;
    for (int i = 0; i < 3; ++i) {
        obs::StageClock clock(times, Stage::kAlign, &kernel);
    }
    times.add(Stage::kSeed, 1.5);
    times.add("seed", 0.5);
    times.add(Stage::kVisualization, 0.0);

    EXPECT_DOUBLE_EQ(times.seconds("seed"), 2.0);
    // Each scope charged its stage and the kernel share the same
    // seconds, from the same two clock reads.
    EXPECT_GT(kernel, 0.0);
    EXPECT_EQ(times.seconds("align"), kernel);
    EXPECT_DOUBLE_EQ(times.seconds("missing"), 0.0);
    EXPECT_DOUBLE_EQ(times.seconds("filter"), 0.0);
    EXPECT_DOUBLE_EQ(times.total(), 2.0 + kernel);

    // Entered stages only (a zero-second one included), in pipeline
    // order rather than by name.
    const auto stages = times.stages();
    ASSERT_EQ(stages.size(), 3u);
    EXPECT_STREQ(stages[0].first, "seed");
    EXPECT_STREQ(stages[1].first, "align");
    EXPECT_STREQ(stages[2].first, "visualization");

    // A name taken from stages() is one add() accepts: a merge through
    // names reproduces the source exactly.
    StageTimes copy;
    for (const auto &[stage, secs] : times.stages())
        copy.add(stage, secs);
    EXPECT_EQ(copy.stages(), stages);
    EXPECT_THROW(copy.add("missing", 1.0), PanicError);
}

// ----------------------------------------------------------- Logging

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad input ", 42), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("invariant"), PanicError);
}

} // namespace
} // namespace pgb::core
