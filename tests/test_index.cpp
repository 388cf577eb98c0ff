/**
 * @file
 * Tests for src/index: suffix array, minimizers, the minimizer index,
 * and the GBWT (find/extend/nextNodes vs brute-force path scans).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/rng.hpp"
#include "graph/pangraph.hpp"
#include "index/gbwt.hpp"
#include "index/minimizer.hpp"
#include "index/suffix_array.hpp"
#include "store/store.hpp"
#include "synth/pangenome_sim.hpp"
#include "temp_path.hpp"

namespace pgb::index {
namespace {

using core::Rng;
using graph::Handle;
using graph::PanGraph;
using seq::Sequence;

// ------------------------------------------------------ SuffixArray

TEST(SuffixArray, KnownSmallCase)
{
    // "banana" with a=1, b=2, n=3: suffixes sorted.
    const std::vector<uint32_t> text = {2, 1, 3, 1, 3, 1};
    const auto sa = buildSuffixArray(text);
    const std::vector<uint32_t> expected = {5, 3, 1, 0, 4, 2};
    EXPECT_EQ(sa, expected);
}

TEST(SuffixArray, MatchesBruteForceOnRandomTexts)
{
    Rng rng(80);
    for (int round = 0; round < 15; ++round) {
        const size_t n = 1 + rng.below(300);
        std::vector<uint32_t> text;
        for (size_t i = 0; i < n; ++i)
            text.push_back(static_cast<uint32_t>(rng.below(5)));
        const auto sa = buildSuffixArray(text);
        std::vector<uint32_t> expected(n);
        for (uint32_t i = 0; i < n; ++i)
            expected[i] = i;
        std::sort(expected.begin(), expected.end(),
                  [&](uint32_t a, uint32_t b) {
                      return std::lexicographical_compare(
                          text.begin() + a, text.end(),
                          text.begin() + b, text.end());
                  });
        ASSERT_EQ(sa, expected) << "round " << round;
    }
}

TEST(SuffixArray, RanksAreInverse)
{
    const std::vector<uint32_t> text = {3, 1, 4, 1, 5, 9, 2, 6};
    const auto sa = buildSuffixArray(text);
    const auto ranks = suffixRanks(sa);
    for (uint32_t r = 0; r < sa.size(); ++r)
        EXPECT_EQ(ranks[sa[r]], r);
}

// ------------------------------------------------------- Minimizers

TEST(Minimizers, DeterministicAndSorted)
{
    Rng rng(81);
    std::vector<uint8_t> bases;
    for (int i = 0; i < 500; ++i)
        bases.push_back(static_cast<uint8_t>(rng.below(4)));
    const auto a = computeMinimizers(bases, 15, 10);
    const auto b = computeMinimizers(bases, 15, 10);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_FALSE(a.empty());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].hash, b[i].hash);
        EXPECT_EQ(a[i].position, b[i].position);
    }
    // Positions non-decreasing.
    for (size_t i = 1; i < a.size(); ++i)
        EXPECT_LE(a[i - 1].position, a[i].position);
}

TEST(Minimizers, WindowDensity)
{
    Rng rng(82);
    std::vector<uint8_t> bases;
    for (int i = 0; i < 10000; ++i)
        bases.push_back(static_cast<uint8_t>(rng.below(4)));
    const int w = 10;
    const auto minis = computeMinimizers(bases, 15, w);
    // Expected density ~ 2/(w+1) per position.
    const double density = static_cast<double>(minis.size()) /
                           static_cast<double>(bases.size());
    EXPECT_GT(density, 1.0 / (w + 1));
    EXPECT_LT(density, 3.0 / (w + 1));
}

TEST(Minimizers, CanonicalUnderReverseComplement)
{
    // The minimizer *hash set* of a sequence and its reverse
    // complement must be identical (canonical k-mers).
    Rng rng(83);
    std::vector<uint8_t> bases;
    for (int i = 0; i < 400; ++i)
        bases.push_back(static_cast<uint8_t>(rng.below(4)));
    Sequence fwd{std::vector<uint8_t>(bases)};
    const Sequence rev = fwd.reverseComplement();
    auto hashes_of = [](const Sequence &s) {
        std::vector<uint64_t> hashes;
        for (const auto &m : computeMinimizers(s.codes(), 15, 10))
            hashes.push_back(m.hash);
        std::sort(hashes.begin(), hashes.end());
        hashes.erase(std::unique(hashes.begin(), hashes.end()),
                     hashes.end());
        return hashes;
    };
    EXPECT_EQ(hashes_of(fwd), hashes_of(rev));
}

TEST(Minimizers, SkipsNBases)
{
    std::vector<uint8_t> bases(100, 0);
    for (size_t i = 40; i < 60; ++i)
        bases[i] = seq::kBaseN;
    const auto minis = computeMinimizers(bases, 15, 5);
    for (const auto &m : minis) {
        // No k-mer may overlap the N run.
        EXPECT_TRUE(m.position + 15 <= 40 || m.position >= 60)
            << m.position;
    }
}

TEST(Minimizers, ShortSequenceYieldsNothing)
{
    std::vector<uint8_t> bases(10, 1);
    EXPECT_TRUE(computeMinimizers(bases, 15, 10).empty());
}

// --------------------------------------------------- MinimizerIndex

TEST(MinimizerIndex, FindsIndexedKmers)
{
    const auto pangenome =
        synth::simulatePangenome(synth::mGraphLikeConfig(20000, 1));
    MinimizerIndex index(pangenome.graph, 15, 10);
    EXPECT_GT(index.distinctMinimizers(), 100u);
    EXPECT_GE(index.totalOccurrences(), index.distinctMinimizers());

    // Every indexed occurrence's node must actually contain a k-mer
    // hashing to the key: verify via a sample of node sequences.
    size_t verified = 0;
    for (graph::NodeId node = 0;
         node < pangenome.graph.nodeCount() && verified < 50; ++node) {
        const auto &codes = pangenome.graph.nodeSequence(node).codes();
        for (const Minimizer &mini :
             computeMinimizers(codes, 15, 10)) {
            const auto hits = index.occurrences(mini.hash);
            const bool found = std::any_of(
                hits.begin(), hits.end(),
                [&](const GraphSeedHit &hit) {
                    return hit.node == node &&
                           hit.offset == mini.position;
                });
            EXPECT_TRUE(found) << "node " << node;
            ++verified;
        }
    }
    EXPECT_GT(verified, 0u);
}

TEST(MinimizerIndex, IndexesBoundarySpanningKmersViaPaths)
{
    // A chain of 1 bp nodes: every k-mer spans node boundaries, so
    // only path-based indexing can see them (the Split-M-graph case).
    Rng rng(86);
    PanGraph g;
    std::vector<graph::Handle> steps;
    std::vector<uint8_t> spelled;
    for (int i = 0; i < 300; ++i) {
        const auto base = static_cast<uint8_t>(rng.below(4));
        spelled.push_back(base);
        const auto node = g.addNode(
            Sequence(std::vector<uint8_t>{base}));
        if (i > 0) {
            g.addEdge(graph::Handle(node - 1, false),
                      graph::Handle(node, false));
        }
        steps.emplace_back(node, false);
    }
    g.addPath("walk", std::move(steps));
    MinimizerIndex index(g, 15, 10);
    EXPECT_GT(index.distinctMinimizers(), 10u);

    // Every sequence minimizer is findable and projects to the node
    // holding the k-mer's first base (node id == path offset here).
    size_t checked = 0;
    for (const auto &mini : computeMinimizers(spelled, 15, 10)) {
        const auto hits = index.occurrences(mini.hash);
        const bool found = std::any_of(
            hits.begin(), hits.end(), [&](const GraphSeedHit &hit) {
                return hit.node == mini.position && hit.offset == 0;
            });
        EXPECT_TRUE(found) << "minimizer at " << mini.position;
        ++checked;
    }
    EXPECT_GT(checked, 10u);
}

TEST(MinimizerIndex, SplitGraphKeepsSeedableCoverage)
{
    // After the Split-M transform, the index must still produce
    // occurrences (regression for the Figure 11 pipeline).
    const auto pangenome =
        synth::simulatePangenome(synth::mGraphLikeConfig(10000, 87));
    const PanGraph split = pangenome.graph.splitNodes(8);
    MinimizerIndex whole(pangenome.graph, 15, 10);
    MinimizerIndex fine(split, 15, 10);
    // Both graphs spell the same haplotypes: similar minimizer counts.
    EXPECT_GT(fine.distinctMinimizers(),
              whole.distinctMinimizers() / 2);
}

TEST(MinimizerIndex, UnknownHashGivesEmptySpan)
{
    PanGraph g;
    g.addNode(Sequence("", std::string(100, 'A')));
    MinimizerIndex index(g, 15, 10);
    EXPECT_TRUE(index.occurrences(0xDEADBEEFull).empty());
}

// ------------------------------------------- Minimizer (window, table)

/**
 * The window scan as it was before the monotone deque: at every
 * reported candidate, rescan the last w candidates, keep the newest
 * when it ties the minimum and otherwise the leftmost minimum. The
 * differential oracle for computeMinimizersInto.
 */
std::vector<Minimizer>
rescanMinimizers(const std::vector<uint8_t> &bases, int k, int w)
{
    struct Cand
    {
        uint64_t hash;
        uint32_t pos;
        bool reverse;
    };
    std::vector<Minimizer> out;
    if (bases.size() < static_cast<size_t>(k))
        return out;
    const uint64_t mask = k < 32 ? (1ull << (2 * k)) - 1 : ~0ull;
    const int shift = 2 * (k - 1);
    uint64_t fwd = 0, rev = 0;
    int valid = 0;
    std::vector<Cand> window;
    for (size_t i = 0; i < bases.size(); ++i) {
        const uint8_t base = bases[i];
        if (base >= 4) {
            valid = 0;
            window.clear();
            continue;
        }
        fwd = ((fwd << 2) | base) & mask;
        rev = (rev >> 2) | (static_cast<uint64_t>(3 - base) << shift);
        if (++valid < k || fwd == rev)
            continue;
        const bool reverse = rev < fwd;
        const auto pos = static_cast<uint32_t>(i + 1 - k);
        window.push_back({hash64(reverse ? rev : fwd, mask), pos, reverse});
        if (pos + 1 < static_cast<uint32_t>(w))
            continue;
        Cand best = window.back();
        const size_t lo = window.size() >= static_cast<size_t>(w)
            ? window.size() - static_cast<size_t>(w) : 0;
        for (size_t c = lo; c < window.size(); ++c)
            if (window[c].hash < best.hash)
                best = window[c];
        if (out.empty() || out.back().hash != best.hash ||
            out.back().position != best.pos)
            out.push_back({best.hash, best.pos, best.reverse});
    }
    return out;
}

void
expectSameMinimizers(const std::vector<uint8_t> &bases, int k, int w,
                     const std::string &what)
{
    const auto want = rescanMinimizers(bases, k, w);
    const auto got = computeMinimizers(bases, k, w);
    ASSERT_EQ(got.size(), want.size())
        << what << " k=" << k << " w=" << w << " n=" << bases.size();
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].hash, want[i].hash) << what << " #" << i;
        ASSERT_EQ(got[i].position, want[i].position) << what << " #" << i;
        ASSERT_EQ(got[i].reverse, want[i].reverse) << what << " #" << i;
    }
}

TEST(Minimizer, WindowMatchesTheRescanOracle)
{
    Rng rng(2323);
    const auto random_bases = [&](size_t n, uint64_t n_per_mille) {
        std::vector<uint8_t> bases(n);
        for (uint8_t &base : bases)
            base = rng.below(1000) < n_per_mille
                ? seq::kBaseN : static_cast<uint8_t>(rng.below(4));
        return bases;
    };
    for (const int k : {5, 15, 31, 32}) {
        for (const int w : {1, 2, 5, 10, 20}) {
            std::vector<std::pair<std::string, std::vector<uint8_t>>>
                inputs;
            for (int r = 0; r < 4; ++r)
                inputs.push_back({"random", random_bases(600, 0)});
            for (int r = 0; r < 4; ++r)
                inputs.push_back({"with N", random_bases(600, 15)});
            // Lengths around k and k + w - 1, where windows are partial.
            for (const int n : {k - 1, k, k + w - 2, k + w - 1, k + w})
                if (n > 0)
                    inputs.push_back(
                        {"short", random_bases(static_cast<size_t>(n),
                                               0)});
            // Homopolymers and tandem repeats: runs of tied hashes.
            for (uint8_t base = 0; base < 4; ++base)
                inputs.push_back(
                    {"homopolymer", std::vector<uint8_t>(300, base)});
            for (const size_t period : {2u, 3u, 4u, 6u}) {
                const auto unit = random_bases(period, 0);
                std::vector<uint8_t> repeat;
                for (size_t i = 0; i < 400; ++i)
                    repeat.push_back(unit[i % period]);
                repeat[200] = seq::kBaseN; // restart mid-repeat
                inputs.push_back({"tandem", repeat});
            }
            // ACGT runs and their reverse complements: every other even-k
            // k-mer in a run is its own reverse complement.
            std::vector<uint8_t> palindromes;
            for (size_t i = 0; i < 400; ++i)
                palindromes.push_back(
                    static_cast<uint8_t>(i % 16 < 8 ? i % 4 : 3 - i % 4));
            inputs.push_back({"palindromes", palindromes});
            for (const auto &[what, bases] : inputs)
                expectSameMinimizers(bases, k, w, what);
        }
    }
}

/** Whether @p hash is in @p index's table (by binary search). */
bool
inTable(const MinimizerIndex &index, uint64_t hash)
{
    const auto table = index.flatTable();
    return std::binary_search(
        table.begin(), table.end(), MinimizerIndex::TableEntry{hash, 0, 0},
        [](const auto &a, const auto &b) { return a.hash < b.hash; });
}

TEST(Minimizer, LookupRoundTripsEveryHashAndMissesAbsentOnes)
{
    const auto pangenome =
        synth::simulatePangenome(synth::mGraphLikeConfig(20000, 4));
    for (const int k : {5, 15, 31, 32}) {
        const MinimizerIndex index(pangenome.graph, k, 10);
        const auto table = index.flatTable();
        const auto hits = index.allHits();
        ASSERT_GT(table.size(), 1u) << k;
        // The directory never outgrows half the table.
        EXPECT_LE(index.derivedBytes(), table.size_bytes() / 2) << k;
        for (size_t e = 0; e < table.size(); ++e) {
            if (e > 0) {
                ASSERT_LT(table[e - 1].hash, table[e].hash);
            }
            const auto found = index.occurrences(table[e].hash);
            ASSERT_EQ(found.data(), hits.data() + table[e].begin) << k;
            ASSERT_EQ(found.size(), table[e].end - table[e].begin) << k;
        }
        const uint64_t mask = k < 32 ? (1ull << (2 * k)) - 1 : ~0ull;
        Rng rng(static_cast<uint64_t>(k));
        size_t absent = 0;
        for (int probe = 0; probe < 20000; ++probe) {
            const uint64_t hash = rng() & mask;
            if (inTable(index, hash))
                continue;
            EXPECT_TRUE(index.occurrences(hash).empty()) << hash;
            ++absent;
        }
        EXPECT_GT(absent, 0u) << k;
        // A hash wider than the index's k-mers is absent, not a crash.
        if (k < 32) {
            EXPECT_TRUE(index.occurrences(mask + 1).empty());
        }
    }
}

TEST(Minimizer, EmptyTableLooksUpNothing)
{
    // Pathless shards get an empty index; so does a graph too short
    // for one k-mer.
    const MinimizerIndex empty(15, 10);
    EXPECT_EQ(empty.distinctMinimizers(), 0u);
    EXPECT_FALSE(empty.isView());
    PanGraph g;
    g.addNode(Sequence("", "ACGT"));
    const MinimizerIndex short_graph(g, 15, 10);
    EXPECT_EQ(short_graph.distinctMinimizers(), 0u);
    Rng rng(7);
    for (int probe = 0; probe < 1000; ++probe) {
        const uint64_t hash = rng() & ((1ull << 30) - 1);
        EXPECT_TRUE(empty.occurrences(hash).empty());
        EXPECT_TRUE(short_graph.occurrences(hash).empty());
    }
}

TEST(Minimizer, LoadedSpansEqualBuiltSpans)
{
    const auto pangenome =
        synth::simulatePangenome(synth::mGraphLikeConfig(20000, 5));
    const MinimizerIndex built(pangenome.graph, 15, 10);
    const std::string path = test::testTempPath("minimizer_spans.pgbi");
    store::writeArtifact(path, pangenome.graph, built, nullptr);
    const auto artifact = store::Artifact::load(path);
    const MinimizerIndex &loaded = artifact->minimizers();
    ASSERT_TRUE(loaded.isView());
    EXPECT_EQ(loaded.derivedBytes(), built.derivedBytes());
    const auto bt = built.flatTable(), lt = loaded.flatTable();
    const auto bh = built.allHits(), lh = loaded.allHits();
    ASSERT_EQ(bt.size(), lt.size());
    ASSERT_EQ(bh.size(), lh.size());
    EXPECT_EQ(std::memcmp(bt.data(), lt.data(), bt.size_bytes()), 0);
    EXPECT_EQ(std::memcmp(bh.data(), lh.data(), bh.size_bytes()), 0);
    for (const auto &entry : bt) {
        const auto a = built.occurrences(entry.hash);
        const auto b = loaded.occurrences(entry.hash);
        ASSERT_EQ(a.size(), b.size());
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0);
    }
}

// -------------------------------------------------------------- GBWT

/** Small three-haplotype graph exercising divergent walks. */
PanGraph
threeHaplotypes()
{
    PanGraph g;
    const auto a = g.addNode(Sequence("", "AC")); // 0
    const auto b = g.addNode(Sequence("", "G"));  // 1
    const auto c = g.addNode(Sequence("", "T"));  // 2
    const auto d = g.addNode(Sequence("", "CA")); // 3
    const auto e = g.addNode(Sequence("", "AA")); // 4
    g.addEdge(Handle(a, false), Handle(b, false));
    g.addEdge(Handle(a, false), Handle(c, false));
    g.addEdge(Handle(b, false), Handle(d, false));
    g.addEdge(Handle(c, false), Handle(d, false));
    g.addEdge(Handle(c, false), Handle(e, false));
    g.addEdge(Handle(d, false), Handle(e, false));
    g.addPath("h1", {Handle(a, false), Handle(b, false),
                     Handle(d, false), Handle(e, false)});
    g.addPath("h2", {Handle(a, false), Handle(c, false),
                     Handle(d, false), Handle(e, false)});
    g.addPath("h3", {Handle(a, false), Handle(c, false),
                     Handle(e, false)});
    return g;
}

TEST(Gbwt, VisitCounts)
{
    const PanGraph g = threeHaplotypes();
    const GbwtIndex gbwt(g);
    EXPECT_EQ(gbwt.visitCount(Handle(0, false)), 3u);
    EXPECT_EQ(gbwt.visitCount(Handle(1, false)), 1u);
    EXPECT_EQ(gbwt.visitCount(Handle(2, false)), 2u);
    EXPECT_EQ(gbwt.visitCount(Handle(3, false)), 2u);
    EXPECT_EQ(gbwt.visitCount(Handle(4, false)), 3u);
}

TEST(Gbwt, FindCountsSupportingHaplotypes)
{
    const PanGraph g = threeHaplotypes();
    const GbwtIndex gbwt(g);
    auto count = [&](std::vector<Handle> steps) {
        return gbwt.find(steps).size();
    };
    EXPECT_EQ(count({Handle(0, false)}), 3u);
    EXPECT_EQ(count({Handle(0, false), Handle(2, false)}), 2u);
    EXPECT_EQ(count({Handle(0, false), Handle(2, false),
                     Handle(3, false)}), 1u);
    EXPECT_EQ(count({Handle(2, false), Handle(4, false)}), 1u);
    // The paper's Figure 4c scenario: 1->3 then 4 only if a haplotype
    // takes it; here 0->1->3->4 exists (h1).
    EXPECT_EQ(count({Handle(0, false), Handle(1, false),
                     Handle(3, false), Handle(4, false)}), 1u);
}

TEST(Gbwt, FindRejectsNonHaplotypeWalks)
{
    const PanGraph g = threeHaplotypes();
    const GbwtIndex gbwt(g);
    // Edge 1->3 and 3->4 exist, but no haplotype goes 0->2 then ends
    // with ... 2->3 then 3->... wait: h2 does 2->3. Use a walk no
    // haplotype takes even though every edge exists: none here, so
    // query a nonexistent edge walk instead.
    const std::vector<Handle> walk = {Handle(1, false),
                                      Handle(2, false)};
    EXPECT_TRUE(gbwt.find(walk).empty());
}

TEST(Gbwt, NextNodesAreHaplotypeConsistent)
{
    const PanGraph g = threeHaplotypes();
    const GbwtIndex gbwt(g);
    // After 0 -> 2 (h2, h3): next can be 3 (h2) or 4 (h3).
    const std::vector<Handle> prefix = {Handle(0, false),
                                        Handle(2, false)};
    const auto range = gbwt.find(prefix);
    auto nexts = gbwt.nextNodes(range);
    std::vector<uint32_t> ids;
    for (Handle h : nexts)
        ids.push_back(h.node());
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<uint32_t>{3, 4}));

    // After 0 -> 1 (h1 only): next is 3 only.
    const auto range2 =
        gbwt.find(std::vector<Handle>{Handle(0, false),
                                      Handle(1, false)});
    const auto nexts2 = gbwt.nextNodes(range2);
    ASSERT_EQ(nexts2.size(), 1u);
    EXPECT_EQ(nexts2[0].node(), 3u);
}

/** Brute-force count of subpath occurrences across all paths. */
size_t
bruteForceCount(const PanGraph &g, const std::vector<Handle> &walk)
{
    size_t count = 0;
    for (graph::PathId p = 0; p < g.pathCount(); ++p) {
        const auto &steps = g.pathSteps(p);
        if (steps.size() < walk.size())
            continue;
        for (size_t i = 0; i + walk.size() <= steps.size(); ++i) {
            bool match = true;
            for (size_t j = 0; j < walk.size(); ++j) {
                if (!(steps[i + j] == walk[j])) {
                    match = false;
                    break;
                }
            }
            count += match ? 1 : 0;
        }
    }
    return count;
}

TEST(Gbwt, FindMatchesBruteForceOnSyntheticPangenome)
{
    const auto pangenome =
        synth::simulatePangenome(synth::mGraphLikeConfig(15000, 2));
    const PanGraph &g = pangenome.graph;
    const GbwtIndex gbwt(g);
    Rng rng(84);
    for (int round = 0; round < 100; ++round) {
        // Random subpath of a random haplotype (the paper's GBWT
        // query workload: lengths 1..100).
        const graph::PathId path =
            static_cast<graph::PathId>(rng.below(g.pathCount()));
        const auto &steps = g.pathSteps(path);
        const size_t len = 1 + rng.below(std::min<size_t>(
            100, steps.size()));
        const size_t start = rng.below(steps.size() - len + 1);
        std::vector<Handle> walk(steps.begin() + start,
                                 steps.begin() + start + len);
        const size_t expected = bruteForceCount(g, walk);
        ASSERT_GE(expected, 1u);
        ASSERT_EQ(gbwt.find(walk).size(), expected)
            << "round " << round << " len " << len;
    }
}

TEST(Gbwt, RleAndPlainAgree)
{
    const auto pangenome =
        synth::simulatePangenome(synth::mGraphLikeConfig(8000, 3));
    const PanGraph &g = pangenome.graph;
    const GbwtIndex rle(g, true);
    const GbwtIndex plain(g, false);
    EXPECT_TRUE(rle.runLengthEncoded());
    EXPECT_FALSE(plain.runLengthEncoded());
    Rng rng(85);
    for (int round = 0; round < 50; ++round) {
        const graph::PathId path =
            static_cast<graph::PathId>(rng.below(g.pathCount()));
        const auto &steps = g.pathSteps(path);
        const size_t len =
            1 + rng.below(std::min<size_t>(30, steps.size()));
        const size_t start = rng.below(steps.size() - len + 1);
        std::vector<Handle> walk(steps.begin() + start,
                                 steps.begin() + start + len);
        const auto a = rle.find(walk);
        const auto b = plain.find(walk);
        ASSERT_EQ(a.size(), b.size()) << "round " << round;
        ASSERT_EQ(a.node, b.node);
        ASSERT_EQ(a.begin, b.begin);
    }
}

TEST(Gbwt, RunLengthEncodingCompresses)
{
    const auto pangenome =
        synth::simulatePangenome(synth::mGraphLikeConfig(20000, 4));
    const GbwtIndex gbwt(pangenome.graph);
    const auto stats = gbwt.stats();
    EXPECT_GT(stats.records, 0u);
    EXPECT_GT(stats.totalVisits, 0u);
    // Haplotypes mostly share routes, so runs should be > 1 on
    // average (the GBWT's core compression property).
    EXPECT_GT(stats.avgRunLength, 1.5);
}

TEST(Gbwt, StatsTotalVisitsEqualPathSteps)
{
    const PanGraph g = threeHaplotypes();
    const GbwtIndex gbwt(g);
    size_t steps = 0;
    for (graph::PathId p = 0; p < g.pathCount(); ++p)
        steps += g.pathSteps(p).size();
    EXPECT_EQ(gbwt.stats().totalVisits, steps);
}


// ------------------------------------------------------ GBWT walkBest

/**
 * The filter walk as giraffe ran it before walkBest(): enumerate the
 * present successors with nextNodes(), extend() into each, and follow
 * the first largest range.
 */
GbwtBestWalk
referenceWalk(const GbwtIndex &gbwt, Handle start, size_t max_steps)
{
    GbwtBestWalk walk;
    walk.range = gbwt.fullRange(start);
    while (!walk.range.empty() && walk.steps < max_steps) {
        const auto nexts = gbwt.nextNodes(walk.range);
        if (nexts.empty())
            break;
        GbwtRange best;
        for (Handle next : nexts) {
            const GbwtRange cand = gbwt.extend(walk.range, next);
            if (cand.size() > best.size())
                best = cand;
        }
        walk.range = best;
        ++walk.steps;
    }
    return walk;
}

void
expectSameWalk(const GbwtBestWalk &got, const GbwtBestWalk &want,
               Handle start)
{
    EXPECT_EQ(got.steps, want.steps) << "start " << start.packed();
    EXPECT_EQ(got.range.node, want.range.node) << "start "
                                               << start.packed();
    EXPECT_EQ(got.range.begin, want.range.begin) << "start "
                                                 << start.packed();
    EXPECT_EQ(got.range.end, want.range.end) << "start "
                                             << start.packed();
}

TEST(Gbwt, WalkBestMatchesNextNodesAndExtendFromEveryStart)
{
    const auto pangenome =
        synth::simulatePangenome(synth::mGraphLikeConfig(15000, 5));
    const PanGraph &g = pangenome.graph;
    for (const bool rle : {true, false}) {
        const GbwtIndex gbwt(g, rle);
        size_t walked = 0;
        for (uint32_t node = 0; node < g.nodeCount(); ++node) {
            for (const bool reverse : {false, true}) {
                const Handle start(node, reverse);
                const GbwtBestWalk want = referenceWalk(gbwt, start, 16);
                expectSameWalk(gbwt.walkBest(start, 16), want, start);
                walked += want.steps;
            }
        }
        EXPECT_GT(walked, g.nodeCount()) << "rle=" << rle;
    }
}

TEST(Gbwt, WalkBestChildrenMatchBruteForceCounts)
{
    const auto pangenome =
        synth::simulatePangenome(synth::mGraphLikeConfig(8000, 6));
    const PanGraph &g = pangenome.graph;
    const GbwtIndex gbwt(g);
    Rng rng(86);
    for (int round = 0; round < 40; ++round) {
        const Handle start(
            static_cast<uint32_t>(rng.below(g.nodeCount())), false);
        std::vector<Handle> prefix = {start};
        for (size_t step = 1; step <= 16; ++step) {
            const GbwtBestWalk walk = gbwt.walkBest(start, step);
            // The brute-force best child: most haplotype occurrences
            // of prefix + child, the smallest handle on ties.
            Handle best_child;
            size_t best_count = 0;
            std::vector<Handle> children = g.successors(prefix.back());
            std::sort(children.begin(), children.end(),
                      [](Handle a, Handle b) {
                          return a.packed() < b.packed();
                      });
            for (Handle child : children) {
                prefix.push_back(child);
                const size_t count = bruteForceCount(g, prefix);
                prefix.pop_back();
                if (count > best_count) {
                    best_child = child;
                    best_count = count;
                }
            }
            if (best_count == 0) {
                // Every occurrence of the prefix ends here.
                EXPECT_EQ(walk.steps, step - 1) << "round " << round;
                break;
            }
            ASSERT_EQ(walk.steps, step) << "round " << round;
            prefix.push_back(best_child);
            EXPECT_EQ(walk.range.node, best_child.packed() + 1)
                << "round " << round << " step " << step;
            EXPECT_EQ(walk.range.size(), best_count)
                << "round " << round << " step " << step;
        }
    }
}

TEST(Gbwt, WalkBestHandlesMoreSuccessorsThanOneTallyChunk)
{
    // A hub with 100 successors: the best child (index 69, three
    // haplotypes) sits past the first 64 edges, and child 89 ties it
    // later in edge order, so the walk must tally every chunk and keep
    // the first largest.
    PanGraph g;
    const auto hub = g.addNode(Sequence("", "A"));
    std::vector<uint32_t> spokes;
    for (int i = 0; i < 100; ++i)
        spokes.push_back(g.addNode(Sequence("", "C")));
    const auto sink = g.addNode(Sequence("", "G"));
    for (uint32_t spoke : spokes) {
        g.addEdge(Handle(hub, false), Handle(spoke, false));
        g.addEdge(Handle(spoke, false), Handle(sink, false));
    }
    int haplotype = 0;
    for (size_t i = 0; i < spokes.size(); ++i) {
        const int copies = i == 69 || i == 89 ? 3 : i == 10 ? 2 : 1;
        for (int c = 0; c < copies; ++c)
            g.addPath(std::to_string(haplotype++),
                      {Handle(hub, false), Handle(spokes[i], false),
                       Handle(sink, false)});
    }
    for (const bool rle : {true, false}) {
        const GbwtIndex gbwt(g, rle);
        const Handle start(hub, false);
        const GbwtBestWalk one = gbwt.walkBest(start, 1);
        ASSERT_EQ(one.steps, 1u) << "rle=" << rle;
        EXPECT_EQ(one.range.node, Handle(spokes[69], false).packed() + 1);
        EXPECT_EQ(one.range.size(), 3u);
        // hub -> spoke 69 -> sink, where every haplotype ends.
        const GbwtBestWalk all = gbwt.walkBest(start, 16);
        EXPECT_EQ(all.steps, 2u);
        EXPECT_EQ(all.range.node, Handle(sink, false).packed() + 1);
        EXPECT_EQ(all.range.size(), 3u);
        expectSameWalk(all, referenceWalk(gbwt, start, 16), start);
    }
}

TEST(Gbwt, StoreRoundTripViewsTheBuiltWordsAndWalks)
{
    const auto pangenome =
        synth::simulatePangenome(synth::mGraphLikeConfig(6000, 7));
    const PanGraph &g = pangenome.graph;
    const MinimizerIndex minimizers(g, 15, 10);
    for (const bool rle : {true, false}) {
        const GbwtIndex built(g, rle);
        const std::string path = test::testTempPath("gbwt_words.pgbi");
        store::writeArtifact(path, g, minimizers, &built);
        const auto artifact = store::Artifact::load(path);
        const GbwtIndex &loaded = *artifact->gbwt();
        EXPECT_EQ(loaded.runLengthEncoded(), rle);
        EXPECT_TRUE(std::ranges::equal(loaded.words(), built.words()))
            << "rle=" << rle;
        EXPECT_EQ(loaded.derivedBytes(), built.derivedBytes());
        for (uint32_t packed = 0; packed < g.nodeCount() * 2; ++packed) {
            const Handle start = Handle::fromPacked(packed);
            expectSameWalk(loaded.walkBest(start, 16),
                           built.walkBest(start, 16), start);
            for (const Handle next : g.successors(start)) {
                const Handle steps[] = {start, next};
                const GbwtRange want = built.find(steps);
                const GbwtRange got = loaded.find(steps);
                EXPECT_EQ(got.node, want.node);
                EXPECT_EQ(got.begin, want.begin);
                EXPECT_EQ(got.end, want.end);
            }
        }
        std::remove(path.c_str());
    }
}

} // namespace
} // namespace pgb::index
