/**
 * @file
 * Differential test battery for the FM-index (index/fm_index.hpp).
 *
 * A wrong seeder degrades mapping accuracy silently, so every FM
 * operation is proven against a brute-force oracle that shares no
 * code with the index: find/count/locate against a naive per-path
 * scan, and SMEM enumeration against an O(n*m) dynamic-programming
 * enumerator, over randomized texts/queries (>= 1000 cases),
 * adversarial shapes (tandem repeats, homopolymers, all-N) and the
 * seeding regime (read-length queries at min_length 15 on both
 * strands of haplotype-like texts), at multiple (min_length,
 * sample_rate) settings and over texts split across several indexes.
 * The same DP bounds the enumerator's work. The rank blocks are
 * checked against naive symbol counts at every rank, locate() against
 * the suffix array, and the k-mer table against find(); SMEM cases
 * built so that table lookups hit N, miss every member or hit one
 * member only run against the oracle too. The ctest lanes run
 * this file under PGB_THREADS=1 and 8; identical results prove the
 * index is thread-count independent.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/logging.hpp"
#include "core/rng.hpp"
#include "graph/pangraph.hpp"
#include "index/fm_index.hpp"
#include "index/minimizer.hpp"
#include "index/suffix_array.hpp"
#include "seq/sequence.hpp"
#include "store/store.hpp"
#include "temp_path.hpp"

namespace {

using namespace pgb;
using index::FmIndex;

/** One single-node path per string: FM text layout without graph
 *  topology in the way (projection is covered by test_seeder). */
graph::PanGraph
pathGraph(const std::vector<std::string> &texts)
{
    graph::PanGraph graph;
    for (size_t p = 0; p < texts.size(); ++p) {
        const graph::NodeId node =
            graph.addNode(seq::Sequence("", texts[p]));
        std::string name = "p";
        name += std::to_string(p);
        graph.addPath(name, {graph::Handle(node, false)});
    }
    return graph;
}

std::vector<uint8_t>
codesOf(const std::string &text)
{
    return seq::encodeString(text);
}

/** Every (path, offset) where @p pattern occurs, by naive scan. */
std::vector<std::pair<uint32_t, uint64_t>>
naiveOccurrences(const std::vector<std::string> &texts,
                 const std::string &pattern)
{
    std::vector<std::pair<uint32_t, uint64_t>> hits;
    if (pattern.empty())
        return hits;
    for (uint32_t p = 0; p < texts.size(); ++p) {
        const std::string &text = texts[p];
        for (size_t at = 0;
             pattern.size() <= text.size() &&
             at + pattern.size() <= text.size();
             ++at) {
            if (text.compare(at, pattern.size(), pattern) == 0)
                hits.emplace_back(p, at);
        }
    }
    return hits;
}

/** FM occurrences of @p pattern as sorted (path, offset) pairs. */
std::vector<std::pair<uint32_t, uint64_t>>
fmOccurrences(const FmIndex &fm, const std::string &pattern)
{
    std::vector<std::pair<uint32_t, uint64_t>> hits;
    const auto range = fm.find(codesOf(pattern));
    for (uint64_t r = range.lo; r < range.hi; ++r) {
        const auto pos = fm.resolve(fm.locate(r));
        hits.emplace_back(pos.path, pos.offset);
    }
    std::sort(hits.begin(), hits.end());
    return hits;
}

/** An SMEM as plain data, for set comparison against the oracle. */
struct OracleMem
{
    uint32_t begin = 0;
    uint32_t end = 0;
    uint64_t occurrences = 0;

    bool
    operator==(const OracleMem &other) const
    {
        return begin == other.begin && end == other.end &&
               occurrences == other.occurrences;
    }
};

/**
 * longest[b] = length of the longest match of query starting at b
 * anywhere in any text, via the classic backward extension DP
 * (match[b][t] = query[b]==text[t] ? 1 + match[b+1][t+1] : 0).
 */
std::vector<size_t>
oracleLongest(const std::vector<std::string> &texts,
              const std::string &query)
{
    const size_t m = query.size();
    std::vector<size_t> longest(m + 1, 0);
    for (const std::string &text : texts) {
        const size_t n = text.size();
        std::vector<size_t> next(n + 1, 0), cur(n + 1, 0);
        for (size_t b = m; b-- > 0;) {
            for (size_t t = 0; t < n; ++t) {
                cur[t] = query[b] == text[t] ? 1 + next[t + 1] : 0;
                longest[b] = std::max(longest[b], cur[t]);
            }
            cur[n] = 0;
            std::swap(next, cur);
        }
    }
    return longest;
}

/**
 * Brute-force SMEM enumeration sharing no machinery with the index:
 * [b, b+longest[b]) is an SMEM iff it is long enough and not
 * contained in the (always longer-or-equal reaching) match starting
 * one position earlier.
 */
std::vector<OracleMem>
oracleMems(const std::vector<std::string> &texts,
           const std::string &query, uint32_t min_length)
{
    const size_t m = query.size();
    const std::vector<size_t> longest = oracleLongest(texts, query);
    std::vector<OracleMem> mems;
    for (size_t b = 0; b < m; ++b) {
        const size_t len = longest[b];
        if (len < min_length)
            continue;
        if (b > 0 && longest[b - 1] > len)
            continue; // contained in the match starting at b-1
        const std::string sub = query.substr(b, len);
        mems.push_back({static_cast<uint32_t>(b),
                        static_cast<uint32_t>(b + len),
                        naiveOccurrences(texts, sub).size()});
    }
    return mems;
}

/** SMEMs of @p query over @p indexes as (begin, end, summed count). */
std::vector<OracleMem>
setMems(const std::vector<const FmIndex *> &indexes,
        const std::string &query, uint32_t min_length)
{
    index::SmemSet set;
    set.collect(indexes, codesOf(query), min_length);
    std::vector<OracleMem> mems;
    for (size_t i = 0; i < set.size(); ++i) {
        uint64_t total = 0;
        for (const auto &range : set.ranges(i))
            total += range.size();
        mems.push_back({set.queryBegin(i), set.queryEnd(i), total});
    }
    return mems;
}

/** Random DNA string; @p n_rate mixes in 'N's when nonzero. */
std::string
randomText(core::Xoshiro256StarStar &rng, size_t length,
           double n_rate = 0.0)
{
    static const char bases[] = "ACGT";
    std::string text(length, 'A');
    for (char &c : text) {
        c = n_rate > 0 && rng.chance(n_rate)
                ? 'N'
                : bases[rng.below(4)];
    }
    return text;
}

/** A query related to the texts: a (possibly mutated) substring, or
 *  pure noise, so matches of interesting lengths actually occur. */
std::string
relatedQuery(core::Xoshiro256StarStar &rng,
             const std::vector<std::string> &texts, size_t length)
{
    const std::string &text = texts[rng.below(texts.size())];
    std::string query;
    if (text.size() >= length && rng.chance(0.7)) {
        const size_t at = rng.below(text.size() - length + 1);
        query = text.substr(at, length);
        const size_t mutations = rng.below(1 + length / 8);
        for (size_t i = 0; i < mutations; ++i)
            query[rng.below(query.size())] = "ACGTN"[rng.below(5)];
    } else {
        query = randomText(rng, length, 0.02);
    }
    return query;
}

// ---------------------------------------------------------------------
// find / count / locate vs naive scan
// ---------------------------------------------------------------------

TEST(FmIndex, FindCountLocateMatchNaiveScanRandomized)
{
    core::Xoshiro256StarStar rng(0xf1bd);
    size_t nonzero_hits = 0;
    for (int round = 0; round < 60; ++round) {
        std::vector<std::string> texts;
        const size_t path_count = 1 + rng.below(4);
        for (size_t p = 0; p < path_count; ++p)
            texts.push_back(
                randomText(rng, 30 + rng.below(300), 0.01));
        const graph::PanGraph graph = pathGraph(texts);
        const auto sample_rate =
            static_cast<uint32_t>(1 + rng.below(16));
        const FmIndex fm(graph, sample_rate);

        for (int q = 0; q < 12; ++q) {
            const std::string pattern =
                relatedQuery(rng, texts, 1 + rng.below(24));
            const auto expected = naiveOccurrences(texts, pattern);
            ASSERT_EQ(fm.count(codesOf(pattern)), expected.size())
                << "pattern " << pattern;
            ASSERT_EQ(fmOccurrences(fm, pattern), expected)
                << "pattern " << pattern;
            nonzero_hits += expected.empty() ? 0 : 1;
        }
    }
    // The generator must actually exercise the hit paths.
    EXPECT_GT(nonzero_hits, 200u);
}

TEST(FmIndex, SampleRateDoesNotChangeAnyAnswer)
{
    core::Xoshiro256StarStar rng(0x5a3e);
    const std::vector<std::string> texts = {
        randomText(rng, 400, 0.01), randomText(rng, 150)};
    const graph::PanGraph graph = pathGraph(texts);
    const FmIndex dense(graph, 1);
    for (const uint32_t rate : {2u, 7u, 64u, 1000u}) {
        const FmIndex sparse(graph, rate);
        for (int q = 0; q < 40; ++q) {
            const std::string pattern =
                relatedQuery(rng, texts, 3 + rng.below(20));
            EXPECT_EQ(fmOccurrences(dense, pattern),
                      fmOccurrences(sparse, pattern))
                << "rate " << rate << " pattern " << pattern;
        }
    }
}

TEST(FmIndex, PatternsNeverMatchAcrossPathBoundaries)
{
    // "ACGT" exists only as the junction of the two paths; the
    // sentinel between them must keep it unfindable.
    const graph::PanGraph graph = pathGraph({"GGGAC", "GTCCC"});
    const FmIndex fm(graph, 1);
    EXPECT_EQ(fm.count(codesOf("ACGT")), 0u);
    EXPECT_EQ(fm.count(codesOf("CG")), 0u);
    EXPECT_EQ(fm.count(codesOf("GGGAC")), 1u);
    EXPECT_EQ(fm.count(codesOf("GTCCC")), 1u);
    EXPECT_EQ(fm.count(codesOf("C")), 4u);
}

TEST(FmIndex, EmptyAndImpossiblePatterns)
{
    const graph::PanGraph graph = pathGraph({"ACACAC"});
    const FmIndex fm(graph, 4);
    // The empty pattern matches every suffix (the full range).
    EXPECT_EQ(fm.find({}).size(), fm.textLength());
    EXPECT_EQ(fm.count(codesOf("G")), 0u);
    EXPECT_EQ(fm.count(codesOf("ACACACA")), 0u);
    EXPECT_EQ(fm.count(codesOf("N")), 0u);
    EXPECT_EQ(fm.count(codesOf("ACAC")), 2u);
}

TEST(FmIndex, NMatchesOnlyN)
{
    const graph::PanGraph graph = pathGraph({"ANAC", "NNAC"});
    const FmIndex fm(graph, 1);
    EXPECT_EQ(fm.count(codesOf("N")), 3u);
    EXPECT_EQ(fm.count(codesOf("NN")), 1u);
    EXPECT_EQ(fm.count(codesOf("NA")), 2u);
    EXPECT_EQ(fm.count(codesOf("AC")), 2u);
    const auto expected = naiveOccurrences({"ANAC", "NNAC"}, "NAC");
    EXPECT_EQ(fmOccurrences(fm, "NAC"), expected);
}

// ---------------------------------------------------------------------
// SMEM enumeration vs the brute-force oracle
// ---------------------------------------------------------------------

/** Run one differential SMEM case; returns the SMEM count. */
size_t
checkMems(const std::vector<std::string> &texts,
          const std::string &query, uint32_t min_length,
          uint32_t sample_rate)
{
    const graph::PanGraph graph = pathGraph(texts);
    const FmIndex fm(graph, sample_rate);
    const auto expected = oracleMems(texts, query, min_length);
    const auto got = setMems({&fm}, query, min_length);
    EXPECT_EQ(got, expected)
        << "query " << query << " min_length " << min_length
        << " sample_rate " << sample_rate;
    return expected.size();
}

TEST(FmIndex, SmemsMatchBruteForceRandomized)
{
    // >= 1000 randomized differential cases across text shapes,
    // query lengths, minimum lengths, and sampling rates.
    core::Xoshiro256StarStar rng(0x53e3);
    size_t cases = 0, nonempty = 0;
    for (int round = 0; round < 120; ++round) {
        std::vector<std::string> texts;
        const size_t path_count = 1 + rng.below(3);
        for (size_t p = 0; p < path_count; ++p)
            texts.push_back(
                randomText(rng, 20 + rng.below(250), 0.01));
        const auto sample_rate =
            static_cast<uint32_t>(1 + rng.below(12));
        for (const uint32_t min_length : {1u, 5u, 12u}) {
            for (int q = 0; q < 3; ++q) {
                const std::string query =
                    relatedQuery(rng, texts, 4 + rng.below(56));
                nonempty +=
                    checkMems(texts, query, min_length, sample_rate)
                        ? 1
                        : 0;
                ++cases;
            }
        }
    }
    EXPECT_GE(cases, 1000u);
    EXPECT_GT(nonempty, cases / 3);
}

TEST(FmIndex, SmemsOnTandemRepeats)
{
    std::string acgt, acg;
    for (int i = 0; i < 30; ++i)
        acgt += "ACGT";
    for (int i = 0; i < 40; ++i)
        acg += "ACG";
    const std::vector<std::string> texts = {acgt, acg + "T" + acg};
    core::Xoshiro256StarStar rng(0x7e9e);
    for (const uint32_t min_length : {1u, 8u, 15u}) {
        checkMems(texts, "ACGTACGTACGT", min_length, 4);
        checkMems(texts, "ACGACGACGACGACG", min_length, 4);
        checkMems(texts, "CGTACGACGT", min_length, 4);
        for (int q = 0; q < 20; ++q)
            checkMems(texts, relatedQuery(rng, texts, 6 + rng.below(40)),
                      min_length, 1 + rng.below(8));
    }
}

TEST(FmIndex, SmemsOnHomopolymers)
{
    const std::vector<std::string> texts = {
        std::string(120, 'A'), std::string(60, 'A') + "C" +
                                   std::string(30, 'A')};
    for (const uint32_t min_length : {1u, 10u}) {
        checkMems(texts, std::string(40, 'A'), min_length, 3);
        checkMems(texts, std::string(20, 'A') + "C" +
                             std::string(10, 'A'),
                  min_length, 3);
        checkMems(texts, "AACAA", min_length, 1);
        checkMems(texts, "G", min_length, 1);
    }
}

TEST(FmIndex, SmemsOnAllN)
{
    const std::vector<std::string> texts = {std::string(50, 'N'),
                                            "ACGTNNACGT"};
    checkMems(texts, std::string(12, 'N'), 1, 2);
    checkMems(texts, std::string(12, 'N'), 5, 2);
    checkMems(texts, "TNNA", 2, 2);
    checkMems(texts, "ACGTNNACGT", 4, 2);
}

TEST(FmIndex, SmemOccurrenceRangesLocateExactly)
{
    // Every SMEM's SA range must locate to exactly the positions the
    // naive scan finds for that substring.
    core::Xoshiro256StarStar rng(0x10ca7e);
    const std::vector<std::string> texts = {randomText(rng, 300),
                                            randomText(rng, 120)};
    const graph::PanGraph graph = pathGraph(texts);
    const FmIndex fm(graph, 5);
    for (int q = 0; q < 50; ++q) {
        const std::string query =
            relatedQuery(rng, texts, 10 + rng.below(40));
        index::SmemSet mems;
        const FmIndex *const one = &fm;
        mems.collect({&one, 1}, codesOf(query), 5);
        for (size_t i = 0; i < mems.size(); ++i) {
            const std::string sub =
                query.substr(mems.queryBegin(i),
                             mems.queryEnd(i) - mems.queryBegin(i));
            const FmIndex::SaRange range = mems.ranges(i)[0];
            std::vector<std::pair<uint32_t, uint64_t>> located;
            for (uint64_t r = range.lo; r < range.hi; ++r) {
                const auto pos = fm.resolve(fm.locate(r));
                located.emplace_back(pos.path, pos.offset);
            }
            std::sort(located.begin(), located.end());
            EXPECT_EQ(located, naiveOccurrences(texts, sub))
                << "query " << query << " smem " << sub;
        }
    }
}

// ---------------------------------------------------------------------
// The seeding regime: min_length 15, read-length queries against
// haplotype-like texts, on both strands
// ---------------------------------------------------------------------

/** @p count copies of one random backbone, each with its own SNPs. */
std::vector<std::string>
haplotypeTexts(core::Xoshiro256StarStar &rng, size_t length,
               size_t count, double snp_rate)
{
    const std::string backbone = randomText(rng, length);
    std::vector<std::string> texts(count, backbone);
    for (std::string &text : texts)
        for (char &c : text)
            if (rng.chance(snp_rate))
                c = "ACGT"[rng.below(4)];
    return texts;
}

std::string
reverseComplement(const std::string &text)
{
    std::string rc(text.rbegin(), text.rend());
    for (char &c : rc)
        c = c == 'A' ? 'T' : c == 'C' ? 'G' : c == 'G' ? 'C'
                                                   : c == 'T' ? 'A' : c;
    return rc;
}

/** A read-like query: a substring of one text with a few errors. */
std::string
readQuery(core::Xoshiro256StarStar &rng,
          const std::vector<std::string> &texts, size_t length,
          size_t errors)
{
    const std::string &text = texts[rng.below(texts.size())];
    std::string query = text.substr(
        rng.below(text.size() - length + 1), length);
    for (size_t i = 0; i < errors; ++i)
        query[rng.below(length)] = "ACGT"[rng.below(4)];
    return query;
}

TEST(FmIndex, SmemsMatchOracleForReadLengthQueries)
{
    core::Xoshiro256StarStar rng(0x5eed15);
    const auto texts = haplotypeTexts(rng, 4000, 4, 0.01);
    size_t nonempty = 0;
    for (int q = 0; q < 40; ++q) {
        const std::string query =
            readQuery(rng, texts, 150, rng.below(6));
        nonempty += checkMems(texts, query, 15, 8) ? 1 : 0;
    }
    for (int q = 0; q < 2; ++q)
        checkMems(texts, readQuery(rng, texts, 3000, 30), 15, 8);
    EXPECT_EQ(nonempty, 40u);
}

TEST(FmIndex, SmemsMatchOracleForReverseComplementQueries)
{
    // Forward-only texts, reads from the other strand: the window
    // skip's regime, where nearly every window is absent.
    core::Xoshiro256StarStar rng(0x4c0e);
    const auto texts = haplotypeTexts(rng, 4000, 4, 0.01);
    for (int q = 0; q < 40; ++q) {
        const std::string query =
            reverseComplement(readQuery(rng, texts, 150, rng.below(4)));
        checkMems(texts, query, 15, 8);
        checkMems(texts, query, 8, 8);
    }
    // Chimeras: a wrong-strand prefix, so the first window that
    // occurs sits mid-query, and a wrong-strand suffix after it.
    for (int q = 0; q < 20; ++q) {
        const std::string fwd = readQuery(rng, texts, 80, 1);
        const std::string rc =
            reverseComplement(readQuery(rng, texts, 70, 0));
        EXPECT_GT(checkMems(texts, rc + fwd, 15, 8), 0u);
        checkMems(texts, fwd + rc, 15, 8);
    }
}

TEST(FmIndex, SmemsWhenMinLengthReachesQueryLength)
{
    core::Xoshiro256StarStar rng(0x13e9);
    const auto texts = haplotypeTexts(rng, 600, 3, 0.02);
    for (int q = 0; q < 30; ++q) {
        const std::string query =
            readQuery(rng, texts, 5 + rng.below(40), rng.below(2));
        const auto m = static_cast<uint32_t>(query.size());
        checkMems(texts, query, m, 4);
        checkMems(texts, query, m + 1, 4);
        checkMems(texts, query, 2 * m + 7, 4);
    }
    // An exact whole-query match at min_length == m is one SMEM.
    const std::string exact = texts[0].substr(100, 30);
    EXPECT_EQ(checkMems(texts, exact, 30, 4), 1u);
    EXPECT_EQ(checkMems(texts, exact, 31, 4), 0u);
}

TEST(FmIndex, LockstepOverSplitTextsMatchesSingleIndexAndOracle)
{
    // A shard set's FM texts partition the monolith's: enumerating
    // over the parts in lockstep must give the single index's SMEMs,
    // with each part's range counting exactly its own occurrences.
    core::Xoshiro256StarStar rng(0x10c5);
    auto texts = haplotypeTexts(rng, 1500, 5, 0.02);
    texts.push_back(randomText(rng, 900, 0.01));
    const FmIndex whole(pathGraph(texts), 4);
    for (size_t parts = 1; parts <= 4; ++parts) {
        std::vector<std::vector<std::string>> groups(parts);
        for (size_t t = 0; t < texts.size(); ++t)
            groups[t % parts].push_back(texts[t]);
        std::vector<std::unique_ptr<FmIndex>> owned;
        std::vector<const FmIndex *> indexes;
        for (const auto &group : groups) {
            owned.push_back(
                std::make_unique<FmIndex>(pathGraph(group), 4));
            indexes.push_back(owned.back().get());
        }
        for (int q = 0; q < 12; ++q) {
            std::string query = readQuery(rng, texts, 150, rng.below(5));
            if (q % 3 == 0)
                query = reverseComplement(query);
            for (const uint32_t min_length : {1u, 5u, 15u}) {
                const auto oracle = oracleMems(texts, query, min_length);
                ASSERT_EQ(setMems({&whole}, query, min_length), oracle)
                    << "query " << query;
                ASSERT_EQ(setMems(indexes, query, min_length), oracle)
                    << parts << " parts, query " << query;

                index::SmemSet set;
                set.collect(indexes, codesOf(query), min_length);
                for (size_t i = 0; i < set.size(); ++i) {
                    const std::string sub = query.substr(
                        set.queryBegin(i),
                        set.queryEnd(i) - set.queryBegin(i));
                    for (size_t g = 0; g < parts; ++g)
                        EXPECT_EQ(set.ranges(i)[g].size(),
                                  naiveOccurrences(groups[g], sub).size())
                            << "part " << g << " smem " << sub;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rank blocks and the k-mer interval table
// ---------------------------------------------------------------------

/** The FM text of @p texts: base code + 1 per base, 0 after a path. */
std::vector<uint32_t>
fmText(const std::vector<std::string> &texts)
{
    std::vector<uint32_t> text;
    for (const std::string &path : texts) {
        for (const uint8_t code : codesOf(path))
            text.push_back(code + 1u);
        text.push_back(0);
    }
    return text;
}

/** Two paths with Ns whose FM text is exactly @p n symbols long. */
std::vector<std::string>
textsOfLength(core::Xoshiro256StarStar &rng, size_t n)
{
    const size_t first = n / 3;
    return {randomText(rng, first, 0.05),
            randomText(rng, n - first - 2, 0.05)};
}

TEST(FmIndex, RankAndExtendMatchNaiveCountsAtEveryRank)
{
    // On and off the 64-symbol block boundary; the BWT holds
    // sentinels and Ns as well as bases.
    core::Xoshiro256StarStar rng(0x4a9c);
    for (const size_t n : {64u, 128u, 640u, 65u, 127u, 1001u}) {
        const FmIndex fm(pathGraph(textsOfLength(rng, n)), 4);
        ASSERT_EQ(fm.textLength(), n);
        const auto bwt = fm.bwtData();
        uint64_t smaller[FmIndex::kAlphabet + 1] = {};
        for (const uint8_t sym : bwt)
            ++smaller[sym + 1];
        for (uint32_t c = 0; c < FmIndex::kAlphabet; ++c)
            smaller[c + 1] += smaller[c];
        uint64_t counts[FmIndex::kAlphabet] = {};
        for (uint64_t r = 0; r <= n; ++r) {
            for (uint8_t sym = 0; sym < FmIndex::kAlphabet; ++sym)
                ASSERT_EQ(fm.rankSymbol(sym, r), counts[sym])
                    << "n " << n << " rank " << r << " symbol "
                    << int(sym);
            for (uint8_t base = 0; base < 5; ++base) {
                const FmIndex::SaRange range = fm.extend({0, r}, base);
                ASSERT_EQ(range.lo, smaller[base + 1]);
                ASSERT_EQ(range.hi, smaller[base + 1] + counts[base + 1])
                    << "n " << n << " rank " << r << " base "
                    << int(base);
            }
            if (r < n)
                ++counts[bwt[r]];
        }
    }
}

TEST(FmIndex, LocateEqualsTheSuffixArray)
{
    core::Xoshiro256StarStar rng(0x10ca);
    for (const size_t n : {64u, 257u, 1000u}) {
        const auto texts = textsOfLength(rng, n);
        const std::vector<uint32_t> sa = index::buildSuffixArray(fmText(texts));
        for (const uint32_t rate : {1u, 5u, 32u}) {
            const FmIndex fm(pathGraph(texts), rate);
            for (uint64_t r = 0; r < n; ++r)
                ASSERT_EQ(fm.locate(r), sa[r])
                    << "n " << n << " rate " << rate << " rank " << r;
        }
    }
}

/** floor(log4 n) - 3, clamped to [1, 10]: counted, not computed. */
uint32_t
expectedKmerLength(uint64_t n)
{
    uint32_t log4 = 0;
    while ((uint64_t{4} << (2 * log4)) <= n)
        ++log4;
    return std::clamp<uint32_t>(log4, 4, 13) - 3;
}

TEST(FmIndex, KmerTableEqualsFindForEveryKmer)
{
    core::Xoshiro256StarStar rng(0x6e7);
    // The K rule at its lower boundaries, and every table entry of a
    // few indexes against a backward search.
    for (const size_t n : {4u, 1023u, 1024u, 4095u, 4096u})
        EXPECT_EQ(FmIndex(pathGraph(textsOfLength(rng, n)), 8)
                      .kmerLength(),
                  expectedKmerLength(n))
            << "n " << n;
    for (const size_t n : {300u, 5000u, 70000u}) {
        const FmIndex fm(pathGraph(textsOfLength(rng, n)), 8);
        ASSERT_EQ(fm.kmerLength(), expectedKmerLength(n));
        size_t present = 0;
        for (uint32_t length = 1; length <= fm.kmerLength(); ++length) {
            for (uint64_t key = 0; key < (uint64_t{1} << (2 * length));
                 ++key) {
                std::vector<uint8_t> pattern(length);
                for (uint32_t i = 0; i < length; ++i)
                    pattern[i] = static_cast<uint8_t>(
                        (key >> (2 * (length - 1 - i))) & 3u);
                const FmIndex::SaRange expected = fm.find(pattern);
                const FmIndex::SaRange got = fm.kmerRange(length, key);
                ASSERT_EQ(got.size(), expected.size())
                    << "n " << n << " length " << length << " key " << key;
                if (!expected.empty()) {
                    ASSERT_EQ(got.lo, expected.lo);
                    ++present;
                }
            }
        }
        EXPECT_GT(present, 0u);
    }
}

TEST(FmIndex, ArtifactViewAnswersLikeTheBuiltIndex)
{
    core::Xoshiro256StarStar rng(0xa7f1);
    auto texts = haplotypeTexts(rng, 3000, 4, 0.01);
    texts.push_back(randomText(rng, 701, 0.02));
    const graph::PanGraph graph = pathGraph(texts);
    const FmIndex built(graph, 8);
    const index::MinimizerIndex minimizers(graph, 15, 10);
    const std::string path = test::testTempPath("fm_view.pgbi");
    store::writeArtifact(path, graph, minimizers, nullptr, &built);
    const auto artifact = store::Artifact::load(path);
    const FmIndex *view = artifact->fmIndex();
    ASSERT_NE(view, nullptr);
    ASSERT_TRUE(view->isView());
    ASSERT_EQ(view->textLength(), built.textLength());
    ASSERT_EQ(view->kmerLength(), built.kmerLength());
    for (uint64_t r = 0; r < built.textLength(); ++r) {
        ASSERT_EQ(view->locate(r), built.locate(r)) << "rank " << r;
        for (uint8_t sym = 0; sym < FmIndex::kAlphabet; ++sym)
            ASSERT_EQ(view->rankSymbol(sym, r), built.rankSymbol(sym, r));
    }
    const FmIndex *const built_one = &built;
    index::SmemSet from_built, from_view;
    for (int q = 0; q < 40; ++q) {
        std::string query = readQuery(rng, texts, 150, rng.below(6));
        if (q % 2 == 1)
            query = reverseComplement(query);
        from_built.collect({&built_one, 1}, codesOf(query), 15);
        from_view.collect({&view, 1}, codesOf(query), 15);
        ASSERT_EQ(from_view.size(), from_built.size()) << query;
        for (size_t i = 0; i < from_built.size(); ++i) {
            EXPECT_EQ(from_view.queryBegin(i), from_built.queryBegin(i));
            EXPECT_EQ(from_view.queryEnd(i), from_built.queryEnd(i));
            EXPECT_EQ(from_view.ranges(i)[0].lo, from_built.ranges(i)[0].lo);
            EXPECT_EQ(from_view.ranges(i)[0].hi, from_built.ranges(i)[0].hi);
        }
    }
}

/** A random string over the two bases of @p alphabet. */
std::string
twoBaseText(core::Xoshiro256StarStar &rng, const char *alphabet,
            size_t length)
{
    std::string text(length, alphabet[0]);
    for (char &c : text)
        c = alphabet[rng.below(2)];
    return text;
}

TEST(FmIndex, TableSeededSmemsMatchOracle)
{
    // Texts over two-base alphabets, split round-robin over 1-4
    // members: most k-mers of a query stitched from several texts
    // occur in one member only or in none, and the Ns planted in the
    // queries fall inside the seeded k bases of many searches. The
    // short "AG" text leaves the 4-way split's last member with a
    // shorter table than the others. Every case is checked against
    // the oracle at min_length K-1, K, K+1 and 12, with K the
    // members' smallest table length.
    core::Xoshiro256StarStar rng(0x7ab1e);
    std::vector<std::string> texts;
    for (const char *alphabet : {"AC", "AC", "GT", "AG", "CT", "AT"})
        texts.push_back(twoBaseText(rng, alphabet,
                                    std::string(alphabet) == "AG" ? 1100
                                                                  : 4200));
    texts.push_back(randomText(rng, 40, 0.1));
    size_t one_member = 0, no_member = 0, with_n = 0;
    bool mixed_lengths = false;
    for (size_t parts = 1; parts <= 4; ++parts) {
        std::vector<std::vector<std::string>> groups(parts);
        for (size_t t = 0; t < texts.size(); ++t)
            groups[t % parts].push_back(texts[t]);
        std::vector<std::unique_ptr<FmIndex>> owned;
        std::vector<const FmIndex *> indexes;
        uint32_t kmer = UINT32_MAX, longest = 0;
        for (const auto &group : groups) {
            owned.push_back(std::make_unique<FmIndex>(pathGraph(group), 4));
            indexes.push_back(owned.back().get());
            kmer = std::min(kmer, owned.back()->kmerLength());
            longest = std::max(longest, owned.back()->kmerLength());
        }
        ASSERT_GE(kmer, 2u) << parts << " parts";
        mixed_lengths |= longest > kmer;
        for (int q = 0; q < 8; ++q) {
            std::string query;
            while (query.size() < 120) {
                const std::string &text = texts[rng.below(texts.size())];
                const size_t piece = 6 + rng.below(20);
                query += text.substr(rng.below(text.size() - piece), piece);
            }
            for (size_t i = 0; i < 1 + rng.below(3); ++i)
                query[rng.below(query.size())] = 'N';
            with_n += query.find('N') != std::string::npos ? 1 : 0;
            for (size_t at = 0; at + kmer <= query.size(); ++at) {
                const std::string sub = query.substr(at, kmer);
                if (sub.find('N') != std::string::npos)
                    continue;
                size_t members = 0;
                for (const FmIndex *fm : indexes)
                    members += fm->count(codesOf(sub)) > 0 ? 1 : 0;
                no_member += members == 0 ? 1 : 0;
                one_member += parts > 1 && members == 1 ? 1 : 0;
            }
            for (const uint32_t min_length :
                 {kmer - 1, kmer, kmer + 1, 12u}) {
                ASSERT_EQ(setMems(indexes, query, min_length),
                          oracleMems(texts, query, min_length))
                    << parts << " parts, min_length " << min_length
                    << ", query " << query;
                index::SmemSet set;
                set.collect(indexes, codesOf(query), min_length);
                for (size_t i = 0; i < set.size(); ++i) {
                    const std::string sub = query.substr(
                        set.queryBegin(i),
                        set.queryEnd(i) - set.queryBegin(i));
                    for (size_t g = 0; g < parts; ++g)
                        EXPECT_EQ(set.ranges(i)[g].size(),
                                  naiveOccurrences(groups[g], sub).size())
                            << "part " << g << " smem " << sub;
                }
            }
        }
    }
    EXPECT_GT(one_member, 50u);
    EXPECT_GT(no_member, 50u);
    EXPECT_EQ(with_n, 32u);
    EXPECT_TRUE(mixed_lengths);
}

// ---------------------------------------------------------------------
// Work bounds: the enumerator must not drift back to restarting a
// backward search at every end position
// ---------------------------------------------------------------------

TEST(FmIndex, ExactMatchCostsAtMostLengthPlusMinLengthSteps)
{
    core::Xoshiro256StarStar rng(0xe8ac);
    const auto texts = haplotypeTexts(rng, 5000, 4, 0.01);
    const FmIndex fm(pathGraph(texts), 8);
    const FmIndex *const one = &fm;
    index::SmemSet set;
    for (const size_t m : {15u, 16u, 150u, 1000u, 4000u}) {
        for (int q = 0; q < 5; ++q) {
            const std::string query = readQuery(rng, texts, m, 0);
            for (const uint32_t k : {1u, 15u, 31u}) {
                const uint64_t steps =
                    set.collect({&one, 1}, codesOf(query), k);
                if (k <= m) {
                    ASSERT_EQ(set.size(), 1u);
                    EXPECT_EQ(set.queryEnd(0) - set.queryBegin(0), m);
                }
                EXPECT_LE(steps, m + k) << "m " << m << " k " << k;
            }
        }
    }
}

TEST(FmIndex, FewerStepsThanRestartingAtEveryEnd)
{
    // The replaced scan restarted a backward search at each end e and
    // paid e - b(e) steps there; the DP oracle yields b(e) directly.
    core::Xoshiro256StarStar rng(0x57e9);
    const auto texts = haplotypeTexts(rng, 3000, 4, 0.01);
    const FmIndex fm(pathGraph(texts), 8);
    const FmIndex *const one = &fm;
    index::SmemSet set;
    uint64_t total_steps = 0, total_restart = 0;
    for (int q = 0; q < 20; ++q) {
        std::string query = readQuery(rng, texts, 150, rng.below(6));
        if (q % 2 == 1)
            query = reverseComplement(query);
        const std::vector<size_t> longest = oracleLongest(texts, query);
        uint64_t restart = 0;
        for (size_t e = 1; e <= query.size(); ++e) {
            size_t b = 0;
            while (b + longest[b] < e)
                ++b;
            restart += e - b;
        }
        const uint64_t steps = set.collect({&one, 1}, codesOf(query), 15);
        EXPECT_LT(steps, restart) << "query " << query;
        total_steps += steps;
        total_restart += restart;
    }
    EXPECT_LT(4 * total_steps, total_restart);
}

// ---------------------------------------------------------------------
// Construction edge cases
// ---------------------------------------------------------------------

TEST(FmIndex, GraphWithoutPathsIsFatal)
{
    graph::PanGraph graph;
    graph.addNode(seq::Sequence("", "ACGT"));
    EXPECT_THROW(FmIndex(graph, 4), core::FatalError);
}

TEST(FmIndex, SampleRateZeroIsClampedToOne)
{
    const graph::PanGraph graph = pathGraph({"ACGTACGT"});
    const FmIndex fm(graph, 0);
    EXPECT_EQ(fm.sampleRate(), 1u);
    EXPECT_EQ(fmOccurrences(fm, "CGT"),
              naiveOccurrences({"ACGTACGT"}, "CGT"));
}

TEST(FmIndex, MultiNodePathsSpellTheSameText)
{
    // The same haplotype spelled through a 3-node chain (with one
    // reversed step) must index identically to the single-node form.
    const std::string spelled = "ACCGTTGAAC";
    graph::PanGraph chain;
    const auto a = chain.addNode(seq::Sequence("", "ACCG"));
    // "TTGA" spelled via the reverse orientation of its complement.
    const auto b = chain.addNode(seq::Sequence("", "TCAA"));
    const auto c = chain.addNode(seq::Sequence("", "AC"));
    chain.addEdge(graph::Handle(a, false), graph::Handle(b, true));
    chain.addEdge(graph::Handle(b, true), graph::Handle(c, false));
    chain.addPath("h", {graph::Handle(a, false),
                        graph::Handle(b, true),
                        graph::Handle(c, false)});
    ASSERT_EQ(chain.pathSequence(0).toString(), spelled);

    const FmIndex split(chain, 3);
    const FmIndex flat(pathGraph({spelled}), 3);
    core::Xoshiro256StarStar rng(0xc4a1);
    for (int q = 0; q < 30; ++q) {
        const std::string pattern =
            relatedQuery(rng, {spelled}, 1 + rng.below(10));
        EXPECT_EQ(fmOccurrences(split, pattern),
                  fmOccurrences(flat, pattern))
            << pattern;
    }
}

} // namespace
