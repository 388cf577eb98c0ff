/**
 * @file
 * Tests for src/graph: PanGraph topology/paths, GFA IO, subgraph
 * extraction, node splitting, and LocalGraph.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <sstream>
#include <unordered_map>

#include "core/logging.hpp"
#include "core/rng.hpp"
#include "graph/gfa.hpp"
#include "graph/local_graph.hpp"
#include "graph/pangraph.hpp"

namespace pgb::graph {
namespace {

using seq::Sequence;

/** Diamond: 0 -> {1, 2} -> 3 with a path through 1. */
PanGraph
diamond()
{
    PanGraph g;
    const NodeId a = g.addNode(Sequence("", "ACGT"));
    const NodeId b = g.addNode(Sequence("", "T"));
    const NodeId c = g.addNode(Sequence("", "G"));
    const NodeId d = g.addNode(Sequence("", "CCAA"));
    g.addEdge(Handle(a, false), Handle(b, false));
    g.addEdge(Handle(a, false), Handle(c, false));
    g.addEdge(Handle(b, false), Handle(d, false));
    g.addEdge(Handle(c, false), Handle(d, false));
    g.addPath("alt1", {Handle(a, false), Handle(b, false),
                       Handle(d, false)});
    g.addPath("alt2", {Handle(a, false), Handle(c, false),
                       Handle(d, false)});
    return g;
}

/**
 * Reference form of a finalized LocalGraph, built independently of
 * LocalGraph: a vector per node, a sorted deduplicated edge list, and
 * Kahn's algorithm run FIFO from the zero-in-degree nodes in ascending
 * order, with children taken in ascending order.
 */
struct RefGraph
{
    std::vector<std::vector<uint8_t>> seqs;
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    std::vector<uint32_t> topo;
    bool dag = false;

    void
    finalize()
    {
        std::sort(edges.begin(), edges.end());
        edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
        std::vector<uint32_t> indegree(seqs.size(), 0);
        for (const auto &[from, to] : edges)
            ++indegree[to];
        std::vector<uint32_t> frontier;
        for (uint32_t v = 0; v < seqs.size(); ++v) {
            if (indegree[v] == 0)
                frontier.push_back(v);
        }
        for (size_t head = 0; head < frontier.size(); ++head) {
            for (const auto &[from, to] : edges) {
                if (from == frontier[head] && --indegree[to] == 0)
                    frontier.push_back(to);
            }
        }
        dag = frontier.size() == seqs.size();
        topo = dag ? frontier : std::vector<uint32_t>{};
    }

    std::vector<uint32_t>
    successors(uint32_t v) const
    {
        std::vector<uint32_t> out;
        for (const auto &[from, to] : edges) {
            if (from == v)
                out.push_back(to);
        }
        return out;
    }

    std::vector<uint32_t>
    predecessors(uint32_t v) const
    {
        std::vector<uint32_t> out;
        for (const auto &[from, to] : edges) {
            if (to == v)
                out.push_back(from);
        }
        return out;
    }
};

/**
 * Reference extraction: a plain hash-map/priority-queue Dijkstra, the
 * oracle for PanGraph::extractSubgraph's scratch-table search. Same
 * contract: settle every handle within @p radius, number them by
 * (distance, packed handle), keep forward edges in that order.
 */
RefGraph
referenceExtract(const PanGraph &g, Handle start, size_t radius,
                 uint32_t *origin)
{
    struct Entry
    {
        size_t dist;
        uint32_t packed;
        bool operator>(const Entry &other) const
        {
            return dist > other.dist;
        }
    };
    std::unordered_map<uint32_t, size_t> dist;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    dist[start.packed()] = 0;
    queue.push({0, start.packed()});
    std::vector<uint32_t> discovered;
    while (!queue.empty()) {
        const Entry entry = queue.top();
        queue.pop();
        auto it = dist.find(entry.packed);
        if (it == dist.end() || it->second < entry.dist)
            continue;
        discovered.push_back(entry.packed);
        const Handle handle = Handle::fromPacked(entry.packed);
        auto relax = [&](Handle next, size_t next_dist) {
            if (next_dist > radius)
                return;
            auto found = dist.find(next.packed());
            if (found == dist.end() || next_dist < found->second) {
                dist[next.packed()] = next_dist;
                queue.push({next_dist, next.packed()});
            }
        };
        for (Handle next : g.successors(handle))
            relax(next, entry.dist + g.nodeLength(handle.node()));
        for (Handle prev : g.predecessors(handle))
            relax(prev, entry.dist + g.nodeLength(prev.node()));
    }
    std::sort(discovered.begin(), discovered.end(),
              [&](uint32_t a, uint32_t b) {
                  const size_t da = dist[a], db = dist[b];
                  return da < db || (da == db && a < b);
              });
    std::unordered_map<uint32_t, uint32_t> local;
    RefGraph out;
    for (uint32_t packed : discovered) {
        local[packed] = static_cast<uint32_t>(out.seqs.size());
        out.seqs.push_back(
            g.sequenceOf(Handle::fromPacked(packed)).codes());
    }
    for (uint32_t packed : discovered) {
        for (Handle next : g.successors(Handle::fromPacked(packed))) {
            auto it = local.find(next.packed());
            if (it != local.end() && local[packed] < it->second)
                out.edges.emplace_back(local[packed], it->second);
        }
    }
    out.finalize();
    *origin = local[start.packed()];
    return out;
}

/** Node bases, CSR adjacency, predecessors and topology all agree. */
void
expectSameGraph(const LocalGraph &got, const RefGraph &want)
{
    ASSERT_EQ(got.nodeCount(), want.seqs.size());
    ASSERT_EQ(got.edgeCount(), want.edges.size());
    size_t bases = 0;
    for (uint32_t v = 0; v < got.nodeCount(); ++v) {
        bases += want.seqs[v].size();
        EXPECT_TRUE(std::ranges::equal(got.nodeSeq(v), want.seqs[v]))
            << "node " << v;
        EXPECT_TRUE(
            std::ranges::equal(got.successors(v), want.successors(v)))
            << "successors of " << v;
        EXPECT_TRUE(std::ranges::equal(got.predecessors(v),
                                       want.predecessors(v)))
            << "predecessors of " << v;
    }
    EXPECT_EQ(got.totalBases(), bases);
    EXPECT_EQ(got.isDag(), want.dag);
    EXPECT_EQ(got.topoOrder(), want.topo);
}

/**
 * Seeded random bidirected graph: nodes of 1-8 bases, about three
 * edges per node with random orientations on both ends, so it has
 * cycles, self loops and strand-reversing edges.
 */
PanGraph
randomBidirectedGraph(uint64_t seed)
{
    core::Xoshiro256StarStar rng(seed);
    PanGraph g;
    const auto nodes = static_cast<uint32_t>(rng.between(1, 40));
    for (uint32_t v = 0; v < nodes; ++v) {
        std::string bases(static_cast<size_t>(rng.between(1, 8)), 'A');
        for (char &c : bases)
            c = "ACGT"[rng.below(4)];
        g.addNode(Sequence("", bases));
    }
    for (uint32_t e = 0; e < 3 * nodes; ++e) {
        g.addEdge(Handle(static_cast<NodeId>(rng.below(nodes)),
                         rng.below(2) == 1),
                  Handle(static_cast<NodeId>(rng.below(nodes)),
                         rng.below(2) == 1));
    }
    return g;
}

// ------------------------------------------------------------ Handle

TEST(Handle, PackingAndFlip)
{
    Handle h(10, true);
    EXPECT_EQ(h.node(), 10u);
    EXPECT_TRUE(h.isReverse());
    EXPECT_EQ(h.flipped().node(), 10u);
    EXPECT_FALSE(h.flipped().isReverse());
    EXPECT_EQ(h.flipped().flipped(), h);
}

// ---------------------------------------------------------- PanGraph

TEST(PanGraph, NodesAndSequences)
{
    PanGraph g;
    const NodeId a = g.addNode(Sequence("", "ACG"));
    EXPECT_EQ(g.nodeCount(), 1u);
    EXPECT_EQ(g.nodeLength(a), 3u);
    EXPECT_EQ(g.sequenceOf(Handle(a, false)).toString(), "ACG");
    EXPECT_EQ(g.sequenceOf(Handle(a, true)).toString(), "CGT");
    EXPECT_EQ(g.baseAt(Handle(a, true), 0), seq::encodeBase('C'));
}

TEST(PanGraph, RejectsEmptyNode)
{
    PanGraph g;
    EXPECT_THROW(g.addNode(Sequence("", "")), core::FatalError);
}

TEST(PanGraph, EdgesAreBidirectedWithMirror)
{
    PanGraph g;
    const NodeId a = g.addNode(Sequence("", "A"));
    const NodeId b = g.addNode(Sequence("", "C"));
    g.addEdge(Handle(a, false), Handle(b, false));
    EXPECT_TRUE(g.hasEdge(Handle(a, false), Handle(b, false)));
    // The mirror edge b- -> a- exists automatically.
    EXPECT_TRUE(g.hasEdge(Handle(b, true), Handle(a, true)));
    EXPECT_EQ(g.edgeCount(), 1u);
    // Duplicate insertion is a no-op.
    g.addEdge(Handle(a, false), Handle(b, false));
    EXPECT_EQ(g.edgeCount(), 1u);
}

TEST(PanGraph, PredecessorsAreFlippedSuccessors)
{
    const PanGraph g = diamond();
    const auto preds = g.predecessors(Handle(3, false));
    EXPECT_EQ(preds.size(), 2u);
    for (Handle p : preds)
        EXPECT_FALSE(p.isReverse());
}

TEST(PanGraph, PathValidationRejectsDisconnectedSteps)
{
    PanGraph g;
    const NodeId a = g.addNode(Sequence("", "A"));
    const NodeId b = g.addNode(Sequence("", "C"));
    EXPECT_THROW(
        g.addPath("bad", {Handle(a, false), Handle(b, false)}),
        core::FatalError);
}

TEST(PanGraph, PathSequenceSpellsTheWalk)
{
    const PanGraph g = diamond();
    EXPECT_EQ(g.pathSequence(0).toString(), "ACGTTCCAA");
    EXPECT_EQ(g.pathSequence(1).toString(), "ACGTGCCAA");
    EXPECT_EQ(g.pathLength(0), 9u);
}

TEST(PanGraph, DuplicatePathNameRejected)
{
    PanGraph g;
    const NodeId a = g.addNode(Sequence("", "A"));
    g.addPath("p", {Handle(a, false)});
    EXPECT_THROW(g.addPath("p", {Handle(a, false)}),
                 core::FatalError);
}

TEST(PanGraph, StatsAreConsistent)
{
    const PanGraph g = diamond();
    const GraphStats stats = g.stats();
    EXPECT_EQ(stats.nodeCount, 4u);
    EXPECT_EQ(stats.edgeCount, 4u);
    EXPECT_EQ(stats.pathCount, 2u);
    EXPECT_EQ(stats.totalBases, 10u);
    EXPECT_DOUBLE_EQ(stats.avgNodeLength, 2.5);
    EXPECT_EQ(stats.maxNodeLength, 4u);
}

TEST(PanGraph, ShortestPathBases)
{
    const PanGraph g = diamond();
    // From node 0 to node 3: through 1 or 2, one base either way.
    EXPECT_EQ(g.shortestPathBases(Handle(0, false), Handle(3, false),
                                  100),
              1u);
    // Direct successor distance is zero intermediate bases.
    EXPECT_EQ(g.shortestPathBases(Handle(0, false), Handle(1, false),
                                  100),
              0u);
    // Unreachable within limit.
    EXPECT_EQ(g.shortestPathBases(Handle(3, false), Handle(0, false),
                                  100),
              SIZE_MAX);
}

// --------------------------------------------------------- Subgraphs

TEST(PanGraph, ExtractSubgraphContainsNeighborhood)
{
    const PanGraph g = diamond();
    uint32_t origin = 0;
    LocalGraph sub;
    g.extractSubgraph(Handle(0, false), 100, sub, &origin);
    EXPECT_EQ(sub.nodeCount(), 4u);
    EXPECT_TRUE(sub.isDag());
    const auto bases = sub.nodeSeq(origin);
    EXPECT_EQ(std::vector<uint8_t>(bases.begin(), bases.end()),
              g.nodeSequence(0).codes());
}

TEST(PanGraph, ExtractSubgraphHonorsRadius)
{
    // Chain of 10-base nodes; radius 25 reaches ~3 hops.
    PanGraph g;
    std::vector<NodeId> chain;
    for (int i = 0; i < 10; ++i)
        chain.push_back(g.addNode(Sequence("", std::string(10, 'A'))));
    for (int i = 0; i + 1 < 10; ++i)
        g.addEdge(Handle(chain[i], false), Handle(chain[i + 1], false));
    LocalGraph sub;
    g.extractSubgraph(Handle(5, false), 25, sub);
    // Nodes within 25 bases in either direction: 5 +- 2 hops, plus the
    // boundary nodes just reachable.
    EXPECT_GE(sub.nodeCount(), 5u);
    EXPECT_LE(sub.nodeCount(), 7u);
}

TEST(PanGraph, ExtractSubgraphIsAlwaysDag)
{
    // Cycle: 0 -> 1 -> 0.
    PanGraph g;
    const NodeId a = g.addNode(Sequence("", "AA"));
    const NodeId b = g.addNode(Sequence("", "CC"));
    g.addEdge(Handle(a, false), Handle(b, false));
    g.addEdge(Handle(b, false), Handle(a, false));
    LocalGraph sub;
    g.extractSubgraph(Handle(a, false), 100, sub);
    EXPECT_TRUE(sub.isDag());
}

TEST(PanGraph, ExtractSubgraphMatchesReferenceOnRandomGraphs)
{
    LocalGraph reused;
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        const PanGraph g = randomBidirectedGraph(seed);
        for (const size_t radius : {0, 7, 1000}) {
            for (NodeId node = 0; node < g.nodeCount(); node += 3) {
                for (const bool reverse : {false, true}) {
                    const Handle start(node, reverse);
                    SCOPED_TRACE(testing::Message()
                                 << "seed " << seed << " radius " << radius
                                 << " start " << node
                                 << (reverse ? '-' : '+'));
                    uint32_t want_origin = 0, got_origin = 0;
                    const RefGraph want =
                        referenceExtract(g, start, radius, &want_origin);
                    g.extractSubgraph(start, radius, reused, &got_origin);
                    expectSameGraph(reused, want);
                    EXPECT_EQ(got_origin, want_origin);
                }
            }
        }
    }
}

TEST(PanGraph, ExtractSubgraphReuseEqualsFreshExtraction)
{
    // A cyclic, strand-reversing graph fills every buffer of `reused`;
    // extracting a second graph into it must leave no trace of the
    // first.
    const PanGraph cyclic = randomBidirectedGraph(7);
    const PanGraph other = diamond();
    LocalGraph reused;
    cyclic.extractSubgraph(Handle(0, true), 1000, reused);
    ASSERT_GT(reused.nodeCount(), other.nodeCount());
    uint32_t reused_origin = 0, fresh_origin = 0;
    other.extractSubgraph(Handle(1, false), 3, reused, &reused_origin);
    const RefGraph fresh =
        referenceExtract(other, Handle(1, false), 3, &fresh_origin);
    expectSameGraph(reused, fresh);
    EXPECT_EQ(reused_origin, fresh_origin);
}

// -------------------------------------------------------- splitNodes

TEST(PanGraph, SplitNodesPreservesPathSpelling)
{
    const PanGraph g = diamond();
    const PanGraph split = g.splitNodes(2);
    ASSERT_EQ(split.pathCount(), g.pathCount());
    for (PathId p = 0; p < g.pathCount(); ++p) {
        EXPECT_EQ(split.pathSequence(p).toString(),
                  g.pathSequence(p).toString());
    }
    // Node lengths now bounded by 2.
    EXPECT_EQ(split.stats().maxNodeLength, 2u);
    EXPECT_GT(split.nodeCount(), g.nodeCount());
}

TEST(PanGraph, SplitNodesHandlesReversePathSteps)
{
    PanGraph g;
    const NodeId a = g.addNode(Sequence("", "ACGTAC"));
    const NodeId b = g.addNode(Sequence("", "TTT"));
    g.addEdge(Handle(a, false), Handle(b, false));
    g.addEdge(Handle(b, false), Handle(a, true));
    g.addPath("loopy", {Handle(a, false), Handle(b, false),
                        Handle(a, true)});
    const std::string spelled = g.pathSequence(0).toString();
    const PanGraph split = g.splitNodes(4);
    EXPECT_EQ(split.pathSequence(0).toString(), spelled);
}

// -------------------------------------------------------------- GFA

TEST(Gfa, RoundTripPreservesStructureAndPaths)
{
    const PanGraph g = diamond();
    std::ostringstream out;
    writeGfa(out, g);
    std::istringstream in(out.str());
    const PanGraph parsed = readGfa(in);
    EXPECT_EQ(parsed.nodeCount(), g.nodeCount());
    EXPECT_EQ(parsed.edgeCount(), g.edgeCount());
    ASSERT_EQ(parsed.pathCount(), g.pathCount());
    for (PathId p = 0; p < g.pathCount(); ++p) {
        EXPECT_EQ(parsed.pathSequence(p).toString(),
                  g.pathSequence(p).toString());
    }
}

TEST(Gfa, ParsesReverseOrientations)
{
    std::istringstream in(
        "H\tVN:Z:1.0\n"
        "S\tx\tACGT\n"
        "S\ty\tTT\n"
        "L\tx\t+\ty\t-\t0M\n"
        "P\tw\tx+,y-\t*\n");
    const PanGraph g = readGfa(in);
    EXPECT_EQ(g.nodeCount(), 2u);
    EXPECT_EQ(g.pathSequence(0).toString(), "ACGTAA");
}

TEST(Gfa, RejectsUnknownSegment)
{
    std::istringstream in("S\tx\tACGT\nL\tx\t+\tz\t+\t0M\n");
    EXPECT_THROW(readGfa(in), core::FatalError);
}

TEST(Gfa, RejectsDuplicateSegment)
{
    std::istringstream in("S\tx\tACGT\nS\tx\tAC\n");
    EXPECT_THROW(readGfa(in), core::FatalError);
}

// -------------------------------------------------------- LocalGraph

TEST(LocalGraph, CsrAdjacency)
{
    LocalGraph g;
    const uint32_t a = g.addNode("AC");
    const uint32_t b = g.addNode("GT");
    const uint32_t c = g.addNode("A");
    g.addEdge(a, b);
    g.addEdge(a, c);
    g.addEdge(b, c);
    g.finalize();
    EXPECT_EQ(g.nodeCount(), 3u);
    EXPECT_EQ(g.edgeCount(), 3u);
    EXPECT_EQ(g.successors(a).size(), 2u);
    EXPECT_EQ(g.predecessors(c).size(), 2u);
    EXPECT_TRUE(g.isDag());
    EXPECT_EQ(g.topoOrder().size(), 3u);
    EXPECT_EQ(g.totalBases(), 5u);
}

TEST(LocalGraph, DetectsCycles)
{
    LocalGraph g;
    const uint32_t a = g.addNode("A");
    const uint32_t b = g.addNode("C");
    g.addEdge(a, b);
    g.addEdge(b, a);
    g.finalize();
    EXPECT_FALSE(g.isDag());
    EXPECT_TRUE(g.topoOrder().empty());
}

TEST(LocalGraph, TopoOrderRespectsEdges)
{
    LocalGraph g;
    for (int i = 0; i < 6; ++i)
        g.addNode("A");
    g.addEdge(3, 1);
    g.addEdge(1, 0);
    g.addEdge(4, 2);
    g.addEdge(0, 5);
    g.finalize();
    ASSERT_TRUE(g.isDag());
    std::vector<uint32_t> position(6);
    const auto &order = g.topoOrder();
    for (uint32_t i = 0; i < order.size(); ++i)
        position[order[i]] = i;
    EXPECT_LT(position[3], position[1]);
    EXPECT_LT(position[1], position[0]);
    EXPECT_LT(position[4], position[2]);
    EXPECT_LT(position[0], position[5]);
}

TEST(LocalGraph, SplitTo1bpMatchesPerBaseConstruction)
{
    // Cyclic extraction of a random graph, flattened: base b of node v
    // must become node nodeOffset(v) + b, chained within the node and
    // joined last-to-first across every original edge, exactly as a
    // graph built one base node at a time.
    const PanGraph g = randomBidirectedGraph(11);
    for (const bool cyclic : {false, true}) {
        LocalGraph graph;
        g.extractSubgraph(Handle(0, false), 1000, graph);
        ASSERT_GE(graph.nodeCount(), 2u);
        if (cyclic) {
            graph.addEdge(0, 1);
            graph.addEdge(1, 0);
            graph.finalize();
        }
        RefGraph want;
        std::vector<uint32_t> want_first, want_last;
        for (uint32_t v = 0; v < graph.nodeCount(); ++v) {
            for (const uint8_t base : graph.nodeSeq(v)) {
                const auto id = static_cast<uint32_t>(want.seqs.size());
                want.seqs.push_back({base});
                if (want_first.size() == v)
                    want_first.push_back(id);
                else
                    want.edges.emplace_back(id - 1, id);
            }
            want_last.push_back(
                static_cast<uint32_t>(want.seqs.size() - 1));
        }
        for (uint32_t v = 0; v < graph.nodeCount(); ++v) {
            for (uint32_t next : graph.successors(v))
                want.edges.emplace_back(want_last[v], want_first[next]);
        }
        want.finalize();
        std::vector<uint32_t> first;
        const LocalGraph split = graph.splitTo1bp(&first);
        expectSameGraph(split, want);
        EXPECT_EQ(first, want_first);
        EXPECT_EQ(split.isDag(), !cyclic);
        for (uint32_t v = 0; v < graph.nodeCount(); ++v)
            EXPECT_EQ(first[v], graph.nodeOffset(v));
    }
}

TEST(LocalGraph, SplitTo1bpPreservesSpelledWalks)
{
    LocalGraph g;
    const uint32_t a = g.addNode("ACG");
    const uint32_t b = g.addNode("TT");
    g.addEdge(a, b);
    g.finalize();
    std::vector<uint32_t> first;
    const LocalGraph split = g.splitTo1bp(&first);
    EXPECT_EQ(split.nodeCount(), 5u);
    EXPECT_EQ(split.edgeCount(), 4u); // 3 internal + 1 boundary
    EXPECT_TRUE(split.isDag());
    // Walk from first[a]: A -> C -> G -> T -> T.
    std::string spelled;
    uint32_t cur = first[a];
    for (;;) {
        spelled.push_back(seq::decodeBase(split.nodeSeq(cur)[0]));
        const auto succ = split.successors(cur);
        if (succ.empty())
            break;
        cur = succ[0];
    }
    EXPECT_EQ(spelled, "ACGTT");
}

TEST(LocalGraph, DuplicateEdgesCollapse)
{
    LocalGraph g;
    g.addNode("A");
    g.addNode("C");
    g.addEdge(0, 1);
    g.addEdge(0, 1);
    g.finalize();
    EXPECT_EQ(g.edgeCount(), 1u);
}

} // namespace
} // namespace pgb::graph
