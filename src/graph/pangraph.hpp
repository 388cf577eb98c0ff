/**
 * @file
 * Bidirected pangenome sequence graph with embedded paths.
 *
 * Nodes carry DNA subsequences; directed bidirected edges connect
 * oriented node ends; named paths (haplotypes) are walks through the
 * graph. This is the reference structure every mapping kernel consumes
 * and every graph-building kernel produces (paper Figure 1.1).
 */

#ifndef PGB_GRAPH_PANGRAPH_HPP
#define PGB_GRAPH_PANGRAPH_HPP

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/handle.hpp"
#include "graph/local_graph.hpp"
#include "seq/sequence.hpp"

namespace pgb::graph {

/** Dense path identifier. */
using PathId = uint32_t;

/** Summary statistics of a graph (paper §6.2 discusses their impact). */
struct GraphStats
{
    size_t nodeCount = 0;
    size_t edgeCount = 0;
    size_t pathCount = 0;
    size_t totalBases = 0;
    double avgNodeLength = 0.0;
    size_t maxNodeLength = 0;
    double avgOutDegree = 0.0;
};

/**
 * Bidirected sequence graph.
 *
 * Edges are stored per oriented handle: an edge (a, b) means a walk may
 * leave handle a and enter handle b; the mirror edge (b.flipped(),
 * a.flipped()) is maintained automatically.
 */
class PanGraph
{
  public:
    /** Add a node carrying @p bases. @return its id. */
    NodeId addNode(seq::Sequence bases);

    /** Number of nodes. */
    size_t nodeCount() const { return sequences_.size(); }

    /** Number of distinct bidirected edges. */
    size_t edgeCount() const { return edgeCount_; }

    /** Length in bases of node @p node. */
    size_t
    nodeLength(NodeId node) const
    {
        return sequences_[node].size();
    }

    /** Forward-orientation sequence of node @p node. */
    const seq::Sequence &nodeSequence(NodeId node) const
    {
        return sequences_[node];
    }

    /** Sequence of @p handle in its orientation. */
    seq::Sequence sequenceOf(Handle handle) const;

    /** Base at offset @p offset along @p handle (orientation applied). */
    uint8_t baseAt(Handle handle, size_t offset) const;

    /** Add edge @p from -> @p to (and its bidirected mirror). */
    void addEdge(Handle from, Handle to);

    /** Whether the edge @p from -> @p to exists. */
    bool hasEdge(Handle from, Handle to) const;

    /** Handles reachable by one edge from @p handle. */
    const std::vector<Handle> &successors(Handle handle) const
    {
        return adjacency_[handle.packed()];
    }

    /** Handles with an edge into @p handle. */
    std::vector<Handle> predecessors(Handle handle) const;

    /**
     * Register a named path (haplotype walk). Consecutive steps must be
     * connected by edges; violations are fatal().
     * @return the path id.
     */
    PathId addPath(std::string name, std::vector<Handle> steps);

    size_t pathCount() const { return paths_.size(); }
    const std::string &pathName(PathId path) const
    {
        return pathNames_[path];
    }
    const std::vector<Handle> &pathSteps(PathId path) const
    {
        return paths_[path];
    }

    /** Length in bases of path @p path. */
    size_t pathLength(PathId path) const;

    /** Concatenated sequence spelled by path @p path. */
    seq::Sequence pathSequence(PathId path) const;

    /** Summary statistics. */
    GraphStats stats() const;

    /**
     * Extract the local neighborhood around @p start into @p out:
     * every oriented handle reachable within @p radius bases forward
     * and backward. Back edges that would create cycles with respect
     * to the (distance, handle) discovery order are dropped so the
     * result is a DAG, mirroring vg's acyclic subgraph extraction for
     * GSSW. @p out is cleared first and its allocations reused; the
     * search state lives in per-thread scratch, so a warm extraction
     * allocates nothing. @p out owns its bases (reverse handles are
     * written reverse-complemented).
     *
     * @param[out] origin index in @p out of @p start.
     */
    void extractSubgraph(Handle start, size_t radius, LocalGraph &out,
                         uint32_t *origin = nullptr) const;

    /**
     * Split every node longer than @p max_length into a chain of nodes
     * of at most @p max_length bases (the paper's Split-M-Graph
     * transform, §6.2). Paths and edges are rewritten accordingly.
     * @return the transformed graph.
     */
    PanGraph splitNodes(size_t max_length) const;

    /**
     * Shortest path distance in bases from the end of @p from to the
     * start of @p to, bounded by @p limit (returns SIZE_MAX if farther
     * or unreachable). Used by graph-aware chaining.
     */
    size_t shortestPathBases(Handle from, Handle to, size_t limit) const;

    /**
     * Reconstruct a graph directly from its serialized parts
     * (pgb::store artifact loading). The inputs must come from a
     * previously serialized graph: no edge mirroring, connectivity
     * validation, or dedup runs, so restoring is one linear pass and
     * the restored graph is bit-identical to the one written
     * (node ids, adjacency order, and path order all preserved).
     * Structural violations are panic()s, not fatal()s — the store
     * layer checksums sections before calling.
     */
    static PanGraph restore(std::vector<seq::Sequence> sequences,
                            std::vector<std::vector<Handle>> adjacency,
                            size_t edge_count,
                            std::vector<std::vector<Handle>> paths,
                            std::vector<std::string> path_names);

  private:
    std::vector<seq::Sequence> sequences_;
    /// adjacency_[handle.packed()] = successor handles
    std::vector<std::vector<Handle>> adjacency_;
    size_t edgeCount_ = 0;

    std::vector<std::vector<Handle>> paths_;
    std::vector<std::string> pathNames_;
    std::unordered_map<std::string, PathId> pathIndex_;
};

} // namespace pgb::graph

#endif // PGB_GRAPH_PANGRAPH_HPP
