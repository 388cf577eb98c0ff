/**
 * @file
 * LocalGraph: the kernel-facing oriented sequence graph.
 *
 * Mapping kernels (GSSW, GBV, GWFA) do not run on the whole bidirected
 * pangenome; they run on small oriented subgraphs extracted around seed
 * hits (a key finding of the paper: these subgraphs are cache-friendly).
 * LocalGraph is that extracted form: orientation is already resolved
 * into node sequences, adjacency is CSR, and a topological order is
 * available when the graph is acyclic.
 *
 * Storage is flat: every node's bases live in one buffer, in node
 * order, node v starting at nodeOffset(v). clear() empties the
 * graph but keeps every allocation, so a LocalGraph reused per
 * alignment task (the mapper keeps one per thread) stops touching
 * malloc once its buffers reach their high-water size.
 */

#ifndef PGB_GRAPH_LOCAL_GRAPH_HPP
#define PGB_GRAPH_LOCAL_GRAPH_HPP

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace pgb::graph {

/** Oriented sequence graph in CSR form. Build, then finalize(). */
class LocalGraph
{
  public:
    /**
     * Add a node with encoded @p bases (which must not view this
     * graph's own buffer). @return its index.
     */
    uint32_t addNode(std::span<const uint8_t> bases);

    /** Convenience: add a node from an ASCII string. */
    uint32_t addNode(const std::string &bases);

    /**
     * Add a node of @p length bases that the caller writes through
     * the returned span (valid until the next addNode/appendNode).
     * Its index is nodeCount() - 1.
     */
    std::span<uint8_t> appendNode(size_t length);

    /** Add a directed edge @p from -> @p to. */
    void addEdge(uint32_t from, uint32_t to);

    /** Remove every node and edge, keeping all allocations. */
    void clear();

    /**
     * Freeze the topology: build CSR adjacency, predecessor lists, and
     * (when acyclic) a topological order. Must be called before any
     * query; edges added afterwards require re-finalizing.
     */
    void finalize();

    size_t nodeCount() const { return nodeStart_.size(); }
    size_t edgeCount() const { return edges_.size(); }

    std::span<const uint8_t>
    nodeSeq(uint32_t node) const
    {
        return {bases_.data() + nodeStart_[node], nodeLength(node)};
    }
    size_t
    nodeLength(uint32_t node) const
    {
        const size_t end = node + 1 < nodeStart_.size()
            ? nodeStart_[node + 1] : bases_.size();
        return end - nodeStart_[node];
    }
    /** Offset of @p node's first base in the flat base buffer. */
    size_t nodeOffset(uint32_t node) const { return nodeStart_[node]; }

    /** Total bases across all nodes. */
    size_t totalBases() const { return bases_.size(); }

    std::span<const uint32_t>
    successors(uint32_t node) const
    {
        return {adjTargets_.data() + adjOffsets_[node],
                adjOffsets_[node + 1] - adjOffsets_[node]};
    }

    std::span<const uint32_t>
    predecessors(uint32_t node) const
    {
        return {predTargets_.data() + predOffsets_[node],
                predOffsets_[node + 1] - predOffsets_[node]};
    }

    /** Whether the graph is a DAG (valid after finalize()). */
    bool isDag() const { return isDag_; }

    /**
     * Topological order (node indices). Valid only when isDag(); empty
     * otherwise.
     */
    const std::vector<uint32_t> &topoOrder() const { return topoOrder_; }

    /**
     * Expand into an equivalent graph whose nodes all carry exactly one
     * base, as GraphAligner does before bit-vector alignment (GBV rows
     * are one-base nodes, paper Figure 4b). Preserves cycles. Base b of
     * node v becomes node nodeOffset(v) + b.
     *
     * @param[out] first_base optional map from original node index to
     *        the index of its first base node in the result.
     */
    LocalGraph splitTo1bp(std::vector<uint32_t> *first_base = nullptr) const;

  private:
    std::vector<uint8_t> bases_;
    /// nodeStart_[v] = offset of node v's first base in bases_.
    std::vector<uint32_t> nodeStart_;
    std::vector<std::pair<uint32_t, uint32_t>> edges_;

    std::vector<uint32_t> adjOffsets_, adjTargets_;
    std::vector<uint32_t> predOffsets_, predTargets_;
    std::vector<uint32_t> topoOrder_;
    /// finalize()'s working array (fill cursors, then in-degrees).
    std::vector<uint32_t> work_;
    bool isDag_ = false;
    bool finalized_ = false;
};

} // namespace pgb::graph

#endif // PGB_GRAPH_LOCAL_GRAPH_HPP
