#include "graph/local_graph.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "core/logging.hpp"
#include "seq/sequence.hpp"

namespace pgb::graph {

std::span<uint8_t>
LocalGraph::appendNode(size_t length)
{
    const size_t begin = bases_.size();
    if (length > std::numeric_limits<uint32_t>::max() - begin)
        core::fatal("LocalGraph::appendNode: more than 2^32 bases");
    bases_.resize(begin + length);
    nodeStart_.push_back(static_cast<uint32_t>(begin));
    finalized_ = false;
    return {bases_.data() + begin, length};
}

uint32_t
LocalGraph::addNode(std::span<const uint8_t> bases)
{
    const std::span<uint8_t> out = appendNode(bases.size());
    if (!bases.empty())
        std::memcpy(out.data(), bases.data(), bases.size());
    return static_cast<uint32_t>(nodeCount() - 1);
}

uint32_t
LocalGraph::addNode(const std::string &bases)
{
    return addNode(seq::encodeString(bases));
}

void
LocalGraph::addEdge(uint32_t from, uint32_t to)
{
    if (from >= nodeCount() || to >= nodeCount())
        core::fatal("LocalGraph::addEdge: node index out of range");
    edges_.emplace_back(from, to);
    finalized_ = false;
}

void
LocalGraph::clear()
{
    bases_.clear();
    nodeStart_.clear();
    edges_.clear();
    topoOrder_.clear();
    isDag_ = false;
    finalized_ = false;
}

void
LocalGraph::finalize()
{
    const auto n = static_cast<uint32_t>(nodeCount());
    std::sort(edges_.begin(), edges_.end());
    edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

    adjOffsets_.assign(n + 1, 0);
    predOffsets_.assign(n + 1, 0);
    for (const auto &[from, to] : edges_) {
        ++adjOffsets_[from + 1];
        ++predOffsets_[to + 1];
    }
    for (uint32_t i = 0; i < n; ++i) {
        adjOffsets_[i + 1] += adjOffsets_[i];
        predOffsets_[i + 1] += predOffsets_[i];
    }
    // Edges are sorted by source, so successor lists are the targets
    // in edge order; predecessor lists fill by cursor.
    adjTargets_.resize(edges_.size());
    predTargets_.resize(edges_.size());
    for (size_t e = 0; e < edges_.size(); ++e)
        adjTargets_[e] = edges_[e].second;
    work_.assign(predOffsets_.begin(), predOffsets_.end() - 1);
    for (const auto &[from, to] : edges_)
        predTargets_[work_[to]++] = from;

    // Kahn's algorithm, FIFO from the zero-in-degree nodes in
    // ascending index order (for determinism); topoOrder_ doubles as
    // the queue. A topological order exists iff the graph is a DAG.
    for (uint32_t v = 0; v < n; ++v)
        work_[v] = predOffsets_[v + 1] - predOffsets_[v];
    topoOrder_.clear();
    topoOrder_.reserve(n);
    for (uint32_t v = 0; v < n; ++v) {
        if (work_[v] == 0)
            topoOrder_.push_back(v);
    }
    for (size_t head = 0; head < topoOrder_.size(); ++head) {
        for (uint32_t child : successors(topoOrder_[head])) {
            if (--work_[child] == 0)
                topoOrder_.push_back(child);
        }
    }
    isDag_ = topoOrder_.size() == n;
    if (!isDag_)
        topoOrder_.clear();
    finalized_ = true;
}

LocalGraph
LocalGraph::splitTo1bp(std::vector<uint32_t> *first_base) const
{
    if (!finalized_)
        core::panic("LocalGraph::splitTo1bp before finalize()");
    // The base buffer carries over as is: base b of node v becomes
    // node nodeStart_[v] + b, chained to its neighbor within the node.
    LocalGraph out;
    out.bases_ = bases_;
    out.nodeStart_.resize(bases_.size());
    std::iota(out.nodeStart_.begin(), out.nodeStart_.end(), 0u);
    auto last_base = [&](uint32_t v) {
        return static_cast<uint32_t>(nodeStart_[v] + nodeLength(v) - 1);
    };
    for (uint32_t v = 0; v < nodeCount(); ++v) {
        if (nodeLength(v) == 0)
            core::fatal("LocalGraph::splitTo1bp: empty node ", v);
        for (uint32_t b = nodeStart_[v]; b < last_base(v); ++b)
            out.edges_.emplace_back(b, b + 1);
    }
    for (const auto &[from, to] : edges_)
        out.edges_.emplace_back(last_base(from), nodeStart_[to]);
    out.finalize();
    if (first_base != nullptr)
        *first_base = nodeStart_;
    return out;
}

} // namespace pgb::graph
