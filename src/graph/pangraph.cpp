#include "graph/pangraph.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "core/logging.hpp"
#include "core/scratch.hpp"

namespace pgb::graph {

using core::fatal;

NodeId
PanGraph::addNode(seq::Sequence bases)
{
    if (bases.empty())
        fatal("PanGraph::addNode: empty node sequence");
    sequences_.push_back(std::move(bases));
    adjacency_.resize(sequences_.size() * 2);
    return static_cast<NodeId>(sequences_.size() - 1);
}

seq::Sequence
PanGraph::sequenceOf(Handle handle) const
{
    const seq::Sequence &forward = sequences_[handle.node()];
    return handle.isReverse() ? forward.reverseComplement() : forward;
}

uint8_t
PanGraph::baseAt(Handle handle, size_t offset) const
{
    const seq::Sequence &forward = sequences_[handle.node()];
    if (!handle.isReverse())
        return forward[offset];
    return seq::complementBase(forward[forward.size() - 1 - offset]);
}

void
PanGraph::addEdge(Handle from, Handle to)
{
    if (from.node() >= nodeCount() || to.node() >= nodeCount())
        fatal("PanGraph::addEdge: node out of range");
    if (hasEdge(from, to))
        return;
    adjacency_[from.packed()].push_back(to);
    // Bidirected mirror: traversing the edge in the opposite direction.
    const Handle mirror_from = to.flipped();
    const Handle mirror_to = from.flipped();
    if (!(mirror_from == from && mirror_to == to))
        adjacency_[mirror_from.packed()].push_back(mirror_to);
    ++edgeCount_;
}

bool
PanGraph::hasEdge(Handle from, Handle to) const
{
    const auto &out = adjacency_[from.packed()];
    return std::find(out.begin(), out.end(), to) != out.end();
}

std::vector<Handle>
PanGraph::predecessors(Handle handle) const
{
    // Predecessors of h are the flips of the successors of h.flipped().
    std::vector<Handle> preds;
    for (Handle succ : adjacency_[handle.flipped().packed()])
        preds.push_back(succ.flipped());
    return preds;
}

PathId
PanGraph::addPath(std::string name, std::vector<Handle> steps)
{
    if (steps.empty())
        fatal("PanGraph::addPath: empty path '", name, "'");
    for (size_t i = 0; i + 1 < steps.size(); ++i) {
        if (!hasEdge(steps[i], steps[i + 1])) {
            fatal("PanGraph::addPath: path '", name,
                  "' step ", i, " is not connected by an edge");
        }
    }
    if (pathIndex_.count(name) != 0)
        fatal("PanGraph::addPath: duplicate path name '", name, "'");
    paths_.push_back(std::move(steps));
    pathNames_.push_back(name);
    const auto id = static_cast<PathId>(paths_.size() - 1);
    pathIndex_.emplace(std::move(name), id);
    return id;
}

size_t
PanGraph::pathLength(PathId path) const
{
    size_t length = 0;
    for (Handle step : paths_[path])
        length += nodeLength(step.node());
    return length;
}

seq::Sequence
PanGraph::pathSequence(PathId path) const
{
    seq::Sequence out;
    out.setName(pathNames_[path]);
    for (Handle step : paths_[path])
        out.append(sequenceOf(step));
    return out;
}

GraphStats
PanGraph::stats() const
{
    GraphStats stats;
    stats.nodeCount = nodeCount();
    stats.edgeCount = edgeCount();
    stats.pathCount = pathCount();
    for (const auto &sequence : sequences_) {
        stats.totalBases += sequence.size();
        stats.maxNodeLength = std::max(stats.maxNodeLength,
                                       sequence.size());
    }
    if (stats.nodeCount > 0) {
        stats.avgNodeLength = static_cast<double>(stats.totalBases) /
                              static_cast<double>(stats.nodeCount);
        size_t out_degree = 0;
        for (const auto &adjacent : adjacency_)
            out_degree += adjacent.size();
        stats.avgOutDegree = static_cast<double>(out_degree) /
                             static_cast<double>(adjacency_.size());
    }
    return stats;
}

namespace {

/**
 * Per-thread working state of extractSubgraph's Dijkstra. Every handle
 * the search reaches gets one Visit; `slots` is an open-addressing
 * (linear probing) table from packed handle to its Visit index. The
 * next call empties exactly the slots the visits occupy, so the reset
 * costs the handles touched, not the table's high-water size.
 */
struct ExtractScratch
{
    static constexpr uint32_t kEmpty = UINT32_MAX;

    struct Visit
    {
        size_t dist;
        uint32_t packed;
        uint32_t slot; ///< position in `slots`
    };
    struct QueueEntry
    {
        size_t dist;
        uint32_t visit;
    };

    std::vector<uint32_t> slots; ///< Visit index, or kEmpty
    std::vector<Visit> visits;
    std::vector<QueueEntry> heap; ///< min-heap on dist
    uint32_t shift = 0;           ///< 32 - log2(slots.size())

    void
    reset()
    {
        for (const Visit &visit : visits)
            slots[visit.slot] = kEmpty;
        visits.clear();
        heap.clear();
        if (slots.empty())
            rehash(1024);
    }

    uint32_t
    home(uint32_t packed) const
    {
        return (packed * 0x9E3779B1u) >> shift;
    }

    /** Visit index of @p packed, or kEmpty. */
    uint32_t
    find(uint32_t packed) const
    {
        const auto mask = static_cast<uint32_t>(slots.size() - 1);
        for (uint32_t s = home(packed);; s = (s + 1) & mask) {
            const uint32_t index = slots[s];
            if (index == kEmpty || visits[index].packed == packed)
                return index;
        }
    }

    /** Visit index of @p packed, adding an unreached Visit if new. */
    uint32_t
    findOrAdd(uint32_t packed)
    {
        if ((visits.size() + 1) * 2 > slots.size())
            rehash(slots.size() * 2);
        const auto mask = static_cast<uint32_t>(slots.size() - 1);
        uint32_t s = home(packed);
        for (; slots[s] != kEmpty; s = (s + 1) & mask) {
            if (visits[slots[s]].packed == packed)
                return slots[s];
        }
        slots[s] = static_cast<uint32_t>(visits.size());
        visits.push_back({SIZE_MAX, packed, s});
        return slots[s];
    }

    /** Re-seat every visit in a table of @p capacity (a power of 2). */
    void
    rehash(size_t capacity)
    {
        slots.assign(capacity, kEmpty);
        shift = 32 - static_cast<uint32_t>(std::countr_zero(capacity));
        const auto mask = static_cast<uint32_t>(capacity - 1);
        for (uint32_t i = 0; i < visits.size(); ++i) {
            uint32_t s = home(visits[i].packed);
            while (slots[s] != kEmpty)
                s = (s + 1) & mask;
            slots[s] = i;
            visits[i].slot = s;
        }
    }
};

} // namespace

void
PanGraph::extractSubgraph(Handle start, size_t radius, LocalGraph &out,
                          uint32_t *origin) const
{
    // Dijkstra outward from `start` in both directions, distance in
    // bases. A handle and its flip are distinct local nodes (reverse
    // strand unrolling).
    ExtractScratch &ws = core::threadScratch<ExtractScratch>();
    ws.reset();
    auto later = [](const ExtractScratch::QueueEntry &a,
                    const ExtractScratch::QueueEntry &b) {
        return a.dist > b.dist;
    };
    auto reach = [&](uint32_t packed, size_t dist) {
        const uint32_t index = ws.findOrAdd(packed);
        if (dist < ws.visits[index].dist) {
            ws.visits[index].dist = dist;
            ws.heap.push_back({dist, index});
            std::push_heap(ws.heap.begin(), ws.heap.end(), later);
        }
    };
    reach(start.packed(), 0);
    while (!ws.heap.empty()) {
        std::pop_heap(ws.heap.begin(), ws.heap.end(), later);
        const ExtractScratch::QueueEntry entry = ws.heap.back();
        ws.heap.pop_back();
        if (entry.dist > ws.visits[entry.visit].dist)
            continue; // superseded by a shorter path
        const uint32_t packed = ws.visits[entry.visit].packed;
        const size_t step = nodeLength(packed >> 1);
        for (Handle next : adjacency_[packed]) {
            if (entry.dist + step <= radius)
                reach(next.packed(), entry.dist + step);
        }
        // Predecessors of h are the flips of the successors of
        // h.flipped().
        for (Handle flipped_prev : adjacency_[packed ^ 1u]) {
            const size_t dist =
                entry.dist + nodeLength(flipped_prev.node());
            if (dist <= radius)
                reach(flipped_prev.packed() ^ 1u, dist);
        }
    }

    // Deterministic local ids: a handle's local id is its rank in
    // (distance, packed handle) order.
    std::sort(ws.visits.begin(), ws.visits.end(),
              [](const ExtractScratch::Visit &a,
                 const ExtractScratch::Visit &b) {
                  return a.dist < b.dist ||
                         (a.dist == b.dist && a.packed < b.packed);
              });
    out.clear();
    for (uint32_t id = 0; id < ws.visits.size(); ++id) {
        const ExtractScratch::Visit &visit = ws.visits[id];
        ws.slots[visit.slot] = id;
        const Handle handle = Handle::fromPacked(visit.packed);
        const std::vector<uint8_t> &forward =
            sequences_[handle.node()].codes();
        if (!handle.isReverse()) {
            out.addNode(forward);
            continue;
        }
        seq::reverseComplementInto(forward, out.appendNode(forward.size()));
    }

    // Keep only edges that do not create cycles: an edge u->v survives
    // when it respects the (distance, id) order. This DAG-ification
    // mirrors vg's acyclic extraction for GSSW.
    for (uint32_t from = 0; from < ws.visits.size(); ++from) {
        for (Handle next : adjacency_[ws.visits[from].packed]) {
            const uint32_t to = ws.find(next.packed());
            if (to != ExtractScratch::kEmpty && from < to)
                out.addEdge(from, to);
        }
    }
    out.finalize();
    if (origin != nullptr)
        *origin = ws.find(start.packed());
}

PanGraph
PanGraph::splitNodes(size_t max_length) const
{
    if (max_length == 0)
        fatal("PanGraph::splitNodes: max_length must be positive");
    PanGraph out;
    std::vector<NodeId> first(nodeCount());
    std::vector<NodeId> last(nodeCount());
    for (NodeId node = 0; node < nodeCount(); ++node) {
        const seq::Sequence &bases = sequences_[node];
        NodeId prev = 0;
        bool have_prev = false;
        for (size_t offset = 0; offset < bases.size();
             offset += max_length) {
            const NodeId id = out.addNode(
                bases.slice(offset, max_length));
            if (!have_prev)
                first[node] = id;
            else
                out.addEdge(Handle(prev, false), Handle(id, false));
            prev = id;
            have_prev = true;
        }
        last[node] = prev;
    }

    auto entry_of = [&](Handle h) {
        return h.isReverse() ? Handle(last[h.node()], true)
                             : Handle(first[h.node()], false);
    };
    auto exit_of = [&](Handle h) {
        return h.isReverse() ? Handle(first[h.node()], true)
                             : Handle(last[h.node()], false);
    };

    for (NodeId node = 0; node < nodeCount(); ++node) {
        for (bool reverse : {false, true}) {
            const Handle handle(node, reverse);
            for (Handle next : successors(handle))
                out.addEdge(exit_of(handle), entry_of(next));
        }
    }

    for (PathId path = 0; path < pathCount(); ++path) {
        std::vector<Handle> steps;
        for (Handle step : paths_[path]) {
            const NodeId node = step.node();
            if (!step.isReverse()) {
                for (NodeId sub = first[node]; sub <= last[node]; ++sub)
                    steps.emplace_back(sub, false);
            } else {
                for (NodeId sub = last[node] + 1; sub-- > first[node];)
                    steps.emplace_back(sub, true);
            }
        }
        out.addPath(pathNames_[path], std::move(steps));
    }
    return out;
}

size_t
PanGraph::shortestPathBases(Handle from, Handle to, size_t limit) const
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
    for (Handle succ : successors(from)) {
        dist[succ.packed()] = 0;
        queue.push({0, succ.packed()});
    }
    while (!queue.empty()) {
        const Entry entry = queue.top();
        queue.pop();
        auto it = dist.find(entry.packed);
        if (it == dist.end() || it->second < entry.dist)
            continue;
        const Handle handle = Handle::fromPacked(entry.packed);
        if (handle == to)
            return entry.dist;
        const size_t next_dist = entry.dist + nodeLength(handle.node());
        if (next_dist > limit)
            continue;
        for (Handle next : successors(handle)) {
            auto found = dist.find(next.packed());
            if (found == dist.end() || next_dist < found->second) {
                dist[next.packed()] = next_dist;
                queue.push({next_dist, next.packed()});
            }
        }
    }
    return std::numeric_limits<size_t>::max();
}

PanGraph
PanGraph::restore(std::vector<seq::Sequence> sequences,
                  std::vector<std::vector<Handle>> adjacency,
                  size_t edge_count,
                  std::vector<std::vector<Handle>> paths,
                  std::vector<std::string> path_names)
{
    PanGraph graph;
    if (adjacency.size() != sequences.size() * 2)
        core::panic("PanGraph::restore: adjacency size mismatch");
    if (paths.size() != path_names.size())
        core::panic("PanGraph::restore: path name count mismatch");
    graph.sequences_ = std::move(sequences);
    graph.adjacency_ = std::move(adjacency);
    graph.edgeCount_ = edge_count;
    graph.paths_ = std::move(paths);
    graph.pathNames_ = std::move(path_names);
    for (PathId p = 0; p < graph.pathNames_.size(); ++p)
        graph.pathIndex_.emplace(graph.pathNames_[p], p);
    return graph;
}

} // namespace pgb::graph
