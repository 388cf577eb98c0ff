#include "store/shard_build.hpp"

#include <algorithm>
#include <numeric>

#include <sys/stat.h>

#include "core/logging.hpp"
#include "index/fm_index.hpp"
#include "index/gbwt.hpp"
#include "index/minimizer.hpp"
#include "obs/metrics.hpp"
#include "store/store.hpp"

namespace pgb::store {

namespace {

using core::fatal;

obs::Counter obsShardsBuilt("store.shards_built");

/** Path-compressed union-find over node ids. */
class UnionFind
{
  public:
    explicit UnionFind(size_t n) : parent_(n)
    {
        std::iota(parent_.begin(), parent_.end(), 0u);
    }

    uint32_t
    find(uint32_t x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    void
    unite(uint32_t a, uint32_t b)
    {
        a = find(a);
        b = find(b);
        if (a != b)
            parent_[std::max(a, b)] = std::min(a, b);
    }

  private:
    std::vector<uint32_t> parent_;
};

/** "dir/name.pgbs" -> "dir/name"; no-op without the extension. */
std::string
stemOf(const std::string &manifest_path)
{
    const std::string ext = ".pgbs";
    if (manifest_path.size() > ext.size() &&
        manifest_path.compare(manifest_path.size() - ext.size(),
                              ext.size(), ext) == 0)
        return manifest_path.substr(0,
                                    manifest_path.size() - ext.size());
    return manifest_path;
}

std::string
basenameOf(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/** Inclusive ranges of an ascending id list. */
std::vector<std::pair<uint32_t, uint32_t>>
compressRanges(const std::vector<uint32_t> &nodes)
{
    std::vector<std::pair<uint32_t, uint32_t>> ranges;
    for (uint32_t node : nodes) {
        if (!ranges.empty() && ranges.back().second + 1 == node)
            ranges.back().second = node;
        else
            ranges.emplace_back(node, node);
    }
    return ranges;
}

} // namespace

ShardManifest
buildShardSet(const graph::PanGraph &graph,
              const ShardBuildParams &params,
              const std::string &manifest_path)
{
    if (params.seeder != "minimizer" && params.seeder != "mem")
        fatal("pgb shard: unknown seeder '", params.seeder,
              "' (expected minimizer or mem)");
    if (graph.pathCount() == 0)
        fatal(manifest_path,
              ": cannot shard a pathless pangenome; shard sets are "
              "seeded along embedded paths (add P lines or use the "
              "monolithic `pgb index`)");

    const size_t node_count = graph.nodeCount();

    // ---- Connected components over the bidirected adjacency. An edge
    // links its two nodes regardless of orientation, so both
    // orientations of a node always land in the same component.
    UnionFind uf(node_count);
    for (uint32_t node = 0; node < node_count; ++node) {
        for (bool reverse : {false, true}) {
            const graph::Handle handle(node, reverse);
            for (const graph::Handle succ : graph.successors(handle))
                uf.unite(node, succ.node());
        }
    }

    // Components ordered by their minimum global node id (the
    // union-find root, since unite() keeps the smaller id as root).
    std::vector<uint32_t> componentOf(node_count);
    std::vector<std::vector<uint32_t>> componentNodes;
    {
        std::vector<uint32_t> rootToComponent(node_count, UINT32_MAX);
        for (uint32_t node = 0; node < node_count; ++node) {
            const uint32_t root = uf.find(node);
            if (rootToComponent[root] == UINT32_MAX) {
                rootToComponent[root] =
                    static_cast<uint32_t>(componentNodes.size());
                componentNodes.emplace_back();
            }
            componentOf[node] = rootToComponent[root];
            componentNodes[rootToComponent[root]].push_back(node);
        }
    }

    // ---- Size estimate per component: sequence bytes dominate; the
    // per-node/per-step constants approximate section overhead.
    std::vector<uint64_t> componentBytes(componentNodes.size(), 0);
    for (size_t c = 0; c < componentNodes.size(); ++c) {
        for (uint32_t node : componentNodes[c])
            componentBytes[c] += graph.nodeLength(node) + 48;
    }
    for (graph::PathId path = 0; path < graph.pathCount(); ++path) {
        const auto &steps = graph.pathSteps(path);
        componentBytes[componentOf[steps.front().node()]] +=
            steps.size() * 16;
    }

    // ---- Greedy consecutive binning in component order.
    const uint64_t target_bytes = params.targetShardMb * (1ull << 20);
    std::vector<uint32_t> shardOfComponent(componentNodes.size(), 0);
    uint32_t shard_count = 0;
    {
        uint64_t bin_bytes = 0;
        bool bin_open = false;
        for (size_t c = 0; c < componentNodes.size(); ++c) {
            const bool close = !bin_open ? false
                : target_bytes == 0 ||
                  bin_bytes + componentBytes[c] > target_bytes;
            if (close) {
                ++shard_count;
                bin_bytes = 0;
            }
            shardOfComponent[c] = shard_count;
            bin_bytes += componentBytes[c];
            bin_open = true;
        }
        if (bin_open)
            ++shard_count;
    }

    // ---- Monolith facts every shard needs: linearization bases (for
    // SLIN; the same prefix sum pipeline::GraphLinearization computes)
    // and the overall stats (for the manifest meta line).
    std::vector<uint64_t> linearBase(node_count);
    {
        uint64_t running = 0;
        for (uint32_t node = 0; node < node_count; ++node) {
            linearBase[node] = running;
            running += graph.nodeLength(node);
        }
    }
    const graph::GraphStats stats = graph.stats();

    ShardManifest manifest;
    manifest.nodeCount = stats.nodeCount;
    manifest.edgeCount = stats.edgeCount;
    manifest.pathCount = stats.pathCount;
    manifest.totalBases = stats.totalBases;
    manifest.k = static_cast<uint32_t>(params.k);
    manifest.w = static_cast<uint32_t>(params.w);
    manifest.seeder = params.seeder;
    manifest.hasGbwt = true;
    manifest.path = manifest_path;

    for (size_t c = 0; c < componentNodes.size(); ++c) {
        ComponentEntry entry;
        entry.shard = shardOfComponent[c];
        entry.nodes = componentNodes[c].size();
        entry.ranges = compressRanges(componentNodes[c]);
        manifest.components.push_back(std::move(entry));
    }

    // ---- Emit each shard: an order-preserving renumbering of its
    // components' nodes, the replayed adjacency, the monolith-order
    // paths, per-shard indexes, and the SNOD/SLIN projection.
    const std::string stem = stemOf(manifest_path);
    std::vector<uint32_t> globalToLocal(node_count, 0);
    for (uint32_t shard = 0; shard < shard_count; ++shard) {
        std::vector<uint32_t> globals;
        for (size_t c = 0; c < componentNodes.size(); ++c) {
            if (shardOfComponent[c] != shard)
                continue;
            globals.insert(globals.end(), componentNodes[c].begin(),
                           componentNodes[c].end());
        }
        std::sort(globals.begin(), globals.end());

        graph::PanGraph shard_graph;
        ShardExtras extras;
        extras.origNodes = globals;
        extras.linearBases.reserve(globals.size());
        for (size_t local = 0; local < globals.size(); ++local) {
            globalToLocal[globals[local]] =
                static_cast<uint32_t>(local);
            shard_graph.addNode(graph.nodeSequence(globals[local]));
            extras.linearBases.push_back(linearBase[globals[local]]);
        }
        // addEdge dedupes and mirrors, so replaying every oriented
        // successor list reproduces the monolith's edge set exactly.
        for (uint32_t global : globals) {
            for (bool reverse : {false, true}) {
                const graph::Handle from(global, reverse);
                for (const graph::Handle to :
                     graph.successors(from)) {
                    shard_graph.addEdge(
                        graph::Handle(globalToLocal[global], reverse),
                        graph::Handle(globalToLocal[to.node()],
                                      to.isReverse()));
                }
            }
        }
        for (graph::PathId path = 0; path < graph.pathCount();
             ++path) {
            const auto &steps = graph.pathSteps(path);
            if (shardOfComponent[componentOf[steps.front().node()]] !=
                shard)
                continue;
            std::vector<graph::Handle> local_steps;
            local_steps.reserve(steps.size());
            for (const graph::Handle step : steps)
                local_steps.emplace_back(globalToLocal[step.node()],
                                         step.isReverse());
            shard_graph.addPath(graph.pathName(path),
                                std::move(local_steps));
        }

        // A monolith with embedded paths indexes along paths only, so
        // a pathless shard contributes nothing to seeding: it gets an
        // empty index (never the per-node fallback, which would
        // invent seeds the monolith does not have) and no GBWT/FM.
        std::unique_ptr<index::MinimizerIndex> minimizers;
        std::unique_ptr<index::GbwtIndex> gbwt;
        std::unique_ptr<index::FmIndex> fm;
        if (shard_graph.pathCount() > 0) {
            minimizers = std::make_unique<index::MinimizerIndex>(
                shard_graph, params.k, params.w, params.threads);
            gbwt = std::make_unique<index::GbwtIndex>(shard_graph,
                                                      true,
                                                      params.threads);
            if (params.seeder == "mem")
                fm = std::make_unique<index::FmIndex>(
                    shard_graph, params.fmSampleRate);
        } else {
            minimizers = std::make_unique<index::MinimizerIndex>(
                params.k, params.w);
        }

        const std::string file =
            basenameOf(stem) + ".shard" + std::to_string(shard) +
            ".pgbi";
        const std::string shard_path =
            stem + ".shard" + std::to_string(shard) + ".pgbi";
        writeArtifact(shard_path, shard_graph, *minimizers, gbwt.get(),
                      fm.get(), &extras);

        ShardEntry entry;
        entry.file = file;
        entry.digest = readTableChecksum(shard_path);
        entry.nodes = globals.size();
        entry.paths = shard_graph.pathCount();
        struct stat info = {};
        if (::stat(shard_path.c_str(), &info) != 0)
            fatal(shard_path, ": cannot stat freshly written shard");
        entry.bytes = static_cast<uint64_t>(info.st_size);
        manifest.shards.push_back(std::move(entry));
        obsShardsBuilt.add();
    }

    manifest.save(manifest_path);
    return manifest;
}

} // namespace pgb::store
