#include "pipeline/shard_set.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <mutex>

#include "core/logging.hpp"
#include "core/scratch.hpp"
#include "index/fm_index.hpp"
#include "index/gbwt.hpp"
#include "index/minimizer.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pipeline/chain.hpp"
#include "pipeline/source.hpp"
#include "store/store.hpp"

namespace pgb::pipeline {

namespace {

using core::fatal;

obs::Counter obsShardLoads("shard.loads");
obs::Counter obsShardEvictions("shard.evictions");
obs::Counter obsShardHits("shard.hits");
obs::Gauge obsShardResident("shard.resident");
obs::Gauge obsShardResidentBytes("shard.resident_bytes");

std::string
hex16(uint64_t value)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
    return buffer;
}

/** Step start offsets of every path of @p graph (LoadedShard). */
std::vector<std::vector<uint64_t>>
pathStepStarts(const graph::PanGraph &graph)
{
    std::vector<std::vector<uint64_t>> step_starts(graph.pathCount());
    for (graph::PathId p = 0; p < graph.pathCount(); ++p) {
        const auto &steps = graph.pathSteps(p);
        auto &starts = step_starts[p];
        starts.reserve(steps.size() + 1);
        uint64_t at = 0;
        for (graph::Handle step : steps) {
            starts.push_back(at);
            at += graph.nodeLength(step.node());
        }
        starts.push_back(at);
    }
    return step_starts;
}

} // namespace

// ---------------------------------------------------------------------
// LoadedShard
// ---------------------------------------------------------------------

std::shared_ptr<const LoadedShard>
LoadedShard::fromArtifact(std::unique_ptr<const store::Artifact> artifact,
                          bool identity)
{
    auto shard = std::make_shared<LoadedShard>();
    shard->graph = &artifact->graph();
    shard->minimizers = &artifact->minimizers();
    shard->gbwt = artifact->gbwt();
    shard->fm = artifact->fmIndex();
    if (identity) {
        shard->linear_ =
            std::make_unique<GraphLinearization>(*shard->graph);
        shard->linearBases = shard->linear_->nodeStarts();
    } else {
        shard->origNodes = artifact->origNodes();
        shard->linearBases = artifact->linearBases();
    }
    shard->bytes = artifact->sizeBytes();
    shard->artifact_ = std::move(artifact);
    shard->finish();
    return shard;
}

std::shared_ptr<const LoadedShard>
LoadedShard::build(const graph::PanGraph &graph, int k, int w,
                   unsigned threads, bool build_gbwt, bool build_fm,
                   uint32_t fm_sample_rate)
{
    auto shard = std::make_shared<LoadedShard>();
    shard->graph = &graph;
    shard->builtMinimizers_ =
        std::make_unique<index::MinimizerIndex>(graph, k, w, threads);
    shard->minimizers = shard->builtMinimizers_.get();
    if (build_gbwt) {
        shard->builtGbwt_ =
            std::make_unique<index::GbwtIndex>(graph, true, threads);
        shard->gbwt = shard->builtGbwt_.get();
    }
    if (build_fm) {
        shard->builtFm_ =
            std::make_unique<index::FmIndex>(graph, fm_sample_rate);
        shard->fm = shard->builtFm_.get();
    }
    shard->linear_ = std::make_unique<GraphLinearization>(graph);
    shard->linearBases = shard->linear_->nodeStarts();
    // The sizes of the flat tables; the graph is not counted.
    const index::MinimizerIndex &minimizers = *shard->minimizers;
    shard->bytes = minimizers.flatTable().size_bytes() +
                   minimizers.allHits().size_bytes() +
                   shard->linearBases.size_bytes();
    if (shard->gbwt != nullptr)
        shard->bytes += shard->gbwt->words().size_bytes();
    if (shard->fm != nullptr) {
        const index::FmIndex &fm = *shard->fm;
        shard->bytes += fm.bwtData().size_bytes() +
                        fm.sampleData().size_bytes() +
                        fm.markData().size_bytes() +
                        fm.pathOffsetsData().size_bytes();
    }
    shard->finish();
    return shard;
}

void
LoadedShard::finish()
{
    // The heap every shard derives beside its tables is resident too.
    bytes += minimizers->derivedBytes();
    if (gbwt != nullptr)
        bytes += gbwt->derivedBytes();
    if (fm == nullptr)
        return;
    if (fm->pathCount() != graph->pathCount())
        fatal("FM-index covers ", fm->pathCount(), " paths, graph has ",
              graph->pathCount());
    stepStarts = pathStepStarts(*graph);
    bytes += fm->derivedBytes();
    for (const auto &starts : stepStarts)
        bytes += starts.size() * sizeof(uint64_t);
}

// ---------------------------------------------------------------------
// ShardCache
// ---------------------------------------------------------------------

/**
 * The resident set of a GraphSource: shared_ptr pins per shard, a soft
 * LRU byte budget, and the shard.* metrics. get() is the only entry
 * point once open; every call re-evaluates the budget, so a cache over
 * budget sheds unpinned shards as soon as their pins drop — never
 * while any open PinSet still holds one. Residency is charged in each
 * shard's own LoadedShard::bytes, on load, eviction and destruction
 * alike.
 */
class ShardCache
{
  public:
    ShardCache(const store::ShardManifest &manifest,
               const store::ShardRouter &router, uint64_t budget_bytes);
    ~ShardCache();

    ShardCache(const ShardCache &) = delete;
    ShardCache &operator=(const ShardCache &) = delete;

    /** Pin shard @p shard, loading (and possibly evicting) under the
     *  budget. The returned pin keeps the mapping alive. */
    std::shared_ptr<const LoadedShard> get(uint32_t shard) const;

    /** Make @p loaded resident as shard @p shard (a monolith's one
     *  shard, which no manifest file backs; the budget must be 0). */
    void adopt(uint32_t shard, std::shared_ptr<const LoadedShard> loaded);

    /** Provider callback body: add 1 to @p resident[i] for every
     *  resident shard i (growing @p resident as needed). */
    void addResidency(std::vector<int64_t> &resident) const;

  private:
    std::shared_ptr<const LoadedShard> loadLocked(uint32_t shard) const;
    void residentLocked(uint32_t shard,
                        std::shared_ptr<const LoadedShard> loaded) const;
    void evictLocked(uint32_t keep) const;
    uint64_t residentBytesLocked() const;

    const store::ShardManifest &manifest_;
    const store::ShardRouter &router_;
    uint64_t budgetBytes_; ///< 0 = unlimited

    mutable std::mutex lock_;
    mutable std::vector<std::shared_ptr<const LoadedShard>> resident_;
    mutable std::vector<uint64_t> lastUse_;
    mutable uint64_t clock_ = 0;
};

namespace {

/**
 * Live caches, for the one process-wide residency provider. Providers
 * cannot be deregistered (obs keeps them for the process lifetime), so
 * the provider walks this registry and caches deregister in their
 * destructor instead.
 */
std::mutex &
cacheRegistryLock()
{
    static std::mutex lock;
    return lock;
}

std::vector<const ShardCache *> &
cacheRegistry()
{
    static std::vector<const ShardCache *> registry;
    return registry;
}

std::once_flag cacheProviderOnce;

void
registerCache(const ShardCache *cache)
{
    {
        std::lock_guard<std::mutex> lock(cacheRegistryLock());
        cacheRegistry().push_back(cache);
    }
    // One entry per shard id, summed over the live caches: several
    // sources over one manifest (a daemon mid-reload, a context per
    // seeder) must not publish one name twice.
    std::call_once(cacheProviderOnce, [] {
        obs::registerProvider(
            [](std::vector<std::pair<std::string, int64_t>> &out) {
                std::vector<int64_t> resident;
                {
                    std::lock_guard<std::mutex> lock(cacheRegistryLock());
                    for (const ShardCache *cache : cacheRegistry())
                        cache->addResidency(resident);
                }
                for (size_t s = 0; s < resident.size(); ++s)
                    out.emplace_back("shard." + std::to_string(s) +
                                         ".resident",
                                     resident[s]);
            });
    });
}

void
deregisterCache(const ShardCache *cache)
{
    std::lock_guard<std::mutex> lock(cacheRegistryLock());
    auto &registry = cacheRegistry();
    registry.erase(std::remove(registry.begin(), registry.end(), cache),
                   registry.end());
}

} // namespace

ShardCache::ShardCache(const store::ShardManifest &manifest,
                       const store::ShardRouter &router,
                       uint64_t budget_bytes)
    : manifest_(manifest), router_(router), budgetBytes_(budget_bytes),
      resident_(manifest.shards.size()),
      lastUse_(manifest.shards.size(), 0)
{
    registerCache(this);
}

ShardCache::~ShardCache()
{
    deregisterCache(this);
    for (const auto &slot : resident_) {
        if (slot != nullptr) {
            obsShardResident.sub();
            obsShardResidentBytes.sub(static_cast<int64_t>(slot->bytes));
        }
    }
}

uint64_t
ShardCache::residentBytesLocked() const
{
    uint64_t bytes = 0;
    for (const auto &slot : resident_) {
        if (slot != nullptr)
            bytes += slot->bytes;
    }
    return bytes;
}

std::shared_ptr<const LoadedShard>
ShardCache::loadLocked(uint32_t shard) const
{
    obs::Span span("shard.load");
    const store::ShardEntry &entry = manifest_.shards[shard];
    const std::string path = manifest_.shardPath(shard);
    std::unique_ptr<const store::Artifact> owned =
        store::Artifact::load(path);
    const store::Artifact &artifact = *owned;
    // Identity checks beyond the artifact's own validation: the file
    // must be the exact shard the manifest describes, and its SNOD
    // projection must agree with the manifest's component routing.
    if (artifact.tableChecksum() != entry.digest) {
        fatal(manifest_.path, ": shard ", shard,
              ": digest mismatch (manifest records ",
              hex16(entry.digest), ", '", path, "' holds ",
              hex16(artifact.tableChecksum()),
              ") — re-run `pgb shard` after rebuilding shards");
    }
    if (!artifact.isShard()) {
        fatal(path, ": artifact has no SNOD/SLIN shard sections; it "
                    "was written by `pgb index`, not `pgb shard`");
    }
    // Reads are sketched with the manifest's (k, w); a shard indexed
    // with others would be looked up with hashes of the wrong width.
    if (artifact.k() != static_cast<int>(manifest_.k) ||
        artifact.w() != static_cast<int>(manifest_.w)) {
        fatal(path, ": shard holds (k, w) = (", artifact.k(), ", ",
              artifact.w(), "), manifest records (", manifest_.k, ", ",
              manifest_.w, ")");
    }
    if (artifact.origNodes().size() != entry.nodes) {
        fatal(path, ": shard holds ", artifact.origNodes().size(),
              " nodes, manifest records ", entry.nodes);
    }
    for (size_t local = 0; local < artifact.origNodes().size();
         ++local) {
        const auto route =
            router_.route(artifact.origNodes()[local]);
        if (route.shard != shard || route.local != local) {
            fatal(path, ": SNOD disagrees with the manifest's "
                        "component routing at local node ", local);
        }
    }
    return LoadedShard::fromArtifact(std::move(owned), false);
}

void
ShardCache::residentLocked(uint32_t shard,
                           std::shared_ptr<const LoadedShard> loaded) const
{
    obsShardLoads.add();
    obsShardResident.add();
    obsShardResidentBytes.add(static_cast<int64_t>(loaded->bytes));
    resident_[shard] = std::move(loaded);
}

void
ShardCache::adopt(uint32_t shard,
                  std::shared_ptr<const LoadedShard> loaded)
{
    std::lock_guard<std::mutex> lock(lock_);
    residentLocked(shard, std::move(loaded));
    lastUse_[shard] = ++clock_;
}

std::shared_ptr<const LoadedShard>
ShardCache::get(uint32_t shard) const
{
    std::lock_guard<std::mutex> lock(lock_);
    std::shared_ptr<const LoadedShard> pin = resident_[shard];
    if (pin != nullptr) {
        obsShardHits.add();
    } else {
        pin = loadLocked(shard);
        residentLocked(shard, pin);
    }
    lastUse_[shard] = ++clock_;
    evictLocked(shard);
    return pin;
}

void
ShardCache::evictLocked(uint32_t keep) const
{
    if (budgetBytes_ == 0)
        return;
    while (residentBytesLocked() > budgetBytes_) {
        // Oldest unpinned shard, excluding @p keep (something must
        // stay resident, and the shard being returned is in use by
        // definition). use_count()==1 means only the cache holds it:
        // an in-flight batch's pin blocks eviction.
        uint32_t victim = UINT32_MAX;
        for (uint32_t s = 0; s < resident_.size(); ++s) {
            if (s == keep || resident_[s] == nullptr ||
                resident_[s].use_count() != 1)
                continue;
            if (victim == UINT32_MAX ||
                lastUse_[s] < lastUse_[victim])
                victim = s;
        }
        if (victim == UINT32_MAX)
            break; // everything left is pinned: soft overflow
        obsShardEvictions.add();
        obsShardResident.sub();
        obsShardResidentBytes.sub(
            static_cast<int64_t>(resident_[victim]->bytes));
        resident_[victim].reset();
    }
}

void
ShardCache::addResidency(std::vector<int64_t> &resident) const
{
    std::lock_guard<std::mutex> lock(lock_);
    if (resident.size() < resident_.size())
        resident.resize(resident_.size(), 0);
    for (size_t s = 0; s < resident_.size(); ++s)
        resident[s] += resident_[s] != nullptr ? 1 : 0;
}

// ---------------------------------------------------------------------
// PinSet
// ---------------------------------------------------------------------

namespace {

/** Closed pin-set storage of this thread, reused by the next open. */
struct PinPool
{
    std::vector<std::unique_ptr<detail::PinSlots>> free;
};

} // namespace

PinSet::PinSet(const GraphSource &source) : source_(source)
{
    PinPool &pool = core::threadScratch<PinPool>();
    if (pool.free.empty()) {
        slots_ = std::make_unique<detail::PinSlots>();
    } else {
        slots_ = std::move(pool.free.back());
        pool.free.pop_back();
    }
    if (slots_->byShard.size() < source.shardCount())
        slots_->byShard.resize(source.shardCount(), nullptr);
}

PinSet::~PinSet()
{
    for (const detail::PinSlots::Pin &pin : slots_->held)
        slots_->byShard[pin.shard] = nullptr;
    slots_->held.clear(); // unpin: idle threads must not block eviction
    core::threadScratch<PinPool>().free.push_back(std::move(slots_));
}

const LoadedShard &
PinSet::pin(uint32_t shard)
{
    std::shared_ptr<const LoadedShard> loaded =
        source_.cache_->get(shard);
    const LoadedShard *view = loaded.get();
    slots_->held.push_back({shard, std::move(loaded)});
    slots_->byShard[shard] = view;
    return *view;
}

// ---------------------------------------------------------------------
// GraphSource
// ---------------------------------------------------------------------

std::unique_ptr<const GraphSource>
GraphSource::build(const graph::PanGraph &graph, int k, int w,
                   unsigned threads, bool build_gbwt, SeederKind seeder,
                   uint32_t fm_sample_rate)
{
    return monolith(LoadedShard::build(graph, k, w, threads, build_gbwt,
                                       seeder == SeederKind::kMem,
                                       fm_sample_rate),
                    k, w, "<in-memory graph>", seeder);
}

std::unique_ptr<const GraphSource>
GraphSource::load(const std::string &artifact_path, SeederKind seeder)
{
    std::unique_ptr<const store::Artifact> artifact =
        store::Artifact::load(artifact_path);
    if (seeder == SeederKind::kMem && artifact->fmIndex() == nullptr) {
        fatal(artifact_path,
              ": artifact has no FM-index sections; rebuild it with "
              "`pgb index --seeder=mem` to map with --seeder=mem");
    }
    const int k = artifact->k();
    const int w = artifact->w();
    return monolith(LoadedShard::fromArtifact(std::move(artifact), true),
                    k, w, artifact_path, seeder);
}

std::unique_ptr<const GraphSource>
GraphSource::open(const std::string &manifest_path, SeederKind seeder,
                  uint64_t cache_mb)
{
    store::ShardManifest manifest =
        store::ShardManifest::load(manifest_path);
    if (seeder == SeederKind::kMem && manifest.seeder != "mem") {
        fatal(manifest.path,
              ": shard set has no FM-index sections; rebuild it with "
              "`pgb shard --seeder=mem` to map with --seeder=mem");
    }
    return std::unique_ptr<const GraphSource>(new GraphSource(
        std::move(manifest), seeder, cache_mb, nullptr));
}

/**
 * A monolith is a set of one shard: a manifest synthesized in memory
 * with one component spanning every node id routes each node to shard
 * 0 under its own id, so no routing code knows about monoliths.
 */
std::unique_ptr<const GraphSource>
GraphSource::monolith(std::shared_ptr<const LoadedShard> shard, int k,
                      int w, std::string path, SeederKind seeder)
{
    const graph::GraphStats stats = shard->graph->stats();
    store::ShardManifest manifest;
    manifest.nodeCount = stats.nodeCount;
    manifest.edgeCount = stats.edgeCount;
    manifest.pathCount = stats.pathCount;
    manifest.totalBases = stats.totalBases;
    manifest.k = static_cast<uint32_t>(k);
    manifest.w = static_cast<uint32_t>(w);
    manifest.seeder = shard->fm != nullptr ? "mem" : "minimizer";
    manifest.hasGbwt = shard->gbwt != nullptr;
    manifest.path = path;

    store::ShardEntry entry;
    entry.file = std::move(path);
    entry.bytes = shard->bytes;
    entry.nodes = stats.nodeCount;
    entry.paths = stats.pathCount;
    manifest.shards.push_back(std::move(entry));
    if (stats.nodeCount > 0) {
        store::ComponentEntry component;
        component.nodes = stats.nodeCount;
        component.ranges.emplace_back(
            0, static_cast<uint32_t>(stats.nodeCount - 1));
        manifest.components.push_back(std::move(component));
    }
    return std::unique_ptr<const GraphSource>(new GraphSource(
        std::move(manifest), seeder, 0, std::move(shard)));
}

GraphSource::GraphSource(store::ShardManifest manifest,
                         SeederKind seeder, uint64_t cache_mb,
                         std::shared_ptr<const LoadedShard> adopted)
    : manifest_(std::move(manifest)), router_(manifest_),
      cache_(std::make_unique<ShardCache>(manifest_, router_,
                                          cache_mb << 20)),
      monolith_(adopted != nullptr)
{
    avgNodeLength_ = std::max(
        1.0, static_cast<double>(manifest_.totalBases) /
                 static_cast<double>(manifest_.nodeCount));
    // Pathless shards of a set are never touched by seeding; a
    // monolith seeds from its one shard whatever it holds (a pathless
    // graph's minimizer index covers its nodes).
    for (uint32_t s = 0; s < manifest_.shards.size(); ++s) {
        if (monolith_ || manifest_.shards[s].paths > 0)
            seedShards_.push_back(s);
    }
    if (monolith_)
        cache_->adopt(0, std::move(adopted));
    seeder_ = makeSeeder(seeder, *this);
}

GraphSource::~GraphSource() = default;

void
GraphSource::extractSubgraph(PinSet &pins, graph::Handle start,
                             size_t radius, graph::LocalGraph &out,
                             uint32_t *origin) const
{
    const auto route = router_.route(start.node());
    // LocalGraph owns its bases, so `out` is safe to use after the pin
    // (and with it, possibly the mapping) goes away.
    pins.shard(route.shard).graph->extractSubgraph(
        graph::Handle(route.local, start.isReverse()), radius, out,
        origin);
}

GbwtWalk
GraphSource::gbwtWalkAt(PinSet &pins, uint32_t global_node) const
{
    const auto route = router_.route(global_node);
    GbwtWalk walk;
    walk.gbwt = pins.shard(route.shard).gbwt;
    walk.start = graph::Handle(route.local, false);
    return walk;
}

} // namespace pgb::pipeline
