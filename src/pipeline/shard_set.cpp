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
#include "store/store.hpp"

namespace pgb::pipeline {

namespace {

using core::fatal;

obs::Counter obsShardLoads("shard.loads");
obs::Counter obsShardEvictions("shard.evictions");
obs::Counter obsShardHits("shard.hits");
obs::Counter obsShardCrossReads("shard.cross_shard_reads");
obs::Gauge obsShardResident("shard.resident");
obs::Gauge obsShardResidentBytes("shard.resident_bytes");

std::string
hex16(uint64_t value)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
    return buffer;
}

} // namespace

/** One mmapped shard plus the projection tables seeding needs. */
struct LoadedShard
{
    std::unique_ptr<const store::Artifact> artifact;
    /// detail::pathStepStarts of the shard graph: text → node
    /// projection for the MEM seeder.
    std::vector<std::vector<uint64_t>> stepStarts;
};

// ---------------------------------------------------------------------
// ShardCache
// ---------------------------------------------------------------------

/**
 * The resident set of a shard set: shared_ptr pins per shard, a soft
 * LRU byte budget, and the shard.* metrics. get() is the only entry
 * point; every call re-evaluates the budget, so a cache over budget
 * sheds unpinned shards as soon as their pins drop — never while any
 * in-flight batch still holds one.
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

    /** Provider callback body: per-shard residency gauges. */
    void appendResidency(
        std::vector<std::pair<std::string, int64_t>> &out) const;

  private:
    std::shared_ptr<const LoadedShard> loadLocked(uint32_t shard) const;
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
    std::call_once(cacheProviderOnce, [] {
        obs::registerProvider(
            [](std::vector<std::pair<std::string, int64_t>> &out) {
                std::lock_guard<std::mutex> lock(cacheRegistryLock());
                for (const ShardCache *cache : cacheRegistry())
                    cache->appendResidency(out);
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
            obsShardResidentBytes.sub(static_cast<int64_t>(
                slot->artifact->sizeBytes()));
        }
    }
}

uint64_t
ShardCache::residentBytesLocked() const
{
    uint64_t bytes = 0;
    for (size_t s = 0; s < resident_.size(); ++s) {
        if (resident_[s] != nullptr)
            bytes += manifest_.shards[s].bytes;
    }
    return bytes;
}

std::shared_ptr<const LoadedShard>
ShardCache::loadLocked(uint32_t shard) const
{
    obs::Span span("shard.load");
    const store::ShardEntry &entry = manifest_.shards[shard];
    const std::string path = manifest_.shardPath(shard);
    auto loaded = std::make_shared<LoadedShard>();
    loaded->artifact = store::Artifact::load(path);
    const store::Artifact &artifact = *loaded->artifact;
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
    loaded->stepStarts = detail::pathStepStarts(artifact.graph());
    return loaded;
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
        resident_[shard] = pin;
        obsShardLoads.add();
        obsShardResident.add();
        obsShardResidentBytes.add(
            static_cast<int64_t>(manifest_.shards[shard].bytes));
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
        resident_[victim].reset();
        obsShardEvictions.add();
        obsShardResident.sub();
        obsShardResidentBytes.sub(
            static_cast<int64_t>(manifest_.shards[victim].bytes));
    }
}

void
ShardCache::appendResidency(
    std::vector<std::pair<std::string, int64_t>> &out) const
{
    std::lock_guard<std::mutex> lock(lock_);
    for (size_t s = 0; s < resident_.size(); ++s) {
        out.emplace_back("shard." + std::to_string(s) + ".resident",
                         resident_[s] != nullptr ? 1 : 0);
    }
}

// ---------------------------------------------------------------------
// Shard-local seeding
// ---------------------------------------------------------------------

namespace {

/** Thread-local temporaries shared by both shard seeders. */
struct ShardSeedScratch
{
    std::vector<std::shared_ptr<const LoadedShard>> pins;
    std::vector<uint8_t> touched; ///< per seed-shard slot, this read
    // minimizer merge state
    std::vector<index::Minimizer> minimizers;
    std::vector<std::span<const index::GraphSeedHit>> buckets;
    std::vector<size_t> bucketSlot;
    std::vector<size_t> heads;
    // mem seeding set, one member per pinned shard
    std::vector<detail::MemSource> memSources;
};

/** Charge shard.cross_shard_reads when >1 shard contributed. */
void
noteCrossShard(const std::vector<uint8_t> &touched)
{
    size_t distinct = 0;
    for (uint8_t t : touched)
        distinct += t != 0 ? 1 : 0;
    if (distinct > 1)
        obsShardCrossReads.add();
}

} // namespace

/**
 * Minimizer seeding over a shard set. Pins every path-bearing shard
 * for the duration of one read's collect, looks the read's minimizers
 * up in each shard's table, and k-way merges the per-shard occurrence
 * lists by global node id. Because each shard's bucket is the
 * monolith's bucket restricted to that shard in the monolith's own
 * order (order-preserving renumbering + the full-record sort in
 * MinimizerIndex), the merge reproduces the monolithic occurrence
 * stream exactly; the repetition cap applies to the summed count.
 */
class ShardMinimizerSeeder final : public Seeder
{
  public:
    explicit ShardMinimizerSeeder(const ShardSetSource &source,
                                  size_t max_occurrences = 64)
        : source_(source), maxOccurrences_(max_occurrences)
    {
    }

    void
    collect(const seq::Sequence &read,
            std::vector<Anchor> &anchors) const override
    {
        obs::Span span("seed.minimizer");
        anchors.clear();
        ShardSeedScratch &ws = core::threadScratch<ShardSeedScratch>();
        const auto &seed_shards = source_.seedShards_;
        ws.pins.clear();
        for (uint32_t shard : seed_shards)
            ws.pins.push_back(source_.cache_->get(shard));
        ws.touched.assign(seed_shards.size(), 0);

        core::NullProbe probe;
        index::computeMinimizersInto(read.codes(), source_.k(),
                                     source_.w(), ws.minimizers,
                                     probe);
        for (const index::Minimizer &mini : ws.minimizers) {
            ws.buckets.clear();
            ws.bucketSlot.clear();
            size_t total = 0;
            for (size_t slot = 0; slot < ws.pins.size(); ++slot) {
                const auto hits =
                    ws.pins[slot]->artifact->minimizers().occurrences(
                        mini.hash);
                if (hits.empty())
                    continue;
                ws.buckets.push_back(hits);
                ws.bucketSlot.push_back(slot);
                total += hits.size();
            }
            if (total == 0 || total > maxOccurrences_)
                continue; // absent, or repetitive across the whole set
            // Merge the per-shard buckets by global node id. A node
            // lives in exactly one shard, so heads never tie across
            // buckets and within-node order stays bucket-internal.
            ws.heads.assign(ws.buckets.size(), 0);
            for (size_t emitted = 0; emitted < total; ++emitted) {
                size_t best = SIZE_MAX;
                uint32_t best_node = 0;
                for (size_t b = 0; b < ws.buckets.size(); ++b) {
                    if (ws.heads[b] >= ws.buckets[b].size())
                        continue;
                    const store::Artifact &artifact =
                        *ws.pins[ws.bucketSlot[b]]->artifact;
                    const uint32_t node = artifact.origNodes()
                        [ws.buckets[b][ws.heads[b]].node];
                    if (best == SIZE_MAX || node < best_node) {
                        best = b;
                        best_node = node;
                    }
                }
                const index::GraphSeedHit &hit =
                    ws.buckets[best][ws.heads[best]++];
                const store::Artifact &artifact =
                    *ws.pins[ws.bucketSlot[best]]->artifact;
                Anchor anchor;
                anchor.queryPos = mini.position;
                anchor.node = artifact.origNodes()[hit.node];
                anchor.nodeOffset = hit.offset;
                anchor.reverse = mini.reverse != (hit.reverse != 0);
                anchor.linearPos =
                    artifact.linearBases()[hit.node] + hit.offset;
                anchors.push_back(anchor);
                ws.touched[ws.bucketSlot[best]] = 1;
            }
        }
        detail::addSeedAnchors(anchors.size());
        noteCrossShard(ws.touched);
        ws.pins.clear(); // unpin: idle threads must not block eviction
    }

    SeederKind kind() const override { return SeederKind::kMinimizer; }

  private:
    const ShardSetSource &source_;
    size_t maxOccurrences_;
};

/**
 * MEM seeding over a shard set: detail::collectMemAnchors with one
 * member per shard. The shard FM texts partition the monolith's path
 * text, so index::SmemSet's lockstep enumeration (a pattern occurs iff
 * it occurs in some shard) yields the monolith's SMEM set, and the
 * summed per-shard occurrence counts its repeat filter. Occurrences
 * project shard-locally through SNOD/SLIN; the canonical anchor order
 * erases which shard produced them.
 */
class ShardMemSeeder final : public Seeder
{
  public:
    ShardMemSeeder(const ShardSetSource &source, uint32_t k,
                   size_t max_occurrences = 64)
        : source_(source), k_(k == 0 ? 1 : k),
          maxOccurrences_(max_occurrences)
    {
    }

    void
    collect(const seq::Sequence &read,
            std::vector<Anchor> &anchors) const override
    {
        anchors.clear();
        obs::Span span("seed.mem");
        if (read.size() < k_)
            return;
        ShardSeedScratch &ws = core::threadScratch<ShardSeedScratch>();
        ws.pins.clear();
        ws.memSources.clear();
        for (uint32_t shard : source_.seedShards_) {
            ws.pins.push_back(source_.cache_->get(shard));
            const LoadedShard &loaded = *ws.pins.back();
            const store::Artifact &artifact = *loaded.artifact;
            ws.memSources.push_back(
                {artifact.fmIndex(), &artifact.graph(),
                 &loaded.stepStarts, artifact.origNodes(),
                 artifact.linearBases()});
        }
        ws.touched.assign(ws.pins.size(), 0);
        detail::collectMemAnchors(ws.memSources, read, k_,
                                  maxOccurrences_, anchors, ws.touched);
        noteCrossShard(ws.touched);
        ws.pins.clear();
    }

    SeederKind kind() const override { return SeederKind::kMem; }

  private:
    const ShardSetSource &source_;
    uint32_t k_;
    size_t maxOccurrences_;
};

// ---------------------------------------------------------------------
// ShardSetSource
// ---------------------------------------------------------------------

std::unique_ptr<const ShardSetSource>
ShardSetSource::open(const std::string &manifest_path,
                     SeederKind seeder, uint64_t cache_mb)
{
    store::ShardManifest manifest =
        store::ShardManifest::load(manifest_path);
    return std::unique_ptr<const ShardSetSource>(new ShardSetSource(
        std::move(manifest), seeder, cache_mb));
}

ShardSetSource::ShardSetSource(store::ShardManifest manifest,
                               SeederKind seeder, uint64_t cache_mb)
    : manifest_(std::move(manifest)), router_(manifest_),
      cache_(std::make_unique<ShardCache>(manifest_, router_,
                                          cache_mb << 20))
{
    avgNodeLength_ = std::max(
        1.0, static_cast<double>(manifest_.totalBases) /
                 static_cast<double>(manifest_.nodeCount));
    for (uint32_t s = 0; s < manifest_.shards.size(); ++s) {
        if (manifest_.shards[s].paths > 0)
            seedShards_.push_back(s);
    }
    if (seeder == SeederKind::kMem && manifest_.seeder != "mem") {
        core::fatal(manifest_.path,
                    ": shard set has no FM-index sections; rebuild it "
                    "with `pgb shard --seeder=mem` to map with "
                    "--seeder=mem");
    }
    switch (seeder) {
      case SeederKind::kMinimizer:
        seeder_ = std::make_unique<ShardMinimizerSeeder>(*this);
        break;
      case SeederKind::kMem:
        seeder_ = std::make_unique<ShardMemSeeder>(
            *this, manifest_.k);
        break;
    }
}

ShardSetSource::~ShardSetSource() = default;

void
ShardSetSource::extractSubgraph(graph::Handle start, size_t radius,
                                graph::LocalGraph &out,
                                uint32_t *origin) const
{
    const auto route = router_.route(start.node());
    const auto pin = cache_->get(route.shard);
    // LocalGraph owns its bases, so `out` is safe to use after the pin
    // (and with it, possibly the mapping) goes away.
    pin->artifact->graph().extractSubgraph(
        graph::Handle(route.local, start.isReverse()), radius, out,
        origin);
}

GbwtWalk
ShardSetSource::gbwtWalkAt(uint32_t global_node) const
{
    const auto route = router_.route(global_node);
    auto pin = cache_->get(route.shard);
    GbwtWalk walk;
    walk.gbwt = pin->artifact->gbwt();
    walk.start = graph::Handle(route.local, false);
    if (walk.gbwt != nullptr)
        walk.pin = std::move(pin);
    return walk;
}

} // namespace pgb::pipeline
