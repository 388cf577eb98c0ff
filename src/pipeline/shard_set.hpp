/**
 * @file
 * ShardSetSource: map beyond-RAM pangenomes against a `.pgbs` shard
 * set of lazily-mmapped `.pgbi` shards (DESIGN.md §13).
 *
 * A shard set is a manifest (store/manifest.hpp) over per-component
 * shard artifacts written by `pgb shard`. This GraphSource
 * implementation routes every global node id to its shard
 * (store::ShardRouter), mmaps a shard on first touch, and keeps the
 * resident set under a soft byte budget with LRU eviction — a shard
 * pinned by an in-flight read is never unmapped (eviction requires the
 * cache to hold the only reference), and at least one shard always
 * stays resident.
 *
 * Seeding runs shard-locally (each shard carries its own minimizer
 * index, GBWT, and — for `--seeder=mem` sets — FM-index over its own
 * paths) and the per-shard results are merged into exactly the anchor
 * stream the monolithic index would produce; clustering, chaining,
 * filtering, and alignment then run unchanged on global coordinates.
 * Sharded mapping is byte-identical to monolithic mapping — the golden
 * digests assert it.
 *
 * Observability: counters shard.{loads,evictions,hits,
 * cross_shard_reads}, gauges shard.{resident,resident_bytes}, a
 * per-shard residency provider (shard.<i>.resident, surfaced by
 * `pgb ctl status`), and a "shard.load" span around each mmap.
 */

#ifndef PGB_PIPELINE_SHARD_SET_HPP
#define PGB_PIPELINE_SHARD_SET_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/source.hpp"
#include "store/manifest.hpp"

namespace pgb::pipeline {

class ShardCache;
class ShardMinimizerSeeder;
class ShardMemSeeder;

/** GraphSource over a `.pgbs` shard set (see file comment). */
class ShardSetSource final : public GraphSource
{
  public:
    /**
     * Open the manifest at @p manifest_path and prepare routing.
     * Shards are NOT loaded here — the first touch of each shard pays
     * its mmap. @p cache_mb is the soft resident budget (0 =
     * unlimited). Requesting kMem against a minimizer-built set is a
     * FatalError, as is any manifest validation failure.
     */
    static std::unique_ptr<const ShardSetSource>
    open(const std::string &manifest_path, SeederKind seeder,
         uint64_t cache_mb);

    ~ShardSetSource() override;

    // ---- GraphSource.
    const char *kindName() const override { return "shard-set"; }
    const Seeder &seeder() const override { return *seeder_; }
    double avgNodeLength() const override { return avgNodeLength_; }
    bool hasGbwt() const override { return manifest_.hasGbwt; }
    size_t shardCount() const override { return manifest_.shards.size(); }
    void extractSubgraph(graph::Handle start, size_t radius,
                         graph::LocalGraph &out,
                         uint32_t *origin) const override;
    GbwtWalk gbwtWalkAt(uint32_t global_node) const override;

    // ---- Shard-set surface.
    int k() const { return static_cast<int>(manifest_.k); }
    int w() const { return static_cast<int>(manifest_.w); }
    const store::ShardManifest &manifest() const { return manifest_; }

  private:
    friend class ShardMinimizerSeeder;
    friend class ShardMemSeeder;

    ShardSetSource(store::ShardManifest manifest, SeederKind seeder,
                   uint64_t cache_mb);

    store::ShardManifest manifest_;
    store::ShardRouter router_;
    std::unique_ptr<ShardCache> cache_;
    /** Shard indices with embedded paths — the only shards that carry
     *  seeds (pathless components are never touched by mapping). */
    std::vector<uint32_t> seedShards_;
    std::unique_ptr<Seeder> seeder_;
    double avgNodeLength_ = 1.0;
};

} // namespace pgb::pipeline

#endif // PGB_PIPELINE_SHARD_SET_HPP
