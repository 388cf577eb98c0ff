/**
 * @file
 * GraphSource: the read side of a pangenome, which every mapping
 * consumer is written against (DESIGN.md §13).
 *
 * The mapper needs exactly four things from "the pangenome": a seeding
 * strategy, local subgraphs around seed hits, haplotype walks at seed
 * nodes (giraffe's GBWT filter), and one scalar (average node length,
 * for extraction radii). GraphSource provides them over a set of
 * shards (shard_set.hpp) routed by a store::ShardManifest, whatever
 * the backing store:
 *
 *  - a `.pgbs` shard set: per-component `.pgbi` shards, mmapped on
 *    first touch and evicted under a soft byte budget, for pangenomes
 *    bigger than RAM;
 *  - a monolith (a graph indexed in memory, or one mmapped `.pgbi`):
 *    a set of one shard under a manifest synthesized in memory, whose
 *    one component covers every node, so store::ShardRouter maps each
 *    node to shard 0 under its own id. The shard is resident from open
 *    to close.
 *
 * Node ids crossing this interface are always GLOBAL ids: seeders emit
 * global anchors, extractSubgraph takes a global handle, and
 * gbwtWalkAt takes a global node. Shard-locality stays behind the
 * interface, which is what makes sharded and monolithic mapping
 * byte-identical.
 *
 * Every access goes through a PinSet. The first touch of a shard in a
 * set takes one locked cache lookup and pins the shard; later touches
 * reuse that pin, and the pins drop when the set closes. The mapper
 * opens one set per read, so a read pays one lock per shard it
 * touches however many subgraphs and walks it asks for, and an idle
 * thread holds no pin that could block eviction. A shard pinned by an
 * open set is never unmapped, and at least one shard always stays
 * resident.
 *
 * Observability: counters shard.{loads,evictions,hits,
 * cross_shard_reads}, gauges shard.{resident,resident_bytes}, a
 * per-shard residency provider (shard.<i>.resident: how many live
 * sources hold shard i resident, one entry per shard id, surfaced by
 * `pgb ctl status`), and a "shard.load" span around each mmap.
 */

#ifndef PGB_PIPELINE_SOURCE_HPP
#define PGB_PIPELINE_SOURCE_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/local_graph.hpp"
#include "graph/pangraph.hpp"
#include "index/gbwt.hpp"
#include "pipeline/seeder.hpp"
#include "pipeline/shard_set.hpp"
#include "store/manifest.hpp"

namespace pgb::pipeline {

class GraphSource;
class ShardCache;

/**
 * A GBWT positioned at one (global) node, ready to walk. The handle is
 * in the returned GBWT's own id space — for a shard set that is the
 * shard-local id; callers never convert it, they only walk from it.
 * The PinSet that produced the walk keeps the GBWT resident; a null
 * `gbwt` means no haplotype information covers the node.
 */
struct GbwtWalk
{
    const index::GbwtIndex *gbwt = nullptr;
    graph::Handle start;
};

namespace detail {

/** Storage of one open PinSet; recycled through a per-thread free
 *  list, so opening and closing a warm set allocates nothing. */
struct PinSlots
{
    struct Pin
    {
        uint32_t shard = 0;
        std::shared_ptr<const LoadedShard> loaded;
    };
    std::vector<const LoadedShard *> byShard; ///< null = not pinned
    std::vector<Pin> held;
};

} // namespace detail

/**
 * The shards one read (or one test step) has touched, each pinned
 * until the set closes. Not thread-safe: a set belongs to the task
 * that opened it. Any number of sets may be open on one thread.
 */
class PinSet
{
  public:
    explicit PinSet(const GraphSource &source);
    ~PinSet();

    PinSet(const PinSet &) = delete;
    PinSet &operator=(const PinSet &) = delete;

    /** Shard @p shard, pinned on first touch until the set closes. */
    const LoadedShard &
    shard(uint32_t shard)
    {
        const LoadedShard *loaded = slots_->byShard[shard];
        return loaded != nullptr ? *loaded : pin(shard);
    }

  private:
    const LoadedShard &pin(uint32_t shard);

    const GraphSource &source_;
    std::unique_ptr<detail::PinSlots> slots_;
};

/** The read side of a pangenome: what mapping consumes. */
class GraphSource
{
  public:
    /**
     * A monolith indexed in memory over @p graph (referenced; it must
     * outlive the source): minimizers with @p k / @p w, a GBWT when
     * @p build_gbwt, an FM-index when @p seeder is kMem.
     */
    static std::unique_ptr<const GraphSource>
    build(const graph::PanGraph &graph, int k, int w, unsigned threads,
          bool build_gbwt, SeederKind seeder, uint32_t fm_sample_rate);

    /**
     * A monolith over the `.pgbi` at @p artifact_path, mmapped now.
     * kMem against an artifact without FM sections is a FatalError,
     * as is any artifact validation failure.
     */
    static std::unique_ptr<const GraphSource>
    load(const std::string &artifact_path, SeederKind seeder);

    /**
     * The `.pgbs` shard set at @p manifest_path. Shards are NOT loaded
     * here — the first touch of each shard pays its mmap. @p cache_mb
     * is the soft resident budget (0 = unlimited). kMem against a
     * minimizer-built set is a FatalError, as is any manifest
     * validation failure.
     */
    static std::unique_ptr<const GraphSource>
    open(const std::string &manifest_path, SeederKind seeder,
         uint64_t cache_mb);

    ~GraphSource();

    GraphSource(const GraphSource &) = delete;
    GraphSource &operator=(const GraphSource &) = delete;

    /** "monolith" or "shard-set", for logs and status lines. */
    const char *
    kindName() const
    {
        return monolith_ ? "monolith" : "shard-set";
    }

    /** The seed-stage strategy (emits global-id anchors). */
    const Seeder &seeder() const { return *seeder_; }

    /** max(1, total bases / node count) — extraction radius input. */
    double avgNodeLength() const { return avgNodeLength_; }

    /** Whether gbwtWalkAt can return haplotype walks. */
    bool hasGbwt() const { return manifest_.hasGbwt; }

    /** Shards behind the source: 1 for a monolith. */
    size_t shardCount() const { return manifest_.shards.size(); }

    /** The shards that carry seeds, ascending. */
    std::span<const uint32_t> seedShards() const { return seedShards_; }

    int k() const { return static_cast<int>(manifest_.k); }
    int w() const { return static_cast<int>(manifest_.w); }

    /**
     * Extract the local neighborhood around global handle @p start
     * within @p radius bases into @p out (PanGraph::extractSubgraph
     * semantics: @p out is cleared first and its allocations reused).
     * @p out owns its bases, so it outlives any shard eviction.
     */
    void extractSubgraph(PinSet &pins, graph::Handle start,
                         size_t radius, graph::LocalGraph &out,
                         uint32_t *origin = nullptr) const;

    /** Haplotype walk state at @p global_node (see GbwtWalk). */
    GbwtWalk gbwtWalkAt(PinSet &pins, uint32_t global_node) const;

  private:
    friend class PinSet;

    /** @p adopted, when set, is resident shard 0 of a monolith. */
    GraphSource(store::ShardManifest manifest, SeederKind seeder,
                uint64_t cache_mb,
                std::shared_ptr<const LoadedShard> adopted);

    static std::unique_ptr<const GraphSource>
    monolith(std::shared_ptr<const LoadedShard> shard, int k, int w,
             std::string path, SeederKind seeder);

    store::ShardManifest manifest_;
    store::ShardRouter router_;
    std::unique_ptr<ShardCache> cache_;
    std::vector<uint32_t> seedShards_;
    std::unique_ptr<const Seeder> seeder_;
    double avgNodeLength_ = 1.0;
    bool monolith_ = false;
};

} // namespace pgb::pipeline

#endif // PGB_PIPELINE_SOURCE_HPP
