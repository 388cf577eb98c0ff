/**
 * @file
 * GraphSource: the read-side abstraction every mapping consumer is
 * written against (DESIGN.md §13).
 *
 * The mapper needs exactly four things from "the pangenome": a seeding
 * strategy, local subgraphs around seed hits, haplotype walks at seed
 * nodes (giraffe's GBWT filter), and one scalar (average node length,
 * for extraction radii). GraphSource is that contract. Two
 * implementations exist:
 *
 *  - the in-RAM monolith (a built graph or one mmapped `.pgbi`
 *    artifact), the historical path;
 *  - ShardSetSource (shard_set.hpp): a `.pgbs` manifest of
 *    per-component shards, lazily mmapped on first touch and
 *    evictable under a byte budget, for pangenomes bigger than RAM.
 *
 * Node ids crossing this interface are always GLOBAL (monolith) ids:
 * seeders emit global anchors, extractSubgraph takes a global handle,
 * and gbwtWalkAt takes a global node. Shard-locality is an
 * implementation detail behind the interface — which is what makes
 * sharded and monolithic mapping byte-identical.
 */

#ifndef PGB_PIPELINE_SOURCE_HPP
#define PGB_PIPELINE_SOURCE_HPP

#include <cstdint>
#include <memory>

#include "graph/local_graph.hpp"
#include "graph/pangraph.hpp"
#include "index/gbwt.hpp"
#include "pipeline/seeder.hpp"

namespace pgb::pipeline {

/**
 * A GBWT positioned at one (global) node, ready to walk. The handle is
 * in the returned GBWT's own id space — for a shard set that is the
 * shard-local id; callers never convert it, they only walk from it.
 * `pin` keeps the backing shard resident for as long as the walk
 * lives; a null `gbwt` means no haplotype information covers the node.
 */
struct GbwtWalk
{
    const index::GbwtIndex *gbwt = nullptr;
    graph::Handle start;
    std::shared_ptr<const void> pin;
};

/** The read side of a pangenome: what mapping consumes. */
class GraphSource
{
  public:
    virtual ~GraphSource() = default;

    /** "monolith" or "shard-set", for logs and status lines. */
    virtual const char *kindName() const = 0;

    /** The seed-stage strategy (emits global-id anchors). */
    virtual const Seeder &seeder() const = 0;

    /** max(1, total bases / node count) — extraction radius input. */
    virtual double avgNodeLength() const = 0;

    /** Whether gbwtWalkAt can return haplotype walks. */
    virtual bool hasGbwt() const = 0;

    /** Backing artifacts: 1 for a monolith, N for a shard set. */
    virtual size_t shardCount() const = 0;

    /**
     * Extract the local neighborhood around global handle @p start
     * within @p radius bases into @p out (PanGraph::extractSubgraph
     * semantics: @p out is cleared first and its allocations reused).
     * @p out owns its bases, so it outlives any shard eviction; the
     * shard is pinned only for the duration of the call.
     */
    virtual void extractSubgraph(graph::Handle start, size_t radius,
                                 graph::LocalGraph &out,
                                 uint32_t *origin = nullptr) const = 0;

    /** Haplotype walk state at @p global_node (see GbwtWalk). */
    virtual GbwtWalk gbwtWalkAt(uint32_t global_node) const = 0;
};

} // namespace pgb::pipeline

#endif // PGB_PIPELINE_SOURCE_HPP
