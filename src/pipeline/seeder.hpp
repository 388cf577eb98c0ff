/**
 * @file
 * Pluggable seeding strategies for the Seq2Graph mapping pipeline
 * (paper Figure 1, step 1 of seed → cluster-chain → filter → align).
 *
 * A Seeder turns a read into global-id anchors for the identical
 * cluster/chain/align path. makeSeeder builds one of two strategies
 * over a GraphSource's seed shards (source.hpp), read through the
 * caller's PinSet — a monolith is a set of one shard, so each
 * strategy has one implementation:
 *
 *  - minimizer: looks each read minimizer up in every seed shard's
 *    table and k-way merges the per-shard occurrence lists by global
 *    node id, which reproduces a monolithic table's occurrence order
 *    exactly; the repetition cap applies to the summed count;
 *  - mem: enumerates supermaximal exact matches over the seed shards'
 *    FM-indexes in lockstep (index::SmemSet, index/fm_index.hpp),
 *    locates every occurrence on the haplotype paths, and splits each
 *    into k-length sub-anchors at stride k (plus a final window flush
 *    against the MEM end) so downstream geometry — diagonal
 *    clustering, chain gap costs, and the fixed-k query-offset
 *    conversions in the mapper — holds unchanged.
 *
 * Selection is `--seeder=minimizer|mem` on `pgb index`, `pgb map`, and
 * `pgb serve`; parseSeeder is the shared fatal()-on-garbage parser.
 */

#ifndef PGB_PIPELINE_SEEDER_HPP
#define PGB_PIPELINE_SEEDER_HPP

#include <memory>
#include <string>
#include <vector>

#include "pipeline/chain.hpp"

namespace pgb::pipeline {

class GraphSource;
class PinSet;

/** The seeding backends a MappingContext can be built around. */
enum class SeederKind { kMinimizer, kMem };

/** Parse a `--seeder=` value ("minimizer" | "mem"); fatal otherwise. */
SeederKind parseSeeder(const std::string &name);

/** The CLI name of @p kind. */
const char *seederName(SeederKind kind);

/** Seed-stage strategy: reads in, anchors out. */
class Seeder
{
  public:
    virtual ~Seeder() = default;

    /**
     * Collect anchors for @p read (both strands) into @p anchors
     * (cleared first, capacity reused), reading the seed shards
     * through @p pins. Must be const-thread-safe: mapBatch calls it
     * concurrently from every worker, each with its own pin set.
     */
    virtual void collect(PinSet &pins, const seq::Sequence &read,
                         std::vector<Anchor> &anchors) const = 0;

    virtual SeederKind kind() const = 0;

    const char *name() const { return seederName(kind()); }
};

/**
 * The @p kind seeder over @p source's seed shards. A minimizer or MEM
 * with more than @p max_occurrences occurrences, summed over the
 * shards, is dropped as a repeat. The source must outlive the seeder.
 */
std::unique_ptr<const Seeder> makeSeeder(SeederKind kind,
                                         const GraphSource &source,
                                         size_t max_occurrences = 64);

} // namespace pgb::pipeline

#endif // PGB_PIPELINE_SEEDER_HPP
