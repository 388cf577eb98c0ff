/**
 * @file
 * Pluggable seeding strategies for the Seq2Graph mapping pipeline
 * (paper Figure 1, step 1 of seed → cluster-chain → filter → align).
 *
 * The mapper used to call collectAnchorsInto (minimizer lookups)
 * directly; this file turns that choice into a strategy owned by
 * MappingContext so a second backend can feed the identical
 * cluster/chain/align path:
 *
 *  - MinimizerSeeder wraps collectAnchorsInto and is bit-identical to
 *    the pre-strategy behavior (the golden digests prove it);
 *  - MemSeeder enumerates supermaximal exact matches on the FM-index
 *    (index/fm_index.hpp), locates every occurrence on the haplotype
 *    paths, and splits each into k-length sub-anchors at stride k (plus
 *    a final window flush against the MEM end; detail::collectMemAnchors,
 *    shared with the shard-set seeder) so downstream geometry —
 *    diagonal clustering, chain gap costs, and the fixed-k query-offset
 *    conversions in the mapper — holds unchanged.
 *
 * Selection is `--seeder=minimizer|mem` on `pgb index`, `pgb map`, and
 * `pgb serve`; parseSeeder is the shared fatal()-on-garbage parser.
 */

#ifndef PGB_PIPELINE_SEEDER_HPP
#define PGB_PIPELINE_SEEDER_HPP

#include <span>
#include <string>
#include <vector>

#include "index/fm_index.hpp"
#include "index/minimizer.hpp"
#include "pipeline/chain.hpp"

namespace pgb::pipeline {

/** The seeding backends a MappingContext can be built around. */
enum class SeederKind { kMinimizer, kMem };

namespace detail {

/**
 * The seed.* metric counters live in seeder.cpp; this hook lets the
 * shard-set minimizer seeder (shard_set.cpp) charge the same counter
 * instead of registering a duplicate name.
 */
void addSeedAnchors(size_t n);

/**
 * One member of a MEM seeding set: an FM-index plus the projection of
 * its path text onto global graph coordinates. The monolith is a set
 * of one; a shard set has one member per shard.
 */
struct MemSource
{
    const index::FmIndex *fm = nullptr;
    const graph::PanGraph *graph = nullptr;
    /// (*stepStarts)[p][s] = path offset where step s of path p
    /// begins, plus one trailing total-length entry (pathStepStarts).
    const std::vector<std::vector<uint64_t>> *stepStarts = nullptr;
    /// Local → global node id; empty when local ids are global.
    std::span<const uint32_t> origNodes;
    /// Local node → linear offset of its first base.
    std::span<const uint64_t> linearBases;
};

/** Step start offsets of every path of @p graph (MemSource). */
std::vector<std::vector<uint64_t>>
pathStepStarts(const graph::PanGraph &graph);

/**
 * MEM anchors of @p read, both strands, over @p sources (whose FM
 * texts partition one path text): SMEMs of length >= @p k enumerated
 * by index::SmemSet over every member at once, SMEMs with more than
 * @p max_occurrences summed occurrences dropped as repeats, and each
 * occurrence split into k-length sub-anchors at stride k plus one
 * flushed against the SMEM end. Anchors come out in canonical order
 * (sorted by queryPos, reverse, linearPos, node, nodeOffset and
 * deduplicated), so only the anchor set depends on the data, not on
 * how the text is split. Sets @p touched[s] for every member that
 * contributed an anchor (pass an empty span to skip that), and
 * charges the seed.* counters.
 */
void collectMemAnchors(std::span<const MemSource> sources,
                       const seq::Sequence &read, uint32_t k,
                       size_t max_occurrences,
                       std::vector<Anchor> &anchors,
                       std::span<uint8_t> touched);

} // namespace detail

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
     * (cleared first, capacity reused). Must be const-thread-safe:
     * mapBatch calls it concurrently from every worker.
     */
    virtual void collect(const seq::Sequence &read,
                         std::vector<Anchor> &anchors) const = 0;

    virtual SeederKind kind() const = 0;

    const char *name() const { return seederName(kind()); }
};

/** The original minimizer-table seeding, behavior-preserving. */
class MinimizerSeeder final : public Seeder
{
  public:
    MinimizerSeeder(const index::MinimizerIndex &index,
                    const GraphLinearization &linear,
                    size_t max_occurrences = 64);

    void collect(const seq::Sequence &read,
                 std::vector<Anchor> &anchors) const override;

    SeederKind kind() const override { return SeederKind::kMinimizer; }

  private:
    const index::MinimizerIndex &index_;
    const GraphLinearization &linear_;
    size_t maxOccurrences_;
};

/** FM-index SMEM seeding (ROADMAP item 1, vg Mapper style). */
class MemSeeder final : public Seeder
{
  public:
    /**
     * @p k is the anchor window length (the context's minimizer k, so
     * anchors are geometrically interchangeable with minimizer ones);
     * it doubles as the minimum MEM length. MEMs with more than
     * @p max_occurrences occurrences are dropped as repeats, the same
     * cap collectAnchorsInto applies per minimizer.
     */
    MemSeeder(const index::FmIndex &fm, const graph::PanGraph &graph,
              const GraphLinearization &linear, uint32_t k,
              size_t max_occurrences = 64);

    /// source_ points at stepStarts_.
    MemSeeder(const MemSeeder &) = delete;
    MemSeeder &operator=(const MemSeeder &) = delete;

    void collect(const seq::Sequence &read,
                 std::vector<Anchor> &anchors) const override;

    SeederKind kind() const override { return SeederKind::kMem; }

  private:
    uint32_t k_;
    size_t maxOccurrences_;
    std::vector<std::vector<uint64_t>> stepStarts_;
    detail::MemSource source_;
};

} // namespace pgb::pipeline

#endif // PGB_PIPELINE_SEEDER_HPP
