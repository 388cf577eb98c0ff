/**
 * @file
 * Immutable mapping context: the build-once half of the mapper API.
 *
 * MappingContext wraps a GraphSource (source.hpp) — the read side of
 * a pangenome — plus the k/w the indexes were built with, as one
 * const-shareable object. Per-run knobs stay in MapperConfig.
 * mapBatch() is the one way to map reads: it maps a batch against a
 * context without mutating it, so one context built once can serve
 * any number of batches, configs, and threads.
 *
 * All construction goes through MappingContext::Builder — one fluent
 * entry point for the three backing stores:
 *
 *     MappingContext::Builder().fromGraph(graph).k(15).w(10).build();
 *     MappingContext::Builder().fromArtifact("pan.pgbi").build();
 *     MappingContext::Builder().fromManifest("pan.pgbs")
 *                              .shardCacheMb(64).build();
 *
 * fromGraph builds indexes in memory; fromArtifact memory-maps one
 * `.pgbi`; fromManifest opens a `.pgbs` shard set whose shards are
 * mmapped lazily and evicted under the cache budget. All three end in
 * the same GraphSource: a monolith is a shard set of one shard, so a
 * context exposes the same surface whatever backs it, and nothing in
 * it fatal()s on one kind of store.
 */

#ifndef PGB_PIPELINE_CONTEXT_HPP
#define PGB_PIPELINE_CONTEXT_HPP

#include <memory>
#include <span>
#include <string>

#include "graph/pangraph.hpp"
#include "index/fm_index.hpp"
#include "pipeline/chain.hpp"
#include "pipeline/seeder.hpp"
#include "pipeline/source.hpp"

namespace pgb::pipeline {

struct MapperConfig;
struct MappingStats;
struct ReadMapping;

/**
 * Everything a mapping run shares and never mutates, behind a
 * GraphSource. Returned as shared_ptr<const MappingContext> so
 * concurrent batches on different threads can hold the same context
 * safely.
 */
class MappingContext
{
  public:
    class Builder;

    /** The underlying source (monolith or shard set). */
    const GraphSource &source() const { return *source_; }

    /** The seed-stage strategy the mapper calls. */
    const Seeder &seeder() const { return source_->seeder(); }

    double avgNodeLength() const { return source_->avgNodeLength(); }

    /** Whether haplotype walks (giraffe's filter) are available. */
    bool hasGbwt() const { return source_->hasGbwt(); }

    int k() const { return source_->k(); }
    int w() const { return source_->w(); }

    MappingContext(const MappingContext &) = delete;
    MappingContext &operator=(const MappingContext &) = delete;

  private:
    MappingContext() = default;

    std::unique_ptr<const GraphSource> source_;
};

/**
 * The single way to construct a MappingContext. Exactly one of
 * fromGraph / fromArtifact / fromManifest must be set; the remaining
 * knobs default to the `pgb index` defaults. k/w/buildGbwt/
 * fmSampleRate shape in-memory builds only (artifacts and manifests
 * carry their own); shardCacheMb applies to manifests only.
 */
class MappingContext::Builder
{
  public:
    Builder() = default;

    /** Build indexes in memory over @p graph, which must outlive the
     *  context (referenced, not copied). */
    Builder &fromGraph(const graph::PanGraph &graph);

    /** Memory-map the `.pgbi` artifact at @p path. */
    Builder &fromArtifact(std::string path);

    /** Open the `.pgbs` shard set at @p path (lazy per-shard mmap). */
    Builder &fromManifest(std::string path);

    /** Seeding strategy (kMem needs FM sections / builds them). */
    Builder &seeder(SeederKind kind);

    Builder &k(int k);
    Builder &w(int w);

    /** Index-construction threads (fromGraph only). */
    Builder &threads(unsigned threads);

    /** Build the GBWT too (fromGraph only; giraffe needs it). */
    Builder &buildGbwt(bool build);

    /** FM-index SA sampling rate (fromGraph + kMem only). */
    Builder &fmSampleRate(uint32_t rate);

    /** Shard cache budget in MiB (fromManifest only; 0 = unlimited). */
    Builder &shardCacheMb(uint64_t mb);

    /**
     * Construct the context. Fatal on an unset or doubly-set source,
     * on kMem against an artifact or shard set without FM sections,
     * and on any store validation failure (fails closed).
     */
    std::shared_ptr<const MappingContext> build() const;

  private:
    const graph::PanGraph *graph_ = nullptr;
    std::string artifactPath_;
    std::string manifestPath_;
    SeederKind seeder_ = SeederKind::kMinimizer;
    int k_ = 15;
    int w_ = 10;
    unsigned threads_ = 1;
    bool buildGbwt_ = false;
    uint32_t fmSampleRate_ = index::FmIndex::kDefaultSampleRate;
    uint64_t shardCacheMb_ = 0;
};

/**
 * Fatal unless @p config can map against @p context: config.k/w must
 * match the context's index parameters, and the giraffe profile needs
 * a context with a GBWT. mapBatch runs it on every call; `pgb serve`
 * runs it at start-up and on reload to fail fast.
 */
void checkConfig(const MappingContext &context, const MapperConfig &config);

/**
 * Map @p reads against @p context with per-run knobs @p config.
 * Stateless: builds nothing, mutates nothing shared; safe to call
 * concurrently with the same context. Fatal where checkConfig is.
 */
MappingStats mapBatch(const MappingContext &context,
                      const MapperConfig &config,
                      std::span<const seq::Sequence> reads);

/**
 * mapBatch, also collecting per-read outcomes: @p mappings is resized
 * to reads.size() with mappings[i] holding read i's result, in input
 * order at every thread count. The `pgb serve` response records and
 * `pgb map --dump` are built from this form.
 */
MappingStats mapBatch(const MappingContext &context,
                      const MapperConfig &config,
                      std::span<const seq::Sequence> reads,
                      std::vector<ReadMapping> &mappings);

} // namespace pgb::pipeline

#endif // PGB_PIPELINE_CONTEXT_HPP
