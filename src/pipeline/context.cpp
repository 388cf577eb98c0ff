#include "pipeline/context.hpp"

#include <algorithm>

#include "core/logging.hpp"
#include "pipeline/mapper.hpp"
#include "pipeline/shard_set.hpp"

namespace pgb::pipeline {

/**
 * The in-RAM GraphSource: one whole graph plus its indexes, either
 * built in memory or zero-copy views over one mmapped `.pgbi`
 * artifact. This is the historical MappingContext state, now behind
 * the GraphSource interface so the mapper no longer cares which
 * backing store it reads.
 */
class MonolithSource final : public GraphSource
{
  public:
    static std::unique_ptr<MonolithSource>
    build(const graph::PanGraph &graph, int k, int w, unsigned threads,
          bool build_gbwt, SeederKind seeder, uint32_t fm_sample_rate)
    {
        auto source = std::unique_ptr<MonolithSource>(
            new MonolithSource());
        source->graph_ = &graph;
        source->k_ = k;
        source->w_ = w;
        source->ownedMinimizers_ =
            std::make_unique<index::MinimizerIndex>(graph, k, w,
                                                    threads);
        source->minimizers_ = source->ownedMinimizers_.get();
        if (build_gbwt) {
            source->ownedGbwt_ = std::make_unique<index::GbwtIndex>(
                graph, true, threads);
            source->gbwt_ = source->ownedGbwt_.get();
        }
        if (seeder == SeederKind::kMem) {
            source->ownedFm_ = std::make_unique<index::FmIndex>(
                graph, fm_sample_rate);
            source->fm_ = source->ownedFm_.get();
        }
        source->finalize(seeder);
        return source;
    }

    static std::unique_ptr<MonolithSource>
    load(const std::string &artifact_path, SeederKind seeder)
    {
        auto source = std::unique_ptr<MonolithSource>(
            new MonolithSource());
        source->artifact_ = store::Artifact::load(artifact_path);
        const store::Artifact &artifact = *source->artifact_;
        source->graph_ = &artifact.graph();
        source->minimizers_ = &artifact.minimizers();
        source->gbwt_ = artifact.gbwt();
        source->fm_ = artifact.fmIndex();
        source->k_ = artifact.k();
        source->w_ = artifact.w();
        if (seeder == SeederKind::kMem && source->fm_ == nullptr) {
            core::fatal(artifact_path,
                        ": artifact has no FM-index sections; rebuild "
                        "it with `pgb index --seeder=mem` to map with "
                        "--seeder=mem");
        }
        source->finalize(seeder);
        return source;
    }

    // ---- GraphSource.

    const char *kindName() const override { return "monolith"; }
    const Seeder &seeder() const override { return *seeder_; }
    double avgNodeLength() const override { return avgNodeLength_; }
    bool hasGbwt() const override { return gbwt_ != nullptr; }
    size_t shardCount() const override { return 1; }

    void
    extractSubgraph(graph::Handle start, size_t radius,
                    graph::LocalGraph &out,
                    uint32_t *origin) const override
    {
        graph_->extractSubgraph(start, radius, out, origin);
    }

    GbwtWalk
    gbwtWalkAt(uint32_t global_node) const override
    {
        GbwtWalk walk;
        walk.gbwt = gbwt_;
        walk.start = graph::Handle(global_node, false);
        return walk;
    }

    // ---- The monolith-only surface MappingContext forwards.

    const graph::PanGraph &graph() const { return *graph_; }
    const index::MinimizerIndex &minimizers() const
    {
        return *minimizers_;
    }
    const index::GbwtIndex *gbwt() const { return gbwt_; }
    const index::FmIndex *fmIndex() const { return fm_; }
    const GraphLinearization &linearization() const { return *linear_; }
    const store::Artifact *artifact() const { return artifact_.get(); }
    int k() const { return k_; }
    int w() const { return w_; }

  private:
    MonolithSource() = default;

    void
    finalize(SeederKind seeder)
    {
        linear_ = std::make_unique<GraphLinearization>(*graph_);
        avgNodeLength_ =
            std::max(1.0, graph_->stats().avgNodeLength);
        switch (seeder) {
          case SeederKind::kMinimizer:
            seeder_ = std::make_unique<MinimizerSeeder>(*minimizers_,
                                                        *linear_);
            break;
          case SeederKind::kMem:
            seeder_ = std::make_unique<MemSeeder>(
                *fm_, *graph_, *linear_, static_cast<uint32_t>(k_));
            break;
        }
    }

    std::unique_ptr<store::Artifact> artifact_;
    const graph::PanGraph *graph_ = nullptr;
    std::unique_ptr<index::MinimizerIndex> ownedMinimizers_;
    const index::MinimizerIndex *minimizers_ = nullptr;
    std::unique_ptr<index::GbwtIndex> ownedGbwt_;
    const index::GbwtIndex *gbwt_ = nullptr;
    std::unique_ptr<index::FmIndex> ownedFm_;
    const index::FmIndex *fm_ = nullptr;
    std::unique_ptr<Seeder> seeder_;
    std::unique_ptr<GraphLinearization> linear_;
    double avgNodeLength_ = 1.0;
    int k_ = 0, w_ = 0;
};

namespace {

[[noreturn]] void
shardSetOnlyFatal(const char *accessor)
{
    core::fatal("mapping context reads a shard set; ", accessor,
                "() is monolith-only (no single in-RAM structure "
                "exists — go through source() instead)");
}

} // namespace

const graph::PanGraph &
MappingContext::graph() const
{
    if (mono_ == nullptr)
        shardSetOnlyFatal("graph");
    return mono_->graph();
}

const index::MinimizerIndex &
MappingContext::minimizers() const
{
    if (mono_ == nullptr)
        shardSetOnlyFatal("minimizers");
    return mono_->minimizers();
}

const index::GbwtIndex *
MappingContext::gbwt() const
{
    if (mono_ == nullptr)
        shardSetOnlyFatal("gbwt");
    return mono_->gbwt();
}

const index::FmIndex *
MappingContext::fmIndex() const
{
    if (mono_ == nullptr)
        shardSetOnlyFatal("fmIndex");
    return mono_->fmIndex();
}

const GraphLinearization &
MappingContext::linearization() const
{
    if (mono_ == nullptr)
        shardSetOnlyFatal("linearization");
    return mono_->linearization();
}

bool
MappingContext::fromArtifact() const
{
    if (mono_ == nullptr)
        shardSetOnlyFatal("fromArtifact");
    return mono_->artifact() != nullptr;
}

const store::Artifact *
MappingContext::artifact() const
{
    if (mono_ == nullptr)
        shardSetOnlyFatal("artifact");
    return mono_->artifact();
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

MappingContext::Builder &
MappingContext::Builder::fromGraph(const graph::PanGraph &graph)
{
    graph_ = &graph;
    return *this;
}

MappingContext::Builder &
MappingContext::Builder::fromArtifact(std::string path)
{
    artifactPath_ = std::move(path);
    return *this;
}

MappingContext::Builder &
MappingContext::Builder::fromManifest(std::string path)
{
    manifestPath_ = std::move(path);
    return *this;
}

MappingContext::Builder &
MappingContext::Builder::seeder(SeederKind kind)
{
    seeder_ = kind;
    return *this;
}

MappingContext::Builder &
MappingContext::Builder::k(int k)
{
    k_ = k;
    return *this;
}

MappingContext::Builder &
MappingContext::Builder::w(int w)
{
    w_ = w;
    return *this;
}

MappingContext::Builder &
MappingContext::Builder::threads(unsigned threads)
{
    threads_ = threads;
    return *this;
}

MappingContext::Builder &
MappingContext::Builder::buildGbwt(bool build)
{
    buildGbwt_ = build;
    return *this;
}

MappingContext::Builder &
MappingContext::Builder::fmSampleRate(uint32_t rate)
{
    fmSampleRate_ = rate;
    return *this;
}

MappingContext::Builder &
MappingContext::Builder::shardCacheMb(uint64_t mb)
{
    shardCacheMb_ = mb;
    return *this;
}

std::shared_ptr<const MappingContext>
MappingContext::Builder::build() const
{
    const int sources = (graph_ != nullptr ? 1 : 0) +
                        (!artifactPath_.empty() ? 1 : 0) +
                        (!manifestPath_.empty() ? 1 : 0);
    if (sources != 1) {
        core::fatal("MappingContext::Builder: set exactly one of "
                    "fromGraph / fromArtifact / fromManifest (got ",
                    sources, ")");
    }
    auto context =
        std::shared_ptr<MappingContext>(new MappingContext());
    if (graph_ != nullptr) {
        auto mono = MonolithSource::build(*graph_, k_, w_, threads_,
                                          buildGbwt_, seeder_,
                                          fmSampleRate_);
        context->k_ = mono->k();
        context->w_ = mono->w();
        context->mono_ = mono.get();
        context->source_ = std::move(mono);
    } else if (!artifactPath_.empty()) {
        auto mono = MonolithSource::load(artifactPath_, seeder_);
        context->k_ = mono->k();
        context->w_ = mono->w();
        context->mono_ = mono.get();
        context->source_ = std::move(mono);
    } else {
        auto shards =
            ShardSetSource::open(manifestPath_, seeder_, shardCacheMb_);
        context->k_ = shards->k();
        context->w_ = shards->w();
        context->source_ = std::move(shards);
    }
    return context;
}

// ---------------------------------------------------------------------
// mapBatch
// ---------------------------------------------------------------------

MappingStats
mapBatch(const MappingContext &context, const MapperConfig &config,
         std::span<const seq::Sequence> reads)
{
    const Seq2GraphMapper mapper(context, config);
    return mapper.mapReads(reads);
}

MappingStats
mapBatch(const MappingContext &context, const MapperConfig &config,
         std::span<const seq::Sequence> reads,
         std::vector<ReadMapping> &mappings)
{
    const Seq2GraphMapper mapper(context, config);
    return mapper.mapReads(reads, &mappings);
}

} // namespace pgb::pipeline
