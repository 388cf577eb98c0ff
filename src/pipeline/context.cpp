#include "pipeline/context.hpp"

#include "core/logging.hpp"

namespace pgb::pipeline {

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
        context->source_ =
            GraphSource::build(*graph_, k_, w_, threads_, buildGbwt_,
                               seeder_, fmSampleRate_);
    } else if (!artifactPath_.empty()) {
        context->source_ = GraphSource::load(artifactPath_, seeder_);
    } else {
        context->source_ =
            GraphSource::open(manifestPath_, seeder_, shardCacheMb_);
    }
    return context;
}

} // namespace pgb::pipeline
