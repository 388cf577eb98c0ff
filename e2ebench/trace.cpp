#include "trace.hpp"

#include <cstring>

namespace pgb::e2ebench {

namespace {

/** Layer of a span name. Program spans: the mapper's stages and
 *  per-read span are pipeline code (seeder.cpp included), "align" is
 *  the stage that extracts the subgraph and runs the kernel,
 *  "shard.load" wraps store::Artifact::load. */
std::string
layerOf(const char *name)
{
    if (std::strcmp(name, "align") == 0)
        return "align";
    if (std::strcmp(name, "shard.load") == 0)
        return "store";
    if (std::strcmp(name, "mapper.read") == 0 ||
        std::strncmp(name, "seed", 4) == 0 ||
        std::strcmp(name, "cluster_chain") == 0 ||
        std::strcmp(name, "filter") == 0)
        return "pipeline";
    for (const char *layer : kLayers) {
        const size_t n = std::strlen(layer);
        if (std::strncmp(name, layer, n) == 0 && name[n] == '.')
            return layer;
    }
    return "other";
}

} // namespace

SelfTimes
selfTimes(const std::vector<obs::SpanEvent> &events)
{
    // Events arrive grouped by thread; a parent index is relative to
    // the first event of its thread's group.
    std::vector<double> childSeconds(events.size(), 0.0);
    size_t groupStart = 0;
    for (size_t i = 0; i < events.size(); ++i) {
        if (i > 0 && events[i].thread != events[i - 1].thread)
            groupStart = i;
        if (events[i].parent >= 0) {
            childSeconds[groupStart +
                         static_cast<size_t>(events[i].parent)] +=
                static_cast<double>(events[i].durationNanos) / 1e9;
        }
    }
    SelfTimes out;
    for (const char *layer : kLayers)
        out.byLayer[layer] = 0.0;
    for (size_t i = 0; i < events.size(); ++i) {
        const double self =
            static_cast<double>(events[i].durationNanos) / 1e9 -
            childSeconds[i];
        out.bySpan[events[i].name] += self;
        out.byLayer[layerOf(events[i].name)] += self;
    }
    return out;
}

} // namespace pgb::e2ebench
