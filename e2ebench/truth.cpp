#include "truth.hpp"

#include <algorithm>

#include "core/logging.hpp"

namespace pgb::e2ebench {

namespace {

uint64_t
packStrand(uint32_t node, bool reverse)
{
    return (static_cast<uint64_t>(node) << 1) | (reverse ? 1u : 0u);
}

} // namespace

TruthOracle::TruthOracle(const graph::PanGraph &graph) : graph_(graph)
{
    stepStarts_.resize(graph.pathCount());
    for (graph::PathId p = 0; p < graph.pathCount(); ++p) {
        pathIds_.emplace(graph.pathName(p), p);
        uint64_t offset = 0;
        for (const graph::Handle step : graph.pathSteps(p)) {
            stepStarts_[p].push_back(offset);
            offset += graph.nodeLength(step.node());
        }
        stepStarts_[p].push_back(offset);
    }
}

TruthSet
TruthOracle::project(const ReadOrigin &origin) const
{
    const auto it = pathIds_.find(origin.path);
    if (it == pathIds_.end())
        core::fatal("truth: no path named '", origin.path, "'");
    const std::vector<uint64_t> &starts = stepStarts_[it->second];
    const uint64_t end = origin.start + origin.span;
    if (origin.span == 0 || end > starts.back()) {
        core::fatal("truth: interval [", origin.start, ", ", end,
                    ") is empty or runs past path '", origin.path,
                    "' (", starts.back(), " bases)");
    }
    const auto &steps = graph_.pathSteps(it->second);
    // The last step starting at or before origin.start covers it.
    size_t s = static_cast<size_t>(
        std::upper_bound(starts.begin(), starts.end() - 1,
                         origin.start) -
        starts.begin() - 1);
    TruthSet truth;
    for (; s < steps.size() && starts[s] < end; ++s) {
        // A read sampled from the path's forward spelling runs along a
        // reversed step in the opposite orientation.
        truth.push_back(packStrand(steps[s].node(),
                                   origin.reverse != steps[s].isReverse()));
    }
    std::sort(truth.begin(), truth.end());
    truth.erase(std::unique(truth.begin(), truth.end()), truth.end());
    return truth;
}

bool
mappingCorrect(const TruthSet &truth, const pipeline::ReadMapping &mapping)
{
    return mapping.mapped &&
           std::binary_search(truth.begin(), truth.end(),
                              packStrand(mapping.node, mapping.reverse));
}

} // namespace pgb::e2ebench
