#include "layout/pgsgd.hpp"

#include <algorithm>

#include "core/logging.hpp"

namespace pgb::layout {

PathIndex::PathIndex(const graph::PanGraph &graph)
{
    if (graph.pathCount() == 0)
        core::fatal("PathIndex: graph has no paths");
    for (graph::PathId path = 0; path < graph.pathCount(); ++path) {
        pathFirst_.push_back(stepNode_.size());
        uint64_t offset = 0;
        for (graph::Handle step : graph.pathSteps(path)) {
            stepNode_.push_back(step.node());
            const auto length =
                static_cast<uint32_t>(graph.nodeLength(step.node()));
            stepOffset_.push_back(offset);
            offset += length;
        }
    }
}

size_t
PathIndex::pathOf(size_t step) const
{
    const auto it = std::upper_bound(pathFirst_.begin(),
                                     pathFirst_.end(), step);
    return static_cast<size_t>(it - pathFirst_.begin()) - 1;
}

size_t
PathIndex::pathEnd(size_t path) const
{
    return path + 1 < pathFirst_.size() ? pathFirst_[path + 1]
                                        : stepNode_.size();
}

Layout::Layout(size_t node_count, uint64_t seed)
    : count_(node_count * 2),
      x_(std::make_unique<std::atomic<double>[]>(count_)),
      y_(std::make_unique<std::atomic<double>[]>(count_))
{
    // odgi seeds layouts along a space-filling-ish line with noise; a
    // scaled random init reproduces the "twisted" starting condition.
    core::Rng rng(seed);
    const double span = static_cast<double>(count_);
    for (size_t i = 0; i < count_; ++i) {
        x_[i].store(rng.uniform() * span, std::memory_order_relaxed);
        y_[i].store(rng.uniform() * span, std::memory_order_relaxed);
    }
}

double
layoutStress(const PathIndex &index, Layout &layout, size_t samples,
             uint64_t seed)
{
    core::Rng rng(seed);
    core::NullProbe probe;
    PgsgdParams params; // default sampling shape
    double total = 0.0;
    size_t used = 0;
    for (size_t i = 0; i < samples; ++i) {
        size_t step_a, step_b;
        if (!pgsgddetail::samplePair(index, params, rng, probe, step_a,
                                     step_b)) {
            continue;
        }
        const uint64_t off_a = index.stepOffset(step_a);
        const uint64_t off_b = index.stepOffset(step_b);
        const double target = off_a > off_b
            ? static_cast<double>(off_a - off_b)
            : static_cast<double>(off_b - off_a);
        if (target <= 0.0)
            continue;
        const size_t pa = Layout::startPoint(index.stepNode(step_a));
        const size_t pb = Layout::startPoint(index.stepNode(step_b));
        if (pa == pb)
            continue;
        const double dx = layout.x(pa) - layout.x(pb);
        const double dy = layout.y(pa) - layout.y(pb);
        const double dist = std::sqrt(dx * dx + dy * dy);
        const double rel = (dist - target) / target;
        total += rel * rel;
        ++used;
    }
    return used == 0 ? 0.0 : total / static_cast<double>(used);
}

PgsgdResult
pgsgdLayout(const PathIndex &index, Layout &layout,
            const PgsgdParams &params)
{
    core::NullProbe probe;
    return pgsgdLayout(index, layout, params, probe);
}

} // namespace pgb::layout
