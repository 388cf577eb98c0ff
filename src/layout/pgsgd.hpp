/**
 * @file
 * PGSGD: Path-Guided Stochastic Gradient Descent graph layout
 * (extracted from odgi layout in the paper).
 *
 * Computes a 2-D layout of a pangenome graph whose Euclidean distances
 * approximate path (nucleotide) distances. Each update step samples a
 * pair of anchors on a random path — biased toward nearby pairs with a
 * Zipf-like distribution — and nudges both toward their target
 * distance (paper Figure 4g). Updates are parallelized lock-free with
 * Hogwild!; the rare racy update is corrected by later iterations.
 *
 * The layout array is uniformly randomly indexed, independent of graph
 * structure, which is what makes this the memory-bound, low-IPC kernel
 * of the paper's Figure 6/7. Coordinates are relaxed std::atomic
 * doubles: same lock-free semantics as odgi's plain doubles, without
 * the formal data race.
 */

#ifndef PGB_LAYOUT_PGSGD_HPP
#define PGB_LAYOUT_PGSGD_HPP

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/probe.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "graph/pangraph.hpp"

namespace pgb::layout {

/**
 * Path step index: flattened (path, step) records with cumulative
 * nucleotide offsets, supporting O(1) random step sampling and O(1)
 * path-distance evaluation. Mirrors odgi's path index (the sequential
 * preprocessing step that limits end-to-end scaling in Figure 5).
 */
class PathIndex
{
  public:
    explicit PathIndex(const graph::PanGraph &graph);

    /** Total steps across all paths. */
    size_t totalSteps() const { return stepNode_.size(); }

    size_t pathCount() const { return pathFirst_.size(); }

    /** Number of steps of path @p path. */
    size_t
    pathSteps(size_t path) const
    {
        return pathEnd(path) - pathFirst_[path];
    }

    /** Node of flattened step @p step. */
    uint32_t stepNode(size_t step) const { return stepNode_[step]; }

    /** Nucleotide offset of step @p step within its path. */
    uint64_t stepOffset(size_t step) const { return stepOffset_[step]; }

    /** Path owning flattened step @p step. */
    size_t pathOf(size_t step) const;

    /** First flattened step of @p path. */
    size_t pathFirst(size_t path) const { return pathFirst_[path]; }

    /** One past the last flattened step of @p path. */
    size_t pathEnd(size_t path) const;

    /** Raw step-offset array (probe address provenance). */
    const uint64_t *stepOffsetsData() const { return stepOffset_.data(); }

  private:
    std::vector<uint32_t> stepNode_;
    std::vector<uint64_t> stepOffset_;
    std::vector<size_t> pathFirst_;
};

/** PGSGD hyper-parameters (defaults follow odgi layout). */
struct PgsgdParams
{
    uint32_t iterations = 30;
    /** Update steps per iteration = updateFactor * total path steps. */
    double updateFactor = 1.0;
    double etaMax = 100.0;    ///< initial learning rate
    double etaMin = 0.01;     ///< final learning rate
    double zipfTheta = 0.99;  ///< near-pair sampling bias
    /** Max step distance (in steps) for the Zipf draw; 0 = path length. */
    uint64_t spaceMax = 1000;
    unsigned threads = 1;
    uint64_t seed = 42;
    bool useLocks = false;    ///< ablation: mutex-guarded updates
};

/** 2-D layout: one (x, y) point per node endpoint (2 per node). */
class Layout
{
  public:
    Layout(size_t node_count, uint64_t seed);

    size_t points() const { return count_; }

    double x(size_t point) const
    {
        return x_[point].load(std::memory_order_relaxed);
    }
    double y(size_t point) const
    {
        return y_[point].load(std::memory_order_relaxed);
    }

    std::atomic<double> *xData() { return x_.get(); }
    std::atomic<double> *yData() { return y_.get(); }

    /** Index of the start endpoint of @p node. */
    static size_t startPoint(uint32_t node) { return 2 * node; }
    /** Index of the end endpoint of @p node. */
    static size_t endPoint(uint32_t node) { return 2 * node + 1; }

  private:
    size_t count_;
    std::unique_ptr<std::atomic<double>[]> x_;
    std::unique_ptr<std::atomic<double>[]> y_;
};

/** PGSGD outcome metrics. */
struct PgsgdResult
{
    double stressBefore = 0.0; ///< normalized stress of the random init
    double stressAfter = 0.0;  ///< after the SGD schedule
    uint64_t updates = 0;
};

/**
 * Normalized layout stress: mean over sampled step pairs of
 * ((d_layout - d_path) / d_path)^2. Lower is better.
 */
double layoutStress(const PathIndex &index, Layout &layout,
                    size_t samples, uint64_t seed);

namespace pgsgddetail {

/** One SGD update step; shared by CPU and GPU-simulated variants. */
template <typename Probe>
inline void
updatePair(std::atomic<double> *xs, std::atomic<double> *ys,
           size_t point_a, size_t point_b, double target, double eta,
           Probe &probe)
{
    // Scalar-double arithmetic: classified kVector to mirror the
    // paper's MICA binning of SSE scalar FP ops (Figure 8 discussion).
    probe.load(xs + point_a, 8);
    probe.load(ys + point_a, 8);
    probe.load(xs + point_b, 8);
    probe.load(ys + point_b, 8);
    const double ax = xs[point_a].load(std::memory_order_relaxed);
    const double ay = ys[point_a].load(std::memory_order_relaxed);
    const double bx = xs[point_b].load(std::memory_order_relaxed);
    const double by = ys[point_b].load(std::memory_order_relaxed);
    const double dx = ax - bx;
    const double dy = ay - by;
    double dist = std::sqrt(dx * dx + dy * dy);
    probe.op(core::OpKind::kVector, 6); // mul/add/sqrt chain
    if (dist < 1e-9)
        dist = 1e-9;
    // Weighted SGD step (w = 1/d^2), clamped to mu <= 1.
    const double w = 1.0 / (target * target);
    double mu = eta * w;
    probe.branch(/* site */ 80, mu > 1.0);
    if (mu > 1.0)
        mu = 1.0;
    const double delta = mu * (dist - target) / 2.0;
    const double rx = delta * dx / dist;
    const double ry = delta * dy / dist;
    probe.op(core::OpKind::kVector, 8); // divisions and scaling
    xs[point_a].store(ax - rx, std::memory_order_relaxed);
    ys[point_a].store(ay - ry, std::memory_order_relaxed);
    xs[point_b].store(bx + rx, std::memory_order_relaxed);
    ys[point_b].store(by + ry, std::memory_order_relaxed);
    probe.store(xs + point_a, 8);
    probe.store(ys + point_a, 8);
    probe.store(xs + point_b, 8);
    probe.store(ys + point_b, 8);
}

/**
 * Sample a step pair on a random path: first step uniform, second at a
 * Zipf-distributed step distance (paper: anchors biased toward nearby
 * pairs so local structure converges first).
 */
template <typename Probe>
inline bool
samplePair(const PathIndex &index, const PgsgdParams &params,
           core::Rng &rng, Probe &probe, size_t &step_a, size_t &step_b)
{
    step_a = rng.below(index.totalSteps());
    const size_t path = index.pathOf(step_a);
    const size_t first = index.pathFirst(path);
    const size_t end = index.pathEnd(path);
    const size_t len = end - first;
    probe.op(core::OpKind::kScalar, 4);
    if (len < 2)
        return false;
    uint64_t space = len - 1;
    if (params.spaceMax > 0 && space > params.spaceMax)
        space = params.spaceMax;
    const uint64_t jump = rng.zipf(space, params.zipfTheta);
    const bool forward = rng.chance(0.5);
    probe.op(core::OpKind::kScalar, 3);
    const size_t pos = step_a - first;
    size_t target_pos;
    if (forward) {
        target_pos = pos + jump < len ? pos + jump
                                      : (pos >= jump ? pos - jump : len - 1);
    } else {
        target_pos = pos >= jump ? pos - jump
                                 : (pos + jump < len ? pos + jump : 0);
    }
    step_b = first + target_pos;
    return step_b != step_a;
}

} // namespace pgsgddetail

/**
 * Run the PGSGD layout kernel.
 *
 * With params.threads > 1 the updates run Hogwild!-style (lock-free,
 * racy-but-self-correcting); characterization runs use one thread.
 */
template <typename Probe = core::NullProbe>
PgsgdResult
pgsgdLayout(const PathIndex &index, Layout &layout,
            const PgsgdParams &params, Probe &probe)
{
    PgsgdResult result;
    result.stressBefore =
        layoutStress(index, layout, 10000, params.seed ^ 0xBEEF);

    const uint64_t updates_per_iter = static_cast<uint64_t>(
        params.updateFactor * static_cast<double>(index.totalSteps()));
    const double lambda =
        params.iterations <= 1
            ? 0.0
            : std::log(params.etaMax / params.etaMin) /
                  static_cast<double>(params.iterations - 1);

    std::atomic<uint64_t> total_updates(0);
    std::mutex lock; // only used for the useLocks ablation

    for (uint32_t iter = 0; iter < params.iterations; ++iter) {
        const double eta =
            params.etaMax * std::exp(-lambda * static_cast<double>(iter));
        // Synchronization barrier between iterations (the paper notes
        // these barriers limit thread scaling).
        core::parallelRun(params.threads, [&](unsigned tid) {
            core::Rng rng = core::Rng::forStream(
                params.seed + iter, tid);
            const uint64_t mine =
                updates_per_iter / core::clampThreads(params.threads);
            for (uint64_t u = 0; u < mine; ++u) {
                size_t step_a, step_b;
                if (!pgsgddetail::samplePair(index, params, rng, probe,
                                             step_a, step_b)) {
                    continue;
                }
                // Path distance between the chosen anchors.
                const uint64_t off_a = index.stepOffset(step_a);
                const uint64_t off_b = index.stepOffset(step_b);
                probe.load(index.stepOffsetsData() + step_a, 8);
                probe.load(index.stepOffsetsData() + step_b, 8);
                const double target = off_a > off_b
                    ? static_cast<double>(off_a - off_b)
                    : static_cast<double>(off_b - off_a);
                if (target <= 0.0)
                    continue;
                // Anchor endpoints: node starts (odgi picks an end by
                // intra-node offset; steps here are whole nodes).
                const size_t pa =
                    Layout::startPoint(index.stepNode(step_a));
                const size_t pb =
                    Layout::startPoint(index.stepNode(step_b));
                if (pa == pb)
                    continue;
                if (params.useLocks) {
                    std::lock_guard<std::mutex> guard(lock);
                    pgsgddetail::updatePair(layout.xData(),
                                            layout.yData(), pa, pb,
                                            target, eta, probe);
                } else {
                    pgsgddetail::updatePair(layout.xData(),
                                            layout.yData(), pa, pb,
                                            target, eta, probe);
                }
                total_updates.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    result.updates = total_updates.load();
    result.stressAfter =
        layoutStress(index, layout, 10000, params.seed ^ 0xF00D);
    return result;
}

/** Convenience overload without instrumentation. */
PgsgdResult pgsgdLayout(const PathIndex &index, Layout &layout,
                        const PgsgdParams &params);

} // namespace pgb::layout

#endif // PGB_LAYOUT_PGSGD_HPP
