/**
 * @file
 * Wall-clock timing: the monotonic timestamp source, the stopwatch
 * benches and tools use, and the per-stage seconds that the one stage
 * clock (obs::StageClock) charges.
 */

#ifndef PGB_CORE_TIMER_HPP
#define PGB_CORE_TIMER_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

#include "core/logging.hpp"

namespace pgb::core {

/**
 * Nanoseconds on the monotonic clock, from an arbitrary epoch. The
 * timestamp source for tracing spans (obs::Span): one steady_clock
 * read, no formatting.
 */
inline uint64_t
monotonicNanos()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Monotonic wall-clock stopwatch. */
class WallTimer
{
  public:
    WallTimer() { reset(); }

    /** Restart the stopwatch at zero. */
    void reset() { start_ = Clock::now(); }

    /** Elapsed seconds since construction or the last reset(). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

    /** Elapsed milliseconds. */
    double milliseconds() const { return seconds() * 1e3; }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/** Timed pipeline stages in order: Figure 2's mapping stages, then
 *  Figure 3's graph-building ones. */
enum class Stage : uint8_t
{
    kSeed, kClusterChain, kFilter, kAlign,
    kAlignment, kInduction, kPolishing, kVisualization,
};

/** The paper's stage names, indexed by Stage. */
inline constexpr const char *kStageNames[] = {
    "seed",      "cluster_chain", "filter",    "align",
    "alignment", "induction",     "polishing", "visualization",
};
inline constexpr size_t kStageCount = std::size(kStageNames);

constexpr const char *
stageName(Stage stage)
{
    return kStageNames[static_cast<size_t>(stage)];
}

/**
 * Accumulated seconds per stage (Figures 2 and 3): one fixed slot per
 * Stage, charged by obs::StageClock. Names resolve to slots only at
 * report time; a name that is no stage reads 0 and panics on add().
 */
class StageTimes
{
  public:
    void
    add(Stage stage, double seconds)
    {
        seconds_[static_cast<size_t>(stage)] += seconds;
        entered_ |= 1u << static_cast<unsigned>(stage);
    }

    void
    add(std::string_view name, double seconds)
    {
        const size_t i = slot(name);
        if (i == kStageCount)
            panic("StageTimes: no stage named '", name, "'");
        add(static_cast<Stage>(i), seconds);
    }

    double
    seconds(std::string_view name) const
    {
        const size_t i = slot(name);
        return i == kStageCount ? 0.0 : seconds_[i];
    }

    double
    total() const
    {
        return std::accumulate(std::begin(seconds_), std::end(seconds_),
                               0.0);
    }

    /** Every stage ever charged, as (name, seconds), pipeline order. */
    std::vector<std::pair<const char *, double>>
    stages() const
    {
        std::vector<std::pair<const char *, double>> out;
        for (size_t i = 0; i < kStageCount; ++i) {
            if (entered_ >> i & 1u)
                out.emplace_back(kStageNames[i], seconds_[i]);
        }
        return out;
    }

    StageTimes &
    operator+=(const StageTimes &other)
    {
        for (size_t i = 0; i < kStageCount; ++i)
            seconds_[i] += other.seconds_[i];
        entered_ |= other.entered_;
        return *this;
    }

  private:
    static size_t
    slot(std::string_view name)
    {
        size_t i = 0;
        while (i < kStageCount && name != kStageNames[i])
            ++i;
        return i;
    }

    double seconds_[kStageCount] = {};
    uint32_t entered_ = 0; ///< one bit per Stage
};

} // namespace pgb::core

#endif // PGB_CORE_TIMER_HPP
