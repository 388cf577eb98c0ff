/**
 * @file
 * Tracing spans: nested, thread-local, chrome://tracing-exportable.
 *
 * A Span is an RAII scope that records {name, thread, start, duration,
 * parent} into a thread-local event buffer when tracing is enabled.
 * Nesting is tracked per thread with a thread-local span stack: a span
 * opened while another span is live on the *same* thread records that
 * span as its parent. Work that migrates across threads (a stolen pool
 * task) is *reparented* by construction — it nests under whatever is
 * live on the executing thread, which for a stolen task is nothing, so
 * per-task spans appear as thread roots on the thief. That is exactly
 * the shape chrome://tracing renders meaningfully.
 *
 * Cost contract: with tracing disabled (the default), constructing a
 * Span is one relaxed atomic load and zero allocations — it may sit on
 * per-read pipeline paths without distorting the timed benches. With
 * tracing enabled, each span is two steady_clock reads plus one
 * append to a pre-grown thread-local vector; buffers are capped
 * (kMaxEventsPerThread) and overflow is counted, never reallocated
 * unbounded.
 *
 * Span names must be string literals (or otherwise outlive the trace):
 * the event buffer stores the pointer, not a copy.
 */

#ifndef PGB_OBS_SPAN_HPP
#define PGB_OBS_SPAN_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/timer.hpp"

namespace pgb::obs {

namespace detail {

extern std::atomic<bool> tracingEnabled;

} // namespace detail

/** Whether span recording is currently on. */
inline bool
tracingOn()
{
    return detail::tracingEnabled.load(std::memory_order_relaxed);
}

/** Turn span recording on or off (off drops no recorded events). */
void enableTracing(bool on);

/** One completed span, in its thread's recording order. */
struct SpanEvent
{
    const char *name = nullptr;
    uint64_t startNanos = 0;
    uint64_t durationNanos = 0;
    uint32_t thread = 0;   ///< dense trace-local thread id
    int32_t parent = -1;   ///< index into the same thread's events
    uint16_t depth = 0;    ///< nesting depth on the executing thread
};

/** RAII tracing scope; see the file comment for the cost contract. */
class Span
{
  public:
    explicit Span(const char *name)
    {
        if (tracingOn())
            open(name, core::monotonicNanos());
    }

    ~Span()
    {
        if (live_)
            close(core::monotonicNanos());
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    friend class StageClock; // opens and closes with its own clock reads
    Span() = default;

    void open(const char *name, uint64_t startNanos);
    void close(uint64_t endNanos);

    bool live_ = false;
    uint32_t generation_ = 0; ///< buffer generation at open time
    uint32_t slot_ = 0;
    uint64_t startNanos_ = 0;
};

/**
 * The one stage clock: an RAII scope that reads the monotonic clock at
 * open and at close and charges that interval to @p stage's slot in
 * @p times, to the stage's span when tracing is armed, to the
 * `mapper.stage_nanos.<stage>` histogram for the mapper's four stages,
 * and to @p kernelSeconds when the scope holds the profile's kernel.
 */
class StageClock
{
  public:
    StageClock(core::StageTimes &times, core::Stage stage,
               double *kernelSeconds = nullptr)
        : times_(times), kernelSeconds_(kernelSeconds), stage_(stage),
          startNanos_(core::monotonicNanos())
    {
        if (tracingOn())
            span_.open(core::stageName(stage), startNanos_);
    }

    ~StageClock();

  private:
    core::StageTimes &times_;
    double *kernelSeconds_;
    core::Stage stage_;
    uint64_t startNanos_;
    Span span_;
};

/** Copy of every recorded event, grouped by thread, recording order. */
std::vector<SpanEvent> traceEvents();

/** Total recorded events across all threads. */
size_t traceEventCount();

/** Spans dropped because a thread's buffer hit its cap. */
uint64_t traceDroppedCount();

/** Drop all recorded events (buffers stay allocated). */
void clearTrace();

/**
 * The recorded trace as chrome://tracing "traceEvents" JSON (complete
 * "X" events, microsecond timestamps). Load the written file via
 * chrome://tracing or https://ui.perfetto.dev.
 */
std::string traceToJson();

} // namespace pgb::obs

#endif // PGB_OBS_SPAN_HPP
