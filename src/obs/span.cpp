#include "obs/span.hpp"

#include <memory>
#include <mutex>
#include <sstream>

#include "obs/histogram.hpp"

namespace pgb::obs {

namespace detail {

std::atomic<bool> tracingEnabled{false};

} // namespace detail

namespace {

/** Append nanoseconds as microseconds with three decimals. */
void
appendMicros(std::ostream &out, uint64_t nanos)
{
    const uint64_t frac = nanos % 1000;
    out << nanos / 1000 << '.' << static_cast<char>('0' + frac / 100)
        << static_cast<char>('0' + frac / 10 % 10)
        << static_cast<char>('0' + frac % 10);
}

/** One sample per mapping-stage scope; Figure 3's stages have none. */
Histogram stageNanos[] = {
    Histogram("mapper.stage_nanos.seed"),
    Histogram("mapper.stage_nanos.cluster_chain"),
    Histogram("mapper.stage_nanos.filter"),
    Histogram("mapper.stage_nanos.align"),
};

/** Spans dropped on buffer overflow, across all threads. */
std::atomic<uint64_t> droppedSpans{0};

/**
 * One thread's recording state. `events` and `generation` are read by
 * other threads (trace export), so they are guarded by `lock`; `stack`
 * is touched only by the owning thread. Buffers are owned by the
 * global registry and never freed, so events survive thread exit.
 */
struct ThreadTrace
{
    static constexpr size_t kMaxEventsPerThread = 1u << 16;

    std::mutex lock;
    std::vector<SpanEvent> events;
    uint32_t generation = 0;
    uint32_t tid = 0;
    std::vector<uint32_t> stack; ///< open span slots, owner-only
};

struct TraceRegistry
{
    std::mutex lock;
    std::vector<std::unique_ptr<ThreadTrace>> threads;

    static TraceRegistry &
    instance()
    {
        static TraceRegistry registry;
        return registry;
    }
};

ThreadTrace &
localTrace()
{
    thread_local ThreadTrace *trace = [] {
        TraceRegistry &registry = TraceRegistry::instance();
        std::lock_guard<std::mutex> guard(registry.lock);
        auto owned = std::make_unique<ThreadTrace>();
        owned->tid = static_cast<uint32_t>(registry.threads.size());
        ThreadTrace *raw = owned.get();
        registry.threads.push_back(std::move(owned));
        return raw;
    }();
    return *trace;
}

/** Escape a span name for a JSON string literal. */
void
appendEscaped(std::ostream &out, const char *text)
{
    for (const char *p = text; *p != '\0'; ++p) {
        if (*p == '"' || *p == '\\')
            out << '\\';
        out << *p;
    }
}

} // namespace

void
enableTracing(bool on)
{
    detail::tracingEnabled.store(on, std::memory_order_relaxed);
}

void
Span::open(const char *name, uint64_t startNanos)
{
    ThreadTrace &trace = localTrace();
    startNanos_ = startNanos;
    std::lock_guard<std::mutex> guard(trace.lock);
    if (trace.events.size() >= ThreadTrace::kMaxEventsPerThread) {
        droppedSpans.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    SpanEvent event;
    event.name = name;
    event.startNanos = startNanos_;
    event.thread = trace.tid;
    event.depth = static_cast<uint16_t>(trace.stack.size());
    event.parent = trace.stack.empty()
        ? -1 : static_cast<int32_t>(trace.stack.back());
    slot_ = static_cast<uint32_t>(trace.events.size());
    trace.events.push_back(event);
    trace.stack.push_back(slot_);
    generation_ = trace.generation;
    live_ = true;
}

void
Span::close(uint64_t endNanos)
{
    live_ = false;
    ThreadTrace &trace = localTrace();
    std::lock_guard<std::mutex> guard(trace.lock);
    // A clearTrace() between open and close invalidated the slot.
    if (trace.generation != generation_)
        return;
    trace.events[slot_].durationNanos = endNanos - startNanos_;
    trace.stack.pop_back();
}

StageClock::~StageClock()
{
    const uint64_t end = core::monotonicNanos();
    if (span_.live_)
        span_.close(end);
    const uint64_t nanos = end - startNanos_;
    if (static_cast<size_t>(stage_) < std::size(stageNanos))
        stageNanos[static_cast<size_t>(stage_)].record(nanos);
    const double seconds = static_cast<double>(nanos) * 1e-9;
    times_.add(stage_, seconds);
    if (kernelSeconds_ != nullptr)
        *kernelSeconds_ += seconds;
}

std::vector<SpanEvent>
traceEvents()
{
    TraceRegistry &registry = TraceRegistry::instance();
    std::vector<SpanEvent> out;
    std::lock_guard<std::mutex> registry_guard(registry.lock);
    for (const auto &trace : registry.threads) {
        std::lock_guard<std::mutex> guard(trace->lock);
        out.insert(out.end(), trace->events.begin(),
                   trace->events.end());
    }
    return out;
}

size_t
traceEventCount()
{
    TraceRegistry &registry = TraceRegistry::instance();
    size_t count = 0;
    std::lock_guard<std::mutex> registry_guard(registry.lock);
    for (const auto &trace : registry.threads) {
        std::lock_guard<std::mutex> guard(trace->lock);
        count += trace->events.size();
    }
    return count;
}

uint64_t
traceDroppedCount()
{
    return droppedSpans.load(std::memory_order_relaxed);
}

void
clearTrace()
{
    TraceRegistry &registry = TraceRegistry::instance();
    std::lock_guard<std::mutex> registry_guard(registry.lock);
    for (const auto &trace : registry.threads) {
        std::lock_guard<std::mutex> guard(trace->lock);
        trace->events.clear();
        trace->stack.clear();
        ++trace->generation;
    }
    droppedSpans.store(0, std::memory_order_relaxed);
}

std::string
traceToJson()
{
    const std::vector<SpanEvent> events = traceEvents();
    std::ostringstream out;
    out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
    bool first = true;
    for (const SpanEvent &event : events) {
        if (!first)
            out << ',';
        first = false;
        out << "\n    {\"name\": \"";
        appendEscaped(out, event.name);
        out << "\", \"cat\": \"pgb\", \"ph\": \"X\", \"ts\": ";
        appendMicros(out, event.startNanos);
        out << ", \"dur\": ";
        appendMicros(out, event.durationNanos);
        out << ", \"pid\": 1, \"tid\": " << event.thread
            << ", \"args\": {\"depth\": " << event.depth << "}}";
    }
    out << "\n  ]\n}\n";
    return out.str();
}

} // namespace pgb::obs
