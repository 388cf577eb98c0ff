/**
 * @file
 * Self time per layer from recorded spans.
 *
 * A span's self time is its duration minus the time its child spans
 * (same thread, by the recorded parent link) cover. Each span name
 * belongs to one layer of the suite: graph, index, store, pipeline,
 * align or serve. Names the benchmark records around its own calls
 * use the same layer prefixes; names the program records inside src/
 * are mapped in trace.cpp.
 */

#ifndef PGB_E2EBENCH_TRACE_HPP
#define PGB_E2EBENCH_TRACE_HPP

#include <map>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace pgb::e2ebench {

/** The layers self time is reported for, in report order. */
inline constexpr const char *kLayers[] = {"graph",    "index", "store",
                                          "pipeline", "align", "serve"};

struct SelfTimes
{
    std::map<std::string, double> bySpan;  ///< seconds, by span name
    std::map<std::string, double> byLayer; ///< seconds, every kLayers
};

/** Self time of @p events (as obs::traceEvents returns them). */
SelfTimes selfTimes(const std::vector<obs::SpanEvent> &events);

} // namespace pgb::e2ebench

#endif // PGB_E2EBENCH_TRACE_HPP
