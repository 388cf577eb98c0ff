#include "pipeline/seeder.hpp"

#include <algorithm>

#include "core/logging.hpp"
#include "core/scratch.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "seq/alphabet.hpp"

namespace pgb::pipeline {

namespace {

obs::Counter obsSeedAnchors("seed.anchors");
obs::Counter obsSeedMems("seed.mems");
obs::Counter obsSeedMemOccs("seed.mem_occurrences");
obs::Counter obsSeedDropped("seed.dropped_repetitive");
obs::Counter obsSeedFmSteps("seed.fm_steps");

/** Thread-local temporaries for detail::collectMemAnchors. */
struct MemScratch
{
    std::vector<const index::FmIndex *> indexes;
    index::SmemSet smems;
    std::vector<uint8_t> rc;
};

/**
 * Sort MEM anchors by (queryPos, reverse, linearPos, node, nodeOffset)
 * and dedupe: occurrences on different haplotypes can project to the
 * same graph position, and SA rank order differs between a monolith
 * and a shard set, so only the anchor set may reach chaining.
 */
void
canonicalizeMemAnchors(std::vector<Anchor> &anchors)
{
    std::sort(anchors.begin(), anchors.end(),
              [](const Anchor &a, const Anchor &b) {
                  if (a.queryPos != b.queryPos)
                      return a.queryPos < b.queryPos;
                  if (a.reverse != b.reverse)
                      return a.reverse < b.reverse;
                  if (a.linearPos != b.linearPos)
                      return a.linearPos < b.linearPos;
                  if (a.node != b.node)
                      return a.node < b.node;
                  return a.nodeOffset < b.nodeOffset;
              });
    anchors.erase(std::unique(anchors.begin(), anchors.end(),
                              [](const Anchor &a, const Anchor &b) {
                                  return a.queryPos == b.queryPos &&
                                         a.reverse == b.reverse &&
                                         a.node == b.node &&
                                         a.nodeOffset == b.nodeOffset;
                              }),
                  anchors.end());
}

/**
 * Project one located occurrence of query[@p begin, begin+@p length)
 * onto the graph: k-length sub-anchors at stride k, plus one flushed
 * against the match end so its tail is represented too.
 */
void
appendOccurrenceAnchors(const detail::MemSource &source,
                        index::FmIndex::PathPos pos, uint32_t begin,
                        uint32_t length, uint32_t k, bool rc_strand,
                        uint32_t read_length,
                        std::vector<Anchor> &anchors)
{
    const graph::PanGraph &graph = *source.graph;
    const auto &starts = (*source.stepStarts)[pos.path];
    const auto &steps = graph.pathSteps(pos.path);
    uint32_t window = 0;
    bool flushed = false;
    while (true) {
        if (window + k > length) {
            if (flushed || length % k == 0)
                break;
            window = length - k;
            flushed = true;
        }
        const uint64_t path_off = pos.offset + window;
        const auto step = static_cast<size_t>(
            std::upper_bound(starts.begin(), starts.end(), path_off) -
            starts.begin() - 1);
        const graph::Handle handle = steps[step];
        const uint64_t in_step = path_off - starts[step];
        const auto node_length =
            static_cast<uint64_t>(graph.nodeLength(handle.node()));
        const auto offset = static_cast<uint32_t>(
            handle.isReverse() ? node_length - 1 - in_step : in_step);
        Anchor anchor;
        anchor.queryPos = rc_strand ? read_length - (begin + window) - k
                                    : begin + window;
        anchor.node = source.origNodes.empty()
                          ? handle.node()
                          : source.origNodes[handle.node()];
        anchor.nodeOffset = offset;
        anchor.reverse = rc_strand != handle.isReverse();
        anchor.linearPos = source.linearBases[handle.node()] + offset;
        anchors.push_back(anchor);
        if (flushed)
            break;
        window += k;
    }
}

} // namespace

namespace detail {

void
addSeedAnchors(size_t n)
{
    obsSeedAnchors.add(n);
}

std::vector<std::vector<uint64_t>>
pathStepStarts(const graph::PanGraph &graph)
{
    std::vector<std::vector<uint64_t>> step_starts(graph.pathCount());
    for (graph::PathId p = 0; p < graph.pathCount(); ++p) {
        const auto &steps = graph.pathSteps(p);
        auto &starts = step_starts[p];
        starts.reserve(steps.size() + 1);
        uint64_t at = 0;
        for (graph::Handle step : steps) {
            starts.push_back(at);
            at += graph.nodeLength(step.node());
        }
        starts.push_back(at);
    }
    return step_starts;
}

void
collectMemAnchors(std::span<const MemSource> sources,
                  const seq::Sequence &read, uint32_t k,
                  size_t max_occurrences, std::vector<Anchor> &anchors,
                  std::span<uint8_t> touched)
{
    anchors.clear();
    if (read.size() < k)
        return;
    MemScratch &ws = core::threadScratch<MemScratch>();
    ws.indexes.clear();
    for (const MemSource &source : sources)
        ws.indexes.push_back(source.fm);

    const auto read_length = static_cast<uint32_t>(read.size());
    uint64_t steps = 0;
    auto strand = [&](std::span<const uint8_t> codes, bool rc_strand) {
        steps += ws.smems.collect(ws.indexes, codes, k);
        obsSeedMems.add(ws.smems.size());
        for (size_t i = 0; i < ws.smems.size(); ++i) {
            const auto ranges = ws.smems.ranges(i);
            uint64_t total = 0;
            for (const auto &range : ranges)
                total += range.size();
            if (total > max_occurrences) {
                obsSeedDropped.add();
                continue;
            }
            obsSeedMemOccs.add(total);
            const uint32_t begin = ws.smems.queryBegin(i);
            const uint32_t length = ws.smems.queryEnd(i) - begin;
            for (size_t s = 0; s < sources.size(); ++s) {
                if (ranges[s].empty())
                    continue;
                const index::FmIndex &fm = *sources[s].fm;
                if (!touched.empty())
                    touched[s] = 1;
                for (uint64_t r = ranges[s].lo; r < ranges[s].hi; ++r)
                    appendOccurrenceAnchors(sources[s],
                                            fm.resolve(fm.locate(r)),
                                            begin, length, k, rc_strand,
                                            read_length, anchors);
            }
        }
    };
    strand(read.codes(), false);

    ws.rc.resize(read.size());
    const auto &codes = read.codes();
    for (size_t i = 0; i < codes.size(); ++i)
        ws.rc[i] = seq::complementBase(codes[codes.size() - 1 - i]);
    strand(ws.rc, true);
    obsSeedFmSteps.add(steps);

    canonicalizeMemAnchors(anchors);
    obsSeedAnchors.add(anchors.size());
}

} // namespace detail

SeederKind
parseSeeder(const std::string &name)
{
    if (name == "minimizer")
        return SeederKind::kMinimizer;
    if (name == "mem")
        return SeederKind::kMem;
    core::fatal("unknown seeder '", name,
                "' (expected minimizer or mem)");
}

const char *
seederName(SeederKind kind)
{
    switch (kind) {
      case SeederKind::kMinimizer: return "minimizer";
      case SeederKind::kMem: return "mem";
    }
    return "?";
}

// ---------------------------------------------------------------------
// MinimizerSeeder
// ---------------------------------------------------------------------

MinimizerSeeder::MinimizerSeeder(const index::MinimizerIndex &index,
                                 const GraphLinearization &linear,
                                 size_t max_occurrences)
    : index_(index), linear_(linear), maxOccurrences_(max_occurrences)
{
}

void
MinimizerSeeder::collect(const seq::Sequence &read,
                         std::vector<Anchor> &anchors) const
{
    obs::Span span("seed.minimizer");
    collectAnchorsInto(read, index_, linear_, anchors, maxOccurrences_);
    obsSeedAnchors.add(anchors.size());
}

// ---------------------------------------------------------------------
// MemSeeder
// ---------------------------------------------------------------------

MemSeeder::MemSeeder(const index::FmIndex &fm,
                     const graph::PanGraph &graph,
                     const GraphLinearization &linear, uint32_t k,
                     size_t max_occurrences)
    : k_(k == 0 ? 1 : k), maxOccurrences_(max_occurrences),
      stepStarts_(detail::pathStepStarts(graph))
{
    if (fm.pathCount() != graph.pathCount())
        core::fatal("FM-index covers ", fm.pathCount(),
                    " paths, graph has ", graph.pathCount());
    source_ = {&fm, &graph, &stepStarts_, {}, linear.nodeStarts()};
}

void
MemSeeder::collect(const seq::Sequence &read,
                   std::vector<Anchor> &anchors) const
{
    obs::Span span("seed.mem");
    detail::collectMemAnchors({&source_, 1}, read, k_, maxOccurrences_,
                              anchors, {});
}

} // namespace pgb::pipeline
