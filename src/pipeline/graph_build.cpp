#include "pipeline/graph_build.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "align/poa.hpp"
#include "build/transclosure.hpp"
#include "core/logging.hpp"
#include "core/thread_pool.hpp"
#include "index/minimizer.hpp"
#include "layout/pgsgd.hpp"
#include "obs/span.hpp"
#include "pipeline/mapper.hpp"

namespace pgb::pipeline {

namespace {

/** Shared visualization stage: PGSGD layout with stress reporting. */
void
runVisualization(const graph::PanGraph &graph, uint32_t iterations,
                 unsigned threads, uint64_t seed,
                 GraphBuildReport &report)
{
    obs::StageClock clock(report.timers, core::Stage::kVisualization);
    layout::PathIndex index(graph);
    layout::Layout layout(graph.nodeCount(), seed);
    layout::PgsgdParams params;
    params.iterations = iterations;
    params.threads = threads;
    params.seed = seed;
    const auto result = layout::pgsgdLayout(index, layout, params);
    report.layoutStressBefore = result.stressBefore;
    report.layoutStressAfter = result.stressAfter;
}

/** A discovered variant against the reference backbone (MC pipeline). */
struct Discovered
{
    uint64_t refStart = 0;
    uint64_t refEnd = 0; ///< exclusive; == refStart for insertions
    std::vector<uint8_t> alt;
    std::vector<bool> carriers; ///< per non-reference haplotype
};

/**
 * Materialize reference + variants into a PanGraph with one path per
 * haplotype (mirrors the synthetic generator's construction, but over
 * *discovered* variants).
 */
graph::PanGraph
materialize(const seq::Sequence &reference,
            const std::vector<Discovered> &variants, size_t haplotypes,
            const std::vector<std::string> &names)
{
    using graph::Handle;
    using graph::NodeId;
    graph::PanGraph out;

    std::vector<uint64_t> breaks = {0, reference.size()};
    for (const Discovered &v : variants) {
        breaks.push_back(v.refStart);
        breaks.push_back(v.refEnd);
    }
    std::sort(breaks.begin(), breaks.end());
    breaks.erase(std::unique(breaks.begin(), breaks.end()), breaks.end());

    std::vector<NodeId> segment(breaks.size() - 1);
    std::map<uint64_t, size_t> break_index;
    for (size_t b = 0; b + 1 < breaks.size(); ++b) {
        break_index[breaks[b]] = b;
        segment[b] = out.addNode(reference.slice(
            breaks[b], breaks[b + 1] - breaks[b]));
    }
    break_index[breaks.back()] = breaks.size() - 1;
    for (size_t b = 0; b + 2 < breaks.size(); ++b) {
        out.addEdge(Handle(segment[b], false),
                    Handle(segment[b + 1], false));
    }

    std::vector<NodeId> alt_node(variants.size(), UINT32_MAX);
    for (size_t i = 0; i < variants.size(); ++i) {
        const Discovered &v = variants[i];
        const size_t b = break_index.at(v.refStart);
        const size_t nb = break_index.at(v.refEnd);
        const bool has_prev = b > 0;
        const bool has_next = nb < segment.size();
        if (!v.alt.empty()) {
            alt_node[i] = out.addNode(
                seq::Sequence(std::vector<uint8_t>(v.alt)));
            if (has_prev)
                out.addEdge(Handle(segment[b - 1], false),
                            Handle(alt_node[i], false));
            if (has_next)
                out.addEdge(Handle(alt_node[i], false),
                            Handle(segment[nb], false));
        } else if (has_prev && has_next) {
            out.addEdge(Handle(segment[b - 1], false),
                        Handle(segment[nb], false));
        }
    }

    // Reference path.
    {
        std::vector<Handle> steps;
        for (NodeId node : segment)
            steps.emplace_back(node, false);
        out.addPath(names[0], std::move(steps));
    }
    // Haplotype paths: reference route, diverted at carried variants.
    for (size_t h = 0; h < haplotypes; ++h) {
        std::vector<Handle> steps;
        size_t b = 0;
        size_t vi = 0;
        // Variants sorted by refStart (enforced by the caller).
        while (b < segment.size()) {
            while (vi < variants.size() &&
                   variants[vi].refStart < breaks[b]) {
                ++vi;
            }
            const bool at_site = vi < variants.size() &&
                                 variants[vi].refStart == breaks[b] &&
                                 variants[vi].carriers[h];
            if (!at_site) {
                steps.emplace_back(segment[b], false);
                ++b;
                continue;
            }
            const Discovered &v = variants[vi];
            if (!v.alt.empty())
                steps.emplace_back(alt_node[vi], false);
            // Skip the replaced reference segments.
            const size_t nb = break_index.at(v.refEnd);
            b = nb;
            ++vi;
        }
        out.addPath(names[h + 1], std::move(steps));
    }
    return out;
}

} // namespace

GraphBuildReport
buildPggb(const std::vector<seq::Sequence> &haplotypes,
          const PggbParams &params)
{
    if (haplotypes.size() < 2)
        core::fatal("buildPggb: need at least two sequences");
    obs::Span pipelineSpan("graph_build.pggb");
    GraphBuildReport report;
    build::SequenceCatalog catalog(haplotypes);

    // ---- 1. Alignment: all-to-all wfmash stand-in.
    WfmashResult aligned;
    {
        obs::StageClock clock(report.timers, core::Stage::kAlignment);
        WfmashParams wfmash = params.wfmash;
        wfmash.threads = params.threads;
        aligned = allToAllAlign(catalog, wfmash);
        report.matches = aligned.matches.size();
    }

    // ---- 2. Induction: seqwish transclosure (parallel sweep).
    {
        obs::StageClock clock(report.timers, core::Stage::kInduction);
        build::TcOptions tc_options;
        tc_options.threads = params.threads;
        auto tc = build::transclose(catalog, aligned.matches,
                                    tc_options);
        report.closureClasses = tc.closureClasses;
        report.graph = std::move(tc.graph);
    }

    // ---- 3. Polishing: smoothxg-style windowed POA (~80% of the
    // stage is the POA kernel, as in the paper). Paths spell
    // concurrently, then the windows — each owns a private PoaGraph
    // over read-only spelled sequences — run on the pool; per-window
    // cell counts reduce in window order so the total is identical at
    // every thread count.
    {
        obs::StageClock clock(report.timers, core::Stage::kPolishing);
        std::vector<seq::Sequence> spelled(report.graph.pathCount());
        core::parallelFor(
            0, report.graph.pathCount(), params.threads,
            [&](size_t p) {
                spelled[p] = report.graph.pathSequence(
                    static_cast<graph::PathId>(p));
            });
        size_t longest = 0;
        for (const auto &sequence : spelled)
            longest = std::max(longest, sequence.size());
        const size_t window = std::max<size_t>(1, params.smoothWindow);
        const size_t n_windows = (longest + window - 1) / window;
        std::vector<uint64_t> window_cells(n_windows, 0);
        core::parallelFor(
            0, n_windows, params.threads, [&](size_t window_index) {
                const size_t w0 = window_index * window;
                // abPOA's adaptive band is the stage's performance
                // lever.
                align::PoaParams poa_params;
                poa_params.band = 64;
                align::PoaGraph poa(poa_params);
                uint32_t added = 0;
                for (const auto &sequence : spelled) {
                    if (added >= params.smoothMaxSeqs)
                        break;
                    if (w0 >= sequence.size())
                        continue;
                    const auto slice = sequence.slice(
                        w0, params.smoothWindow);
                    if (slice.size() < 2)
                        continue;
                    poa.addSequence(slice.codes());
                    ++added;
                }
                if (added > 0) {
                    poa.consensus();
                    window_cells[window_index] = poa.cellsComputed();
                }
            });
        for (uint64_t cells : window_cells)
            report.poaCells += cells;
    }

    // ---- 4. Visualization: odgi layout (PGSGD).
    runVisualization(report.graph, params.layoutIterations,
                     params.threads, params.seed, report);
    return report;
}

GraphBuildReport
buildMinigraphCactus(const std::vector<seq::Sequence> &haplotypes,
                     const McParams &params)
{
    if (haplotypes.empty())
        core::fatal("buildMinigraphCactus: need sequences");
    obs::Span pipelineSpan("graph_build.mc");
    GraphBuildReport report;
    const seq::Sequence &reference = haplotypes[0];
    std::vector<std::string> names;
    for (size_t h = 0; h < haplotypes.size(); ++h) {
        names.push_back(haplotypes[h].name().empty()
                            ? "asm" + std::to_string(h)
                            : haplotypes[h].name());
    }

    const size_t extra = haplotypes.size() - 1;
    std::vector<Discovered> variants;

    // ---- 1. Alignment: iterative minigraph mapping of each assembly
    // against the growing graph (chromosome mode: big segments, GWFA
    // in the chaining stage).
    {
        obs::StageClock clock(report.timers, core::Stage::kAlignment);

        // Reference minimizer table for variant extraction.
        std::unordered_map<uint64_t, std::vector<uint32_t>> ref_table;
        for (const index::Minimizer &mini : index::computeMinimizers(
                 reference.codes(), params.k, params.w)) {
            ref_table[mini.hash].push_back(mini.position);
        }

        for (size_t h = 1; h < haplotypes.size(); ++h) {
            // (a) Minigraph Seq2Graph mapping against the current
            // graph — the timing-dominant step.
            graph::PanGraph current = materialize(
                reference, variants, extra, names);
            MapperConfig config;
            config.profile = ToolProfile::kMinigraph;
            config.k = params.k;
            config.w = params.w;
            config.threads = params.threads;
            const auto context = MappingContext::Builder()
                                     .fromGraph(current)
                                     .k(params.k)
                                     .w(params.w)
                                     .threads(params.threads)
                                     .build();
            std::vector<seq::Sequence> segments;
            for (size_t s = 0; s < haplotypes[h].size();
                 s += params.segmentLength) {
                auto slice = haplotypes[h].slice(
                    s, params.segmentLength);
                if (slice.size() >= static_cast<size_t>(params.k))
                    segments.push_back(std::move(slice));
            }
            mapBatch(*context, config, segments);

            // (b) Variant discovery against the reference backbone.
            const auto &codes = haplotypes[h].codes();
            struct RefAnchor
            {
                uint32_t q, t;
            };
            std::vector<RefAnchor> anchors;
            for (const index::Minimizer &mini :
                 index::computeMinimizers(codes, params.k,
                                          params.w)) {
                auto it = ref_table.find(mini.hash);
                if (it == ref_table.end() || it->second.size() > 4)
                    continue;
                for (uint32_t tpos : it->second)
                    anchors.push_back({mini.position, tpos});
            }
            std::sort(anchors.begin(), anchors.end(),
                      [](const RefAnchor &a, const RefAnchor &b) {
                          return a.q < b.q ||
                                 (a.q == b.q && a.t < b.t);
                      });
            // Greedy colinear chain.
            std::vector<RefAnchor> chain;
            for (const RefAnchor &anchor : anchors) {
                if (chain.empty() ||
                    (anchor.q > chain.back().q &&
                     anchor.t > chain.back().t &&
                     anchor.q - chain.back().q < 100000 &&
                     anchor.t - chain.back().t < 100000)) {
                    chain.push_back(anchor);
                }
            }
            const auto k = static_cast<uint32_t>(params.k);
            for (size_t i = 0; i + 1 < chain.size(); ++i) {
                const RefAnchor &a = chain[i];
                const RefAnchor &b = chain[i + 1];
                if (b.q < a.q + k || b.t < a.t + k)
                    continue; // overlapping seeds
                const uint64_t qgap = b.q - (a.q + k);
                const uint64_t tgap = b.t - (a.t + k);
                if (qgap == tgap && qgap == 0)
                    continue;
                if (std::max(qgap, tgap) <
                    params.minVariantLength) {
                    continue; // left to base-level polishing
                }
                Discovered v;
                v.refStart = a.t + k;
                v.refEnd = b.t;
                v.alt.assign(codes.begin() + (a.q + k),
                             codes.begin() + b.q);
                v.carriers.assign(extra, false);
                v.carriers[h - 1] = true;
                variants.push_back(std::move(v));
            }
        }

        // Merge duplicates and drop overlaps (first wins).
        std::sort(variants.begin(), variants.end(),
                  [](const Discovered &a, const Discovered &b) {
                      if (a.refStart != b.refStart)
                          return a.refStart < b.refStart;
                      if (a.refEnd != b.refEnd)
                          return a.refEnd < b.refEnd;
                      return a.alt < b.alt;
                  });
        std::vector<Discovered> merged;
        for (Discovered &v : variants) {
            if (!merged.empty() &&
                merged.back().refStart == v.refStart &&
                merged.back().refEnd == v.refEnd &&
                merged.back().alt == v.alt) {
                for (size_t c = 0; c < extra; ++c) {
                    merged.back().carriers[c] =
                        merged.back().carriers[c] || v.carriers[c];
                }
                continue;
            }
            if (!merged.empty() &&
                (v.refStart < merged.back().refEnd ||
                 v.refStart == merged.back().refStart)) {
                continue; // overlapping/co-located: keep the first
            }
            merged.push_back(std::move(v));
        }
        variants = std::move(merged);
        report.bubbles = variants.size();
    }

    // ---- 2. Induction: abPOA-style refinement of each bubble (align
    // alleles; identical consensus alleles merge). Bubbles are
    // independent, so they align on the pool; per-variant cell counts
    // reduce in variant order for a thread-count-invariant total.
    {
        obs::StageClock clock(report.timers, core::Stage::kInduction);
        std::vector<uint64_t> variant_cells(variants.size(), 0);
        core::parallelFor(
            0, variants.size(), params.threads,
            [&](size_t variant_index) {
                const Discovered &v = variants[variant_index];
                if (v.alt.size() < 2 || v.refEnd <= v.refStart)
                    return;
                align::PoaGraph poa;
                poa.addSequence(reference.slice(
                    v.refStart, v.refEnd - v.refStart).codes());
                poa.addSequence(v.alt);
                poa.consensus();
                variant_cells[variant_index] = poa.cellsComputed();
            });
        for (uint64_t cells : variant_cells)
            report.poaCells += cells;
    }

    // ---- 3. Polishing: GFAffix-like cleanup — drop no-op variants
    // whose alt spells the reference interval.
    {
        obs::StageClock clock(report.timers, core::Stage::kPolishing);
        variants.erase(
            std::remove_if(
                variants.begin(), variants.end(),
                [&](const Discovered &v) {
                    if (v.refEnd - v.refStart != v.alt.size())
                        return false;
                    for (size_t i = 0; i < v.alt.size(); ++i) {
                        if (reference[v.refStart + i] != v.alt[i])
                            return false;
                    }
                    return true;
                }),
            variants.end());
        report.graph = materialize(reference, variants, extra, names);
    }

    // ---- 4. Visualization.
    runVisualization(report.graph, params.layoutIterations,
                     params.threads, params.seed, report);
    return report;
}

} // namespace pgb::pipeline
