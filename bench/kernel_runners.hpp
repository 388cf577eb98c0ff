/**
 * @file
 * Instrumentable runners for the seven CPU kernels, built on kernel
 * input traces captured exactly as the paper does (run the pipeline
 * up to the kernel boundary and store its inputs, §4.2).
 *
 * Each runner is a callable taking any Probe; the characterization
 * benches instantiate them with prof::TraceProbe, the timing benches
 * with core::NullProbe.
 */

#ifndef PGB_BENCH_KERNEL_RUNNERS_HPP
#define PGB_BENCH_KERNEL_RUNNERS_HPP

#include <memory>
#include <vector>

#include "align/gbv.hpp"
#include "align/gssw.hpp"
#include "align/gwfa.hpp"
#include "bench_common.hpp"
#include "build/transclosure_impl.hpp"
#include "core/rng.hpp"
#include "index/gbwt.hpp"
#include "layout/pgsgd.hpp"
#include "pipeline/mapper.hpp"
#include "synth/pangenome_sim.hpp"

namespace pgb::bench {

/** Captured inputs for every CPU kernel of Table 3. */
struct KernelInputs
{
    // GSSW: subgraphs + short-read fragments (from vg map).
    std::vector<pipeline::GsswTrace> gssw;
    // GBV: subgraphs + long reads (from GraphAligner).
    std::vector<pipeline::GbvTrace> gbv;
    // GBWT: the index plus haplotype-subpath queries.
    std::unique_ptr<index::GbwtIndex> gbwt;
    std::vector<std::vector<graph::Handle>> gbwtQueries;
    // GWFA: long-read and chromosome-segment gap traces.
    std::vector<pipeline::GwfaTrace> gwfaLr;
    std::vector<pipeline::GwfaTrace> gwfaCr;
    // TC: catalog + matches.
    std::unique_ptr<build::SequenceCatalog> tcCatalog;
    std::vector<build::MatchSegment> tcMatches;
    // PGSGD: path index + node count. The layout kernel gets its own
    // larger graph: the paper notes visualization runs on the whole
    // graph with a footprint far beyond the LLC (1.7 GB for chr20),
    // unlike the cache-resident mapping subgraphs.
    std::unique_ptr<layout::PathIndex> pathIndex;
    size_t nodeCount = 0;
};

inline KernelInputs
captureKernelInputs(const StandardWorkload &w)
{
    KernelInputs in;
    const auto &graph = w.pangenome.graph;
    // One context serves the three capturing profiles.
    const auto context =
        pipeline::MappingContext::Builder().fromGraph(graph).build();
    auto mapperFor = [&](pipeline::ToolProfile profile) {
        pipeline::MapperConfig config;
        config.profile = profile;
        return pipeline::Seq2GraphMapper(context, config);
    };

    in.gssw = mapperFor(pipeline::ToolProfile::kVgMap)
                  .captureAlignTraces(w.shortReads,
                                      smallScale() ? 20 : 60);
    in.gbv = mapperFor(pipeline::ToolProfile::kGraphAligner)
                 .captureAlignTraces(w.longReads, smallScale() ? 3 : 8);
    {
        const auto mapper =
            mapperFor(pipeline::ToolProfile::kMinigraph);
        in.gwfaLr = mapper.captureGwfaTraces(w.longReads,
                                             smallScale() ? 10 : 40);
        // Chromosome mode: map one whole haplotype in large segments.
        std::vector<seq::Sequence> segments;
        const auto &chrom = w.pangenome.haplotypes[0];
        const size_t seg = smallScale() ? 5000 : 15000;
        for (size_t s = 0; s + seg <= chrom.size(); s += seg)
            segments.push_back(chrom.slice(s, seg));
        in.gwfaCr = mapper.captureGwfaTraces(segments,
                                             smallScale() ? 4 : 10);
    }
    {
        in.gbwt = std::make_unique<index::GbwtIndex>(graph);
        core::Rng rng(777);
        const size_t n_queries = smallScale() ? 2000 : 20000;
        for (size_t q = 0; q < n_queries; ++q) {
            const auto path = static_cast<graph::PathId>(
                rng.below(graph.pathCount()));
            const auto &steps = graph.pathSteps(path);
            const size_t len = 1 + rng.below(std::min<size_t>(
                100, steps.size()));
            const size_t start = rng.below(steps.size() - len + 1);
            in.gbwtQueries.emplace_back(
                steps.begin() + static_cast<ptrdiff_t>(start),
                steps.begin() + static_cast<ptrdiff_t>(start + len));
        }
    }
    {
        std::vector<seq::Sequence> seqs;
        seqs.push_back(w.pangenome.reference);
        for (const auto &hap : w.pangenome.haplotypes)
            seqs.push_back(hap);
        in.tcCatalog = std::make_unique<build::SequenceCatalog>(seqs);
        for (const auto &m :
             synth::groundTruthMatches(w.pangenome, 16)) {
            in.tcMatches.push_back(
                {in.tcCatalog->globalOffset(0, m.refStart),
                 in.tcCatalog->globalOffset(m.haplotype + 1,
                                            m.hapStart),
                 m.length});
        }
    }
    {
        // Chain graph big enough that the layout exceeds the 24 MB L3
        // (2 endpoints x 2 coordinates x 8 B per node).
        auto chain =
            makeLayoutChain(smallScale() ? 300000 : 1200000);
        in.pathIndex = std::move(chain.index);
        in.nodeCount = chain.nodeCount;
    }
    return in;
}

// --- Per-kernel instrumented runners. Each returns a throwaway
// checksum so the work cannot be optimized out.

template <typename Probe>
uint64_t
runGssw(const KernelInputs &in, Probe &probe, bool keep_matrices = true)
{
    uint64_t sink = 0;
    align::GsswOptions options;
    options.keepMatrices = keep_matrices;
    for (const auto &trace : in.gssw) {
        const auto result = align::gsswAlign(
            trace.subgraph, trace.query,
            align::ScoreParams::mappingDefaults(), options, probe);
        sink += static_cast<uint64_t>(result.best.score);
    }
    return sink;
}

template <typename Probe>
uint64_t
runGbv(const KernelInputs &in, Probe &probe)
{
    uint64_t sink = 0;
    align::GbvOptions options;
    options.traceback = true; // the paper's kernel includes traceback
    for (const auto &trace : in.gbv) {
        const auto result =
            align::gbvAlign(trace.subgraph, trace.query, options,
                            probe);
        sink += static_cast<uint64_t>(result.distance);
    }
    return sink;
}

template <typename Probe>
uint64_t
runGbwt(const KernelInputs &in, Probe &probe)
{
    uint64_t sink = 0;
    for (const auto &query : in.gbwtQueries) {
        const auto range = in.gbwt->find(query, probe);
        sink += range.size();
        if (!range.empty())
            sink += in.gbwt->nextNodes(range, probe).size();
    }
    return sink;
}

template <typename Probe>
uint64_t
runGwfa(const std::vector<pipeline::GwfaTrace> &traces, Probe &probe)
{
    uint64_t sink = 0;
    for (const auto &trace : traces) {
        const auto result = align::gwfaAlign(
            trace.subgraph, trace.query, trace.startNode, probe,
            static_cast<int32_t>(trace.query.size() / 2 + 64));
        sink += static_cast<uint64_t>(result.distance + 1);
    }
    return sink;
}

template <typename Probe>
uint64_t
runTc(const KernelInputs &in, Probe &probe)
{
    const auto result = build::tcdetail::transcloseImpl(
        *in.tcCatalog, in.tcMatches, build::TcOptions{}, probe);
    return result.closureClasses;
}

template <typename Probe>
uint64_t
runPgsgd(const KernelInputs &in, Probe &probe)
{
    layout::Layout layout(in.nodeCount, 99);
    layout::PgsgdParams params;
    params.iterations = 2; // microarchitecture stabilizes immediately
    params.threads = 1;    // characterization is single-threaded (§4.1)
    const auto result =
        layout::pgsgdLayout(*in.pathIndex, layout, params, probe);
    return result.updates;
}

} // namespace pgb::bench

#endif // PGB_BENCH_KERNEL_RUNNERS_HPP
