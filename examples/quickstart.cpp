/**
 * @file
 * Quickstart: the PangenomicsBench public API in one page.
 *
 *   1. simulate a small pangenome (graph + haplotypes),
 *   2. simulate sequencing reads from one haplotype,
 *   3. map them with the vg-map-profile Seq2Graph pipeline,
 *   4. run one GSSW kernel call directly,
 *   5. print the stage breakdown.
 *
 * Run:  ./example_quickstart [base_length]
 */

#include <cstdio>
#include <cstdlib>

#include "align/gssw.hpp"
#include "pipeline/mapper.hpp"
#include "seq/read_sim.hpp"
#include "synth/pangenome_sim.hpp"

int
main(int argc, char **argv)
{
    using namespace pgb;

    const size_t base_length =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50000;

    // 1. A synthetic pangenome standing in for an HPRC chromosome.
    const auto pangenome = synth::simulatePangenome(
        synth::mGraphLikeConfig(base_length, /* seed */ 42));
    const auto stats = pangenome.graph.stats();
    std::printf("pangenome: %zu nodes, %zu edges, %zu paths, "
                "avg node %.2f bp\n",
                stats.nodeCount, stats.edgeCount, stats.pathCount,
                stats.avgNodeLength);

    // 2. Illumina-like short reads from haplotype 0.
    seq::ReadSimulator simulator(seq::ReadProfile::shortRead(), 7);
    std::vector<seq::Sequence> reads;
    for (const auto &read :
         simulator.sampleMany(pangenome.haplotypes[0], 200)) {
        reads.push_back(read.read);
    }

    // 3. Index the graph once, then map with the vg map profile (GSSW
    // alignment kernel).
    const auto context = pipeline::MappingContext::Builder()
                             .fromGraph(pangenome.graph)
                             .threads(2)
                             .build();
    pipeline::MapperConfig config;
    config.profile = pipeline::ToolProfile::kVgMap;
    config.threads = 2;
    const auto report = pipeline::mapBatch(*context, config, reads);
    std::printf("mapped %llu/%llu reads\n",
                static_cast<unsigned long long>(report.mappedReads),
                static_cast<unsigned long long>(report.reads));
    for (const auto &[stage, seconds] : report.timers.stages()) {
        std::printf("  stage %-13s %8.3f ms (%4.1f%%)\n", stage,
                    seconds * 1e3, 100.0 * seconds /
                    report.timers.total());
    }

    // 4. One GSSW kernel call on a captured trace.
    const auto traces = pipeline::Seq2GraphMapper(context, config)
                            .captureAlignTraces(reads, 1);
    if (!traces.empty()) {
        const auto result = align::gsswAlign(
            traces[0].subgraph, traces[0].query,
            align::ScoreParams::mappingDefaults());
        std::printf("GSSW: subgraph of %zu nodes, best score %d at "
                    "node %u (%llu DP cells)\n",
                    traces[0].subgraph.nodeCount(), result.best.score,
                    result.best.node,
                    static_cast<unsigned long long>(
                        result.cellsComputed));
    }
    return 0;
}
