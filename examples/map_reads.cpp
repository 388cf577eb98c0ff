/**
 * @file
 * Scenario: compare all four Seq2Graph mapping tool profiles on the
 * same workload — the paper's Figure 2 in miniature, on your own data
 * or a synthetic chromosome.
 *
 * Run:  ./example_map_reads [graph.gfa reads.fastq]
 *
 * With no arguments a synthetic pangenome and simulated short/long
 * reads are used; with arguments the graph is loaded from GFA and the
 * reads from FASTQ.
 */

#include <cstdio>

#include "core/thread_pool.hpp"
#include <fstream>

#include "graph/gfa.hpp"
#include "pipeline/mapper.hpp"
#include "seq/fasta.hpp"
#include "seq/read_sim.hpp"
#include "synth/pangenome_sim.hpp"

int
main(int argc, char **argv)
{
    using namespace pgb;

    graph::PanGraph graph;
    std::vector<seq::Sequence> short_reads, long_reads;

    if (argc >= 3) {
        graph = graph::readGfaFile(argv[1]);
        std::ifstream input(argv[2]);
        short_reads = seq::readFastq(input);
        long_reads = short_reads;
        std::printf("loaded %zu-node graph, %zu reads\n",
                    graph.nodeCount(), short_reads.size());
    } else {
        const auto pangenome = synth::simulatePangenome(
            synth::mGraphLikeConfig(60000, 11));
        graph = pangenome.graph;
        seq::ReadSimulator short_sim(seq::ReadProfile::shortRead(), 1);
        seq::ReadProfile long_profile = seq::ReadProfile::longRead();
        long_profile.readLength = 2000; // scaled-down HiFi
        seq::ReadSimulator long_sim(long_profile, 2);
        for (int r = 0; r < 150; ++r) {
            short_reads.push_back(
                short_sim.sample(pangenome.haplotypes[r % 14]).read);
        }
        for (int r = 0; r < 20; ++r) {
            long_reads.push_back(
                long_sim.sample(pangenome.haplotypes[r % 14]).read);
        }
        std::printf("synthetic graph: %zu nodes; %zu short + %zu long "
                    "reads\n",
                    graph.nodeCount(), short_reads.size(),
                    long_reads.size());
    }

    const pipeline::ToolProfile tools[] = {
        pipeline::ToolProfile::kVgMap,
        pipeline::ToolProfile::kVgGiraffe,
        pipeline::ToolProfile::kGraphAligner,
        pipeline::ToolProfile::kMinigraph,
    };
    // Index once (with the GBWT giraffe needs); every tool maps on it.
    const auto context = pipeline::MappingContext::Builder()
                             .fromGraph(graph)
                             .threads(core::hardwareThreads())
                             .buildGbwt(true)
                             .build();
    std::printf("\n%-13s %8s %8s %10s %10s %10s %10s\n", "tool",
                "mapped", "total", "seed%", "chain%", "filter%",
                "align%");
    for (pipeline::ToolProfile tool : tools) {
        auto config = pipeline::MapperConfig::forTool(tool);
        config.threads = core::hardwareThreads();
        const bool long_mode =
            tool == pipeline::ToolProfile::kGraphAligner ||
            tool == pipeline::ToolProfile::kMinigraph;
        const auto &reads = long_mode ? long_reads : short_reads;
        const auto report = pipeline::mapBatch(*context, config, reads);
        const double total = report.timers.total();
        auto pct = [&](const char *stage) {
            return total == 0.0
                ? 0.0 : 100.0 * report.timers.seconds(stage) / total;
        };
        std::printf("%-13s %8llu %8llu %9.1f%% %9.1f%% %9.1f%% "
                    "%9.1f%%\n",
                    pipeline::toolName(tool),
                    static_cast<unsigned long long>(report.mappedReads),
                    static_cast<unsigned long long>(report.reads),
                    pct("seed"), pct("cluster_chain"), pct("filter"),
                    pct("align"));
    }
    return 0;
}
