/**
 * @file
 * Scenario: build a pangenome graph from a set of assemblies with
 * either graph-building pipeline (paper Figure 3) and write it as
 * GFA.
 *
 * Run:  ./example_build_pangenome [pggb|mc] [assemblies.fa out.gfa]
 *
 * With no FASTA argument, 8 synthetic haplotypes are generated.
 */

#include <cstdio>

#include "core/thread_pool.hpp"
#include <cstring>

#include "graph/gfa.hpp"
#include "pipeline/graph_build.hpp"
#include "seq/fasta.hpp"
#include "synth/pangenome_sim.hpp"

int
main(int argc, char **argv)
{
    using namespace pgb;

    const bool use_mc = argc > 1 && std::strcmp(argv[1], "mc") == 0;
    std::vector<seq::Sequence> assemblies;
    if (argc >= 3) {
        assemblies = seq::readFastaFile(argv[2]);
    } else {
        const auto pangenome = synth::simulatePangenome(
            synth::mGraphLikeConfig(30000, 21));
        assemblies.push_back(pangenome.reference);
        for (size_t h = 0; h < 7; ++h)
            assemblies.push_back(pangenome.haplotypes[h]);
    }
    std::printf("building a pangenome from %zu assemblies with %s\n",
                assemblies.size(), use_mc ? "Minigraph-Cactus" : "PGGB");

    pipeline::GraphBuildReport report;
    if (use_mc) {
        pipeline::McParams params;
        params.threads = core::hardwareThreads();
        report = pipeline::buildMinigraphCactus(assemblies, params);
        std::printf("discovered %llu bubbles\n",
                    static_cast<unsigned long long>(report.bubbles));
    } else {
        pipeline::PggbParams params;
        params.threads = core::hardwareThreads();
        report = pipeline::buildPggb(assemblies, params);
        std::printf("%llu pairwise matches -> %llu closure classes\n",
                    static_cast<unsigned long long>(report.matches),
                    static_cast<unsigned long long>(
                        report.closureClasses));
    }

    const auto stats = report.graph.stats();
    std::printf("graph: %zu nodes, %zu edges, %zu paths, %zu bases "
                "(inputs: %zu bases)\n",
                stats.nodeCount, stats.edgeCount, stats.pathCount,
                stats.totalBases, [&] {
                    size_t total = 0;
                    for (const auto &a : assemblies)
                        total += a.size();
                    return total;
                }());
    for (const auto &[stage, seconds] : report.timers.stages()) {
        std::printf("  stage %-14s %8.1f ms\n", stage, seconds * 1e3);
    }
    std::printf("layout stress %.3f -> %.3f\n",
                report.layoutStressBefore, report.layoutStressAfter);

    if (argc >= 4) {
        graph::writeGfaFile(argv[3], report.graph);
        std::printf("wrote %s\n", argv[3]);
    }
    return 0;
}
