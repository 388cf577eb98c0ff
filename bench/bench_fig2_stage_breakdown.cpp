/**
 * @file
 * Figure 2: per-stage timing breakdown of the four Seq2Graph mapping
 * tools (seed / cluster+chain / filter / align), with each tool's
 * extracted kernel's share of its stage (the yellow arcs).
 *
 * Reproduction target (shape): GraphAligner spends ~90% in alignment;
 * vg giraffe's filtering (GBWT) dominates; vg map spreads effort
 * across stages; minigraph's chaining (with GWFA inside) is heavy.
 */

#include "bench_common.hpp"

int
main()
{
    using namespace pgb;
    using namespace pgb::bench;

    banner("Figure 2: Seq2Graph per-stage timing breakdown");
    const auto workload = makeStandardWorkload();

    struct ToolRun
    {
        pipeline::ToolProfile profile;
        bool longReads;
        const char *paperNote;
    };
    const ToolRun tools[] = {
        {pipeline::ToolProfile::kVgMap, false,
         "paper: effort spread across all stages; kernel GSSW"},
        {pipeline::ToolProfile::kVgGiraffe, false,
         "paper: filtering dominates; kernel GBWT"},
        {pipeline::ToolProfile::kGraphAligner, true,
         "paper: ~5% clustering, ~90% alignment; kernel GBV"},
        {pipeline::ToolProfile::kMinigraph, true,
         "paper: chaining heavy; GWFA is 47-75% of it"},
    };

    // One context (with the GBWT giraffe needs) serves every tool.
    const auto context = pipeline::MappingContext::Builder()
                             .fromGraph(workload.pangenome.graph)
                             .buildGbwt(true)
                             .build();
    std::printf("%-13s %8s %8s %8s %8s | %s\n", "tool", "seed%",
                "chain%", "filter%", "align%", "kernel share");
    for (const ToolRun &tool : tools) {
        auto config = pipeline::MapperConfig::forTool(tool.profile);
        config.threads = 1;
        const auto &reads = tool.longReads ? workload.longReads
                                           : workload.shortReads;
        const auto report = pipeline::mapBatch(*context, config, reads);
        const double total = report.timers.total();
        auto pct = [&](const char *stage) {
            return total == 0.0
                ? 0.0 : 100.0 * report.timers.seconds(stage) / total;
        };
        // The kernel's share of its own stage (the yellow arc).
        const char *kernel_stage =
            core::stageName(pipeline::kernelOf(tool.profile).stage);
        const double stage_secs = report.timers.seconds(kernel_stage);
        const double kernel_share = stage_secs == 0.0
            ? 0.0 : 100.0 * report.kernelSeconds / stage_secs;
        std::printf("%-13s %7.1f%% %7.1f%% %7.1f%% %7.1f%% | %s %.0f%% "
                    "of %s\n",
                    pipeline::toolName(tool.profile), pct("seed"),
                    pct("cluster_chain"), pct("filter"), pct("align"),
                    report.kernelName, kernel_share, kernel_stage);
        std::printf("    %s\n", tool.paperNote);
    }
    return 0;
}
