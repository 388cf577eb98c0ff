/**
 * @file
 * Table 1: estimated full-genome (30x coverage) mapping runtime for
 * the four Seq2Graph tools and the BWA-MEM2-like Seq2Seq baseline,
 * using the paper's methodology: measure a read batch, then scale by
 * the number of reads needed for 30x coverage of a 3.1 Gbp genome.
 *
 * Reproduction target (shape): the Seq2Seq baseline is the fastest by
 * a wide margin; vg map is the slowest Seq2Graph tool; giraffe is the
 * fastest Seq2Graph tool (paper: 67.1h / 4.8h / 9.1h / 20.5h / 1.3h).
 */

#include "bench_common.hpp"

int
main()
{
    using namespace pgb;
    using namespace pgb::bench;

    banner("Table 1: estimated full-genome 30x mapping runtime");
    const auto workload = makeStandardWorkload();
    constexpr double kGenomeBases = 3.1e9;
    constexpr double kCoverage = 30.0;

    struct Row
    {
        const char *name;
        double hours;
        double paperHours;
    };
    std::vector<Row> rows;

    auto estimate = [&](double batch_seconds, size_t reads,
                        size_t read_len) {
        const double reads_for_genome =
            kGenomeBases * kCoverage / static_cast<double>(read_len);
        return batch_seconds / static_cast<double>(reads) *
               reads_for_genome / 3600.0;
    };

    const struct
    {
        pipeline::ToolProfile profile;
        bool longReads;
        double paperHours;
    } tools[] = {
        {pipeline::ToolProfile::kVgMap, false, 67.1},
        {pipeline::ToolProfile::kVgGiraffe, false, 4.8},
        {pipeline::ToolProfile::kGraphAligner, true, 9.1},
        {pipeline::ToolProfile::kMinigraph, true, 20.5},
    };
    // Indexes are built once, outside the timers: rows time mapping.
    const auto context = pipeline::MappingContext::Builder()
                             .fromGraph(workload.pangenome.graph)
                             .buildGbwt(true)
                             .build();
    for (const auto &tool : tools) {
        auto config = pipeline::MapperConfig::forTool(tool.profile);
        config.threads = 1;
        const auto &reads = tool.longReads ? workload.longReads
                                           : workload.shortReads;
        const size_t read_len = tool.longReads
            ? workload.longReadLength : 150;
        core::WallTimer timer;
        pipeline::mapBatch(*context, config, reads);
        rows.push_back({pipeline::toolName(tool.profile),
                        estimate(timer.seconds(), reads.size(),
                                 read_len),
                        tool.paperHours});
    }
    {
        pipeline::Seq2SeqMapper mapper(workload.pangenome.reference,
                                       15, 10);
        core::WallTimer timer;
        mapper.mapReads(workload.shortReads, 1);
        rows.push_back({"BWA-MEM2-like",
                        estimate(timer.seconds(),
                                 workload.shortReads.size(), 150),
                        1.3});
    }

    std::printf("%-14s %14s %12s\n", "tool", "estimated(h)",
                "paper(h)");
    for (const Row &row : rows)
        std::printf("%-14s %14.1f %12.1f\n", row.name, row.hours,
                    row.paperHours);
    std::printf("\n(single-thread estimates on the synthetic "
                "chromosome; the paper measures real tools on real "
                "data — compare rankings, not hours)\n");
    return 0;
}
