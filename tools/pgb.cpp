/**
 * @file
 * pgb: the PangenomicsBench command-line tool.
 *
 * Subcommands:
 *   simulate    generate a synthetic pangenome (GFA + haplotype FASTA +
 *               simulated reads FASTQ) — the dataset generator behind
 *               every bench (the paper ships equivalent scripts so
 *               researchers can build kernel datasets from their data)
 *   stats       print graph statistics for a GFA
 *   index       build mapping indexes once, write a .pgbi artifact
 *   shard       partition a pangenome by connected component into a
 *               .pgbs shard set of per-shard .pgbi artifacts
 *               (beyond-RAM mapping, DESIGN.md §13)
 *   map         map FASTQ reads to a GFA graph, a .pgbi artifact, or
 *               a .pgbs shard set with a chosen tool profile
 *   build       build a pangenome graph from FASTA assemblies (pggb/mc)
 *   layout      compute a PGSGD 2-D layout of a GFA, write TSV
 *   split       the Split-M-Graph transform (§6.2): cap node length
 *   deconstruct VCF-like variant records from the graph's bubbles
 *   serve       mapping daemon over a .pgbi artifact or .pgbs shard
 *               set (DESIGN.md §10, §13)
 *   loadgen     load generator + latency reporter for `pgb serve`
 *
 * Every subcommand parses its arguments through core::ArgParser, so
 * flags, option values, and positional counts validate identically
 * everywhere, and `pgb <cmd> --help` prints a generated usage block.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "align/dispatch.hpp"
#include "analysis/deconstruct.hpp"
#include "core/arg_parser.hpp"
#include "core/fault.hpp"
#include "core/io.hpp"
#include "core/logging.hpp"
#include "core/parse.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "graph/gfa.hpp"
#include "index/gbwt.hpp"
#include "index/minimizer.hpp"
#include "layout/pgsgd.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "pipeline/context.hpp"
#include "pipeline/graph_build.hpp"
#include "pipeline/mapper.hpp"
#include "seq/fasta.hpp"
#include "seq/read_sim.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "store/shard_build.hpp"
#include "store/store.hpp"
#include "synth/pangenome_sim.hpp"

namespace {

using namespace pgb;

/** Lenient parsing is a CLI-wide knob (PGB_LENIENT_PARSE=1). */
core::ParseOptions
cliParseOptions()
{
    core::ParseOptions options;
    const char *value = std::getenv("PGB_LENIENT_PARSE");
    options.lenient = value != nullptr && *value != '\0' &&
                      std::strcmp(value, "0") != 0;
    return options;
}

/** Report skipped records after a lenient read. */
void
reportSkipped(const char *what, const core::ParseStats &stats)
{
    if (stats.skipped > 0) {
        core::warn(what, ": skipped ", stats.skipped,
                   " malformed record(s), kept ", stats.records);
    }
}

/**
 * Thread count for a subcommand: --threads wins, then the historical
 * trailing positional, then every core.
 */
unsigned
resolveThreads(const core::ArgParser &parser, size_t positional_index)
{
    if (parser.has("--threads")) {
        return static_cast<unsigned>(
            parser.getUint("--threads", 1, 1, 65536));
    }
    return static_cast<unsigned>(parser.positionalUint(
        positional_index, "threads", core::hardwareThreads(), 1,
        65536));
}

int
usage()
{
    std::fprintf(
        stderr,
        "pgb — PangenomicsBench toolkit\n"
        "\n"
        "usage (run `pgb <command> --help` for details):\n"
        "  pgb simulate <out-prefix> [bases] [haplotypes] [seed]\n"
        "      writes <prefix>.gfa, <prefix>.fa, <prefix>.short.fq,\n"
        "      <prefix>.long.fq (--preset=repeat plants tandem arrays)\n"
        "  pgb stats <graph.gfa>\n"
        "  pgb index <graph.gfa> -o <out.pgbi> [--k K] [--w W]\n"
        "      build the mapping indexes once, write a .pgbi artifact\n"
        "      (--seeder=mem adds the FM-index sections)\n"
        "  pgb shard <graph.gfa> -o <out.pgbs> [--target-shard-mb N]\n"
        "      partition by connected component into per-shard .pgbi\n"
        "      artifacts plus a checksummed .pgbs manifest, for\n"
        "      beyond-RAM mapping (shards mmap lazily, evict under\n"
        "      --shard-cache-mb)\n"
        "  pgb map <graph.gfa> <reads.fq> [vgmap|giraffe|graphaligner|"
        "minigraph] [threads]\n"
        "  pgb map --index <art.pgbi> <reads.fq> [profile] [threads]\n"
        "  pgb map --shards <set.pgbs> <reads.fq> [profile] [threads]\n"
        "      --seeder=minimizer|mem picks the seeding backend;\n"
        "      --shard-cache-mb bounds resident shards\n"
        "  pgb build <assemblies.fa> <out.gfa> [pggb|mc] [threads]\n"
        "  pgb layout <graph.gfa> <out.tsv> [iterations] [threads]\n"
        "  pgb split <in.gfa> <out.gfa> [max-node-length]\n"
        "  pgb deconstruct <graph.gfa> [ref-path-name]\n"
        "      VCF-like variant records from the graph's bubbles\n"
        "  pgb serve (--index <art.pgbi> | --shards <set.pgbs>)\n"
        "      (--socket <path> | --stdio)\n"
        "      batching mapping daemon; SIGTERM drains and stops,\n"
        "      a second SIGTERM forces teardown, SIGHUP hot-reloads\n"
        "      the index\n"
        "  pgb loadgen --socket <path> <reads.fq> [options]\n"
        "      drive a daemon, report throughput and latency\n"
        "      (--timeout-us deadlines, --retries backoff)\n"
        "  pgb ctl --socket <path> (ping|status|reload)\n"
        "      health-check or hot-reload a running daemon\n"
        "  pgb fault-sites\n"
        "      list fault-injection sites and their recovery docs\n"
        "\n"
        "global options (any subcommand):\n"
        "  --metrics <out.json>  write runtime counters/gauges on exit\n"
        "  --trace <out.json>    record spans, write chrome://tracing\n"
        "                        JSON on exit\n"
        "\n"
        "environment:\n"
        "  PGB_LENIENT_PARSE=1   skip malformed input records with a\n"
        "                        warning instead of failing\n"
        "  PGB_FAULT=site[:n]    deterministic fault injection (tests)\n"
        "  PGB_FAULT_CHAOS=seed:p\n"
        "                        seeded random fault schedule: every\n"
        "                        site fails each hit with probability\n"
        "                        p, reproducible from the seed\n"
        "  PGB_METRICS=1         print a one-line metrics summary to\n"
        "                        stderr on success\n"
        "  PGB_THREADS=n         cap the worker pool size\n");
    return 2;
}

int
cmdSimulate(int argc, char **argv)
{
    core::ArgParser parser(
        "simulate", "<out-prefix> [bases] [haplotypes] [seed]",
        "generate a synthetic pangenome: GFA graph, haplotype FASTA, "
        "and simulated short/long read FASTQs");
    parser.option("--preset", "name",
                  "workload shape: mgraph (default) or repeat "
                  "(~35% planted tandem arrays, the seeding "
                  "stress regime)");
    if (!parser.parse(argc, argv))
        return 0;
    parser.requirePositionals(1, 4);
    const std::string prefix = parser.positional(0);
    const size_t bases =
        parser.positionalUint(1, "bases", 100000, 1000, 1ull << 40);
    const size_t haplotypes =
        parser.positionalUint(2, "haplotypes", 14, 1, 100000);
    const uint64_t seed =
        parser.positionalUint(3, "seed", 42, 0, UINT64_MAX);

    const std::string preset = parser.get("--preset", "mgraph");
    synth::PangenomeConfig config;
    if (preset == "mgraph")
        config = synth::mGraphLikeConfig(bases, seed);
    else if (preset == "repeat")
        config = synth::repeatHeavyConfig(bases, seed);
    else
        core::fatal("unknown --preset '", preset,
                    "' (expected mgraph or repeat)");
    config.haplotypeCount = haplotypes;
    const auto pangenome = synth::simulatePangenome(config);

    graph::writeGfaFile(prefix + ".gfa", pangenome.graph);
    std::vector<seq::Sequence> fasta;
    fasta.push_back(pangenome.reference);
    for (const auto &hap : pangenome.haplotypes)
        fasta.push_back(hap);
    seq::writeFastaFile(prefix + ".fa", fasta);

    seq::ReadSimulator short_sim(seq::ReadProfile::shortRead(),
                                 seed ^ 0x51);
    seq::ReadProfile long_profile = seq::ReadProfile::longRead();
    long_profile.readLength = std::min<size_t>(15000, bases / 4);
    seq::ReadSimulator long_sim(long_profile, seed ^ 0x52);
    std::vector<seq::Sequence> short_reads, long_reads;
    const size_t n_short = bases / 300 * haplotypes / 4 + 50;
    const size_t n_long = bases / 30000 * haplotypes + 10;
    for (size_t r = 0; r < n_short; ++r) {
        auto read = short_sim.sample(
            pangenome.haplotypes[r % haplotypes]);
        read.read.setName("sr_" + std::to_string(r));
        short_reads.push_back(std::move(read.read));
    }
    for (size_t r = 0; r < n_long; ++r) {
        auto read =
            long_sim.sample(pangenome.haplotypes[r % haplotypes]);
        read.read.setName("lr_" + std::to_string(r));
        long_reads.push_back(std::move(read.read));
    }
    seq::writeFastqFile(prefix + ".short.fq", short_reads);
    seq::writeFastqFile(prefix + ".long.fq", long_reads);
    const auto stats = pangenome.graph.stats();
    std::printf("wrote %s.{gfa,fa,short.fq,long.fq}: %zu nodes, "
                "%zu edges, %zu paths, %zu variants, %zu short + %zu "
                "long reads\n",
                prefix.c_str(), stats.nodeCount, stats.edgeCount,
                stats.pathCount, pangenome.variants.size(),
                short_reads.size(), long_reads.size());
    return 0;
}

int
cmdStats(int argc, char **argv)
{
    core::ArgParser parser("stats", "<graph.gfa>",
                           "print graph statistics for a GFA");
    if (!parser.parse(argc, argv))
        return 0;
    parser.requirePositionals(1, 1);
    core::ParseStats parse_stats;
    const auto graph = graph::readGfaFile(parser.positional(0),
                                          cliParseOptions(),
                                          &parse_stats);
    reportSkipped("stats", parse_stats);
    const auto stats = graph.stats();
    std::printf("nodes          %zu\n", stats.nodeCount);
    std::printf("edges          %zu\n", stats.edgeCount);
    std::printf("paths          %zu\n", stats.pathCount);
    std::printf("total bases    %zu\n", stats.totalBases);
    std::printf("avg node len   %.2f\n", stats.avgNodeLength);
    std::printf("max node len   %zu\n", stats.maxNodeLength);
    std::printf("avg out-degree %.3f\n", stats.avgOutDegree);
    for (graph::PathId p = 0; p < graph.pathCount(); ++p) {
        std::printf("path %-12s %zu steps, %zu bases\n",
                    graph.pathName(p).c_str(),
                    graph.pathSteps(p).size(), graph.pathLength(p));
    }
    return 0;
}

pipeline::ToolProfile
parseProfile(const std::string &name)
{
    if (name == "vgmap")
        return pipeline::ToolProfile::kVgMap;
    if (name == "giraffe")
        return pipeline::ToolProfile::kVgGiraffe;
    if (name == "graphaligner")
        return pipeline::ToolProfile::kGraphAligner;
    if (name == "minigraph")
        return pipeline::ToolProfile::kMinigraph;
    core::fatal("unknown tool profile '", name, "'");
}

int
cmdIndex(int argc, char **argv)
{
    core::ArgParser parser(
        "index", "<graph.gfa> -o <out.pgbi>",
        "build the minimizer index and GBWT once and write a "
        "versioned .pgbi artifact for `pgb map --index`");
    parser.option("--output", "out.pgbi",
                  "artifact output path (required)", "-o");
    parser.option("--k", "k", "minimizer length (default 15)");
    parser.option("--w", "w", "minimizer window (default 10)");
    parser.option("--seeder", "name",
                  "seeding backend the artifact should support: "
                  "minimizer (default) or mem (also builds and "
                  "persists the FM-index sections)");
    parser.option("--threads", "n",
                  "worker threads (default: all cores)");
    if (!parser.parse(argc, argv))
        return 0;
    parser.requirePositionals(1, 1);
    const std::string out_path = parser.get("--output");
    if (out_path.empty())
        core::fatal("index: missing required --output/-o <out.pgbi>");
    const auto k =
        static_cast<int>(parser.getUint("--k", 15, 4, 31));
    const auto w =
        static_cast<int>(parser.getUint("--w", 10, 1, 1024));
    const unsigned threads = parser.has("--threads")
        ? static_cast<unsigned>(parser.getUint("--threads", 1, 1, 65536))
        : core::hardwareThreads();

    core::ParseStats parse_stats;
    const auto graph = graph::readGfaFile(parser.positional(0),
                                          cliParseOptions(),
                                          &parse_stats);
    reportSkipped("index", parse_stats);

    const pipeline::SeederKind seeder =
        pipeline::parseSeeder(parser.get("--seeder", "minimizer"));

    core::WallTimer timer;
    const index::MinimizerIndex minimizers(graph, k, w, threads);
    // Always include the GBWT so the artifact serves every profile,
    // giraffe included.
    const index::GbwtIndex gbwt(graph, true, threads);
    std::unique_ptr<index::FmIndex> fm;
    if (seeder == pipeline::SeederKind::kMem)
        fm = std::make_unique<index::FmIndex>(graph);
    const double build_seconds = timer.seconds();
    store::writeArtifact(out_path, graph, minimizers, &gbwt, fm.get());

    const auto stats = graph.stats();
    std::printf("index: %zu nodes, %zu edges, %zu paths; k=%d w=%d%s; "
                "built in %.2fs -> %s\n",
                stats.nodeCount, stats.edgeCount, stats.pathCount, k,
                w, fm ? "; +FM-index" : "", build_seconds,
                out_path.c_str());
    return 0;
}

int
cmdShard(int argc, char **argv)
{
    core::ArgParser parser(
        "shard", "<graph.gfa> -o <out.pgbs>",
        "partition a pangenome by connected component into per-shard "
        ".pgbi artifacts plus a checksummed .pgbs manifest; `pgb map "
        "--shards` / `pgb serve --shards` then mmap shards lazily and "
        "keep residency under --shard-cache-mb (beyond-RAM mapping, "
        "DESIGN.md §13)");
    parser.option("--output", "out.pgbs",
                  "manifest output path (required); shard artifacts "
                  "land beside it as <stem>.shard<i>.pgbi", "-o");
    parser.option("--k", "k", "minimizer length (default 15)");
    parser.option("--w", "w", "minimizer window (default 10)");
    parser.option("--seeder", "name",
                  "seeding backend the shard set should support: "
                  "minimizer (default) or mem (adds per-shard "
                  "FM-index sections)");
    parser.option("--target-shard-mb", "mb",
                  "bin consecutive components into shards of about "
                  "this many MiB (default 256; 0 = one shard per "
                  "component)");
    parser.option("--threads", "n",
                  "worker threads (default: all cores)");
    if (!parser.parse(argc, argv))
        return 0;
    parser.requirePositionals(1, 1);
    const std::string out_path = parser.get("--output");
    if (out_path.empty())
        core::fatal("shard: missing required --output/-o <out.pgbs>");

    core::ParseStats parse_stats;
    const auto graph = graph::readGfaFile(parser.positional(0),
                                          cliParseOptions(),
                                          &parse_stats);
    reportSkipped("shard", parse_stats);

    store::ShardBuildParams params;
    params.k = static_cast<int>(parser.getUint("--k", 15, 4, 31));
    params.w = static_cast<int>(parser.getUint("--w", 10, 1, 1024));
    params.seeder = parser.get("--seeder", "minimizer");
    params.targetShardMb =
        parser.getUint("--target-shard-mb", 256, 0, 1u << 20);
    params.threads = parser.has("--threads")
        ? static_cast<unsigned>(parser.getUint("--threads", 1, 1, 65536))
        : core::hardwareThreads();

    core::WallTimer timer;
    const store::ShardManifest manifest =
        store::buildShardSet(graph, params, out_path);
    uint64_t bytes = 0;
    for (const auto &entry : manifest.shards)
        bytes += entry.bytes;
    std::printf("shard: %zu component(s) -> %zu shard(s) (%.1f MiB "
                "total), k=%d w=%d%s; built in %.2fs -> %s\n",
                manifest.components.size(), manifest.shards.size(),
                static_cast<double>(bytes) / (1024.0 * 1024.0),
                params.k, params.w,
                params.seeder == "mem" ? "; +FM-index" : "",
                timer.seconds(), out_path.c_str());
    return 0;
}

int
cmdMap(int argc, char **argv)
{
    core::ArgParser parser(
        "map",
        "(<graph.gfa> | --index <art.pgbi> | --shards <set.pgbs>) "
        "<reads.fq> [profile] [threads]",
        "map FASTQ reads to a pangenome graph; profile is one of "
        "vgmap, giraffe, graphaligner, minigraph (default vgmap)");
    parser.option("--index", "art.pgbi",
                  "map against a prebuilt artifact (pgb index) "
                  "instead of rebuilding indexes from a GFA");
    parser.option("--shards", "set.pgbs",
                  "map against a sharded pangenome (pgb shard): "
                  "shards mmap lazily on first touch, so graphs "
                  "larger than RAM map under --shard-cache-mb");
    parser.option("--shard-cache-mb", "mb",
                  "resident shard budget in MiB (default 0 = "
                  "unlimited); in-flight batches pin their shards, "
                  "so the budget is soft");
    parser.option("--threads", "n",
                  "worker threads (default: all cores)");
    parser.option("--batch", "reads",
                  "stream reads in batches of this many (default "
                  "4096), bounding memory on large FASTQs");
    parser.option("--dump", "out.tsv",
                  "write per-read mappings as TSV (name, mapped, "
                  "node, score, reverse) — comparable byte-for-byte "
                  "with `pgb loadgen --dump` output");
    parser.option("--seeder", "name",
                  "seeding backend: minimizer (default) or mem "
                  "(FM-index SMEM seeds; with --index the artifact "
                  "must have been built with --seeder=mem)");
    if (!parser.parse(argc, argv))
        return 0;

    // With --index/--shards the graph positional disappears and
    // everything shifts left: map --index art.pgbi reads.fq [profile]
    // [threads].
    const bool from_artifact = parser.has("--index");
    const bool from_shards = parser.has("--shards");
    if (from_artifact && from_shards)
        core::fatal("map: --index and --shards are mutually "
                    "exclusive (one backing store per run)");
    const size_t base = (from_artifact || from_shards) ? 0 : 1;
    parser.requirePositionals(base + 1, base + 3);
    const std::string reads_path = parser.positional(base);

    const auto parse_options = cliParseOptions();
    auto config = pipeline::MapperConfig::forTool(
        parseProfile(parser.positionalOr(base + 1,
                                         std::string("vgmap"))));
    config.threads = resolveThreads(parser, base + 2);

    const pipeline::SeederKind seeder =
        pipeline::parseSeeder(parser.get("--seeder", "minimizer"));

    graph::PanGraph graph; ///< kept alive for the in-memory context
    std::shared_ptr<const pipeline::MappingContext> context;
    if (from_artifact) {
        context = pipeline::MappingContext::Builder()
                      .fromArtifact(parser.get("--index"))
                      .seeder(seeder)
                      .build();
        // The artifact dictates the index geometry.
        config.k = context->k();
        config.w = context->w();
    } else if (from_shards) {
        context = pipeline::MappingContext::Builder()
                      .fromManifest(parser.get("--shards"))
                      .seeder(seeder)
                      .shardCacheMb(parser.getUint("--shard-cache-mb",
                                                   0, 0, 1u << 20))
                      .build();
        // The manifest dictates the index geometry.
        config.k = context->k();
        config.w = context->w();
    } else {
        graph = graph::readGfaFile(parser.positional(0), parse_options);
        context = pipeline::MappingContext::Builder()
                      .fromGraph(graph)
                      .k(config.k)
                      .w(config.w)
                      .threads(config.threads)
                      .buildGbwt(config.profile ==
                                 pipeline::ToolProfile::kVgGiraffe)
                      .seeder(seeder)
                      .build();
    }

    // Stream the FASTQ in bounded batches; aggregate one report.
    const size_t batch_size =
        parser.getUint("--batch", 4096, 1, 1u << 20);
    seq::FastqStreamReader reader(reads_path, parse_options);
    std::vector<seq::Sequence> batch;
    pipeline::MappingStats total;
    const std::string dump_path = parser.get("--dump");
    std::unique_ptr<core::CheckedWriter> dump;
    if (!dump_path.empty())
        dump = std::make_unique<core::CheckedWriter>(dump_path);
    std::vector<pipeline::ReadMapping> mappings;
    core::WallTimer timer;
    while (reader.nextBatch(batch, batch_size)) {
        pipeline::MappingStats part;
        if (dump) {
            part = pipeline::mapBatch(*context, config, batch,
                                      mappings);
            dump->stream() << serve::formatMappings(batch, mappings);
        } else {
            part = pipeline::mapBatch(*context, config, batch);
        }
        total += part;
    }
    reportSkipped("map", reader.stats());
    if (dump)
        dump->finish();

    std::printf("%s: mapped %llu/%llu reads in %.2fs (%u threads%s)\n",
                pipeline::toolName(config.profile),
                static_cast<unsigned long long>(total.mappedReads),
                static_cast<unsigned long long>(total.reads),
                timer.seconds(), config.threads,
                from_artifact ? ", from artifact"
                              : (from_shards ? ", from shard set"
                                             : ""));
    for (const auto &[stage, secs] : total.timers.stages())
        std::printf("  %-13s %8.3fs\n", stage, secs);
    return 0;
}

int
cmdBuild(int argc, char **argv)
{
    core::ArgParser parser(
        "build", "<assemblies.fa> <out.gfa> [pggb|mc] [threads]",
        "build a pangenome graph from FASTA assemblies with the pggb "
        "(default) or minigraph-cactus pipeline");
    parser.option("--threads", "n",
                  "worker threads (default: all cores)");
    if (!parser.parse(argc, argv))
        return 0;
    parser.requirePositionals(2, 4);
    core::ParseStats parse_stats;
    const auto assemblies = seq::readFastaFile(
        parser.positional(0), cliParseOptions(), &parse_stats);
    reportSkipped("build", parse_stats);
    const std::string tool =
        parser.positionalOr(2, std::string("pggb"));
    if (tool != "pggb" && tool != "mc")
        core::fatal("build: unknown pipeline '", tool,
                    "' (expected pggb or mc)");
    const bool mc = tool == "mc";
    const unsigned threads = resolveThreads(parser, 3);

    pipeline::GraphBuildReport report;
    if (mc) {
        pipeline::McParams params;
        params.threads = threads;
        report = pipeline::buildMinigraphCactus(assemblies, params);
    } else {
        pipeline::PggbParams params;
        params.threads = threads;
        report = pipeline::buildPggb(assemblies, params);
    }
    graph::writeGfaFile(parser.positional(1), report.graph);
    const auto stats = report.graph.stats();
    std::printf("%s: %zu nodes, %zu edges, %zu paths -> %s\n",
                mc ? "minigraph-cactus" : "pggb", stats.nodeCount,
                stats.edgeCount, stats.pathCount,
                parser.positional(1).c_str());
    for (const auto &[stage, secs] : report.timers.stages())
        std::printf("  %-14s %8.3fs\n", stage, secs);
    return 0;
}

int
cmdLayout(int argc, char **argv)
{
    core::ArgParser parser(
        "layout", "<graph.gfa> <out.tsv> [iterations] [threads]",
        "compute a PGSGD 2-D layout of a GFA, write node coordinates "
        "as TSV");
    parser.option("--threads", "n",
                  "worker threads (default: all cores)");
    if (!parser.parse(argc, argv))
        return 0;
    parser.requirePositionals(2, 4);
    const auto graph = graph::readGfaFile(parser.positional(0),
                                          cliParseOptions());
    const auto iterations = static_cast<uint32_t>(
        parser.positionalUint(2, "iterations", 30, 1, 1u << 20));
    const unsigned threads = resolveThreads(parser, 3);

    layout::PathIndex index(graph);
    layout::Layout coords(graph.nodeCount(), 1);
    layout::PgsgdParams params;
    params.iterations = iterations;
    params.threads = threads;
    const auto result = layout::pgsgdLayout(index, coords, params);
    // A checked write: an unwritable path or full disk used to print
    // the success line below and exit 0 with no (or a truncated) TSV.
    core::CheckedWriter out(parser.positional(1));
    out.stream() << "node\tx_start\ty_start\tx_end\ty_end\n";
    for (graph::NodeId node = 0; node < graph.nodeCount(); ++node) {
        out.stream() << node << '\t'
            << coords.x(layout::Layout::startPoint(node)) << '\t'
            << coords.y(layout::Layout::startPoint(node)) << '\t'
            << coords.x(layout::Layout::endPoint(node)) << '\t'
            << coords.y(layout::Layout::endPoint(node)) << '\n';
    }
    out.finish();
    std::printf("layout: stress %.4f -> %.4f over %llu updates -> %s\n",
                result.stressBefore, result.stressAfter,
                static_cast<unsigned long long>(result.updates),
                parser.positional(1).c_str());
    return 0;
}

int
cmdSplit(int argc, char **argv)
{
    core::ArgParser parser(
        "split", "<in.gfa> <out.gfa> [max-node-length]",
        "split long nodes so none exceeds max-node-length bases "
        "(default 8), rewriting edges and paths");
    if (!parser.parse(argc, argv))
        return 0;
    parser.requirePositionals(2, 3);
    const auto graph = graph::readGfaFile(parser.positional(0),
                                          cliParseOptions());
    const size_t max_len = parser.positionalUint(
        2, "max-node-length", 8, 1, 1ull << 32);
    const auto split = graph.splitNodes(max_len);
    graph::writeGfaFile(parser.positional(1), split);
    std::printf("split: avg node %.2f -> %.2f bp, %zu -> %zu nodes "
                "-> %s\n",
                graph.stats().avgNodeLength,
                split.stats().avgNodeLength, graph.nodeCount(),
                split.nodeCount(), parser.positional(1).c_str());
    return 0;
}

int
cmdDeconstruct(int argc, char **argv)
{
    core::ArgParser parser(
        "deconstruct", "<graph.gfa> [ref-path-name]",
        "emit VCF-like variant records from the graph's bubbles "
        "against a reference path (default: the first path)");
    if (!parser.parse(argc, argv))
        return 0;
    parser.requirePositionals(1, 2);
    const auto graph = graph::readGfaFile(parser.positional(0),
                                          cliParseOptions());
    graph::PathId ref_path = 0;
    if (parser.positionalCount() > 1) {
        const std::string &name = parser.positional(1);
        bool found = false;
        for (graph::PathId p = 0; p < graph.pathCount(); ++p) {
            if (graph.pathName(p) == name) {
                ref_path = p;
                found = true;
            }
        }
        if (!found)
            core::fatal("no path named '", name, "'");
    }
    const auto variants =
        analysis::deconstructVariants(graph, ref_path);
    std::printf("#REF=%s\n#POS\tREF\tALT\tSUPPORT(ref;alts)\n",
                graph.pathName(ref_path).c_str());
    for (const auto &v : variants) {
        std::string alts, supports;
        for (size_t a = 0; a < v.altAlleles.size(); ++a) {
            if (a != 0) {
                alts += ',';
                supports += ',';
            }
            alts += v.altAlleles[a].empty() ? "-" : v.altAlleles[a];
            supports += std::to_string(v.altSupport[a]);
        }
        std::printf("%llu\t%s\t%s\t%u;%s\n",
                    static_cast<unsigned long long>(v.refPosition),
                    v.refAllele.empty() ? "-" : v.refAllele.c_str(),
                    alts.c_str(), v.refSupport, supports.c_str());
    }
    std::fprintf(stderr, "%zu variant sites\n", variants.size());
    return 0;
}

/** The daemon signal handlers may only touch atomics and make
 *  async-signal-safe calls; Server::stop()/requestReload() honor
 *  that. */
serve::Server *activeServer = nullptr;
std::atomic<int> serveSignalCount{0};
/** Socket path copied before signals are installed, so the forced
 *  teardown can unlink() it from the handler (no std::string ops). */
char serveSocketPath[108] = {0};

extern "C" void
handleServeSignal(int)
{
    if (serveSignalCount.fetch_add(1) == 0) {
        // First signal: graceful drain — stop intake, answer what was
        // admitted, exit 0.
        if (activeServer != nullptr)
            activeServer->stop();
        return;
    }
    // Second signal during the drain: the operator means NOW. Force
    // immediate teardown with only async-signal-safe calls: unlink
    // the socket so restarts do not hit EADDRINUSE, say why on
    // stderr, exit 1.
    if (serveSocketPath[0] != '\0')
        unlink(serveSocketPath);
    const char message[] =
        "serve: second signal during drain; forced teardown\n";
    const ssize_t ignored =
        write(STDERR_FILENO, message, sizeof(message) - 1);
    (void)ignored;
    _exit(1);
}

extern "C" void
handleServeHup(int)
{
    if (activeServer != nullptr)
        activeServer->requestReload();
}

int
cmdServe(int argc, char **argv)
{
    core::ArgParser parser(
        "serve",
        "(--index <art.pgbi> | --shards <set.pgbs>) "
        "(--socket <path> | --stdio)",
        "run the mapping daemon: open the artifact or shard set "
        "once, serve framed mapping requests with batching and "
        "admission control until SIGTERM (DESIGN.md §10, §13)");
    parser.option("--index", "art.pgbi",
                  "prebuilt artifact to serve (pgb index)");
    parser.option("--shards", "set.pgbs",
                  "sharded pangenome to serve (pgb shard): shards "
                  "mmap lazily, so pangenomes larger than RAM serve "
                  "under --shard-cache-mb");
    parser.option("--shard-cache-mb", "mb",
                  "resident shard budget in MiB (default 0 = "
                  "unlimited); in-flight batches pin their shards");
    parser.option("--socket", "path",
                  "Unix-domain socket path to listen on");
    parser.flag("--stdio",
                "serve one framed connection on stdin/stdout "
                "instead of a socket");
    parser.option("--profile", "name",
                  "tool profile: vgmap (default), giraffe, "
                  "graphaligner, minigraph");
    parser.option("--seeder", "name",
                  "seeding backend: minimizer (default) or mem "
                  "(the artifact must carry FM-index sections)");
    parser.option("--max-batch", "reads",
                  "batch size trigger in reads (default 256)");
    parser.option("--max-wait-us", "us",
                  "batch time trigger in microseconds (default 2000)");
    parser.option("--queue-depth", "requests",
                  "admission bound; beyond it requests are shed "
                  "with OVERLOADED (default 256)");
    parser.option("--threads", "n",
                  "mapping threads per batch (default: all cores)");
    parser.option("--stall-budget-ms", "ms",
                  "watchdog: a batch stuck in mapBatch longer than "
                  "this dumps diagnostics and exits 1 (default "
                  "20000; 0 disables)");
    if (!parser.parse(argc, argv))
        return 0;
    parser.requirePositionals(0, 0);
    const std::string index_path = parser.get("--index");
    const std::string shards_path = parser.get("--shards");
    if (index_path.empty() && shards_path.empty())
        core::fatal("serve: missing required --index <art.pgbi> or "
                    "--shards <set.pgbs>");
    if (!index_path.empty() && !shards_path.empty())
        core::fatal("serve: --index and --shards are mutually "
                    "exclusive (one backing store per daemon)");

    serve::ServeConfig config;
    config.socketPath = parser.get("--socket");
    config.stdio = parser.has("--stdio");
    if (config.stdio == !config.socketPath.empty())
        core::fatal("serve: need exactly one of --socket <path> or "
                    "--stdio");
    config.profile =
        parseProfile(parser.get("--profile", "vgmap"));
    config.seeder = pipeline::parseSeeder(
        parser.get("--seeder", "minimizer"));
    config.maxBatchReads =
        parser.getUint("--max-batch", 256, 1, 1u << 20);
    config.maxWaitUs =
        parser.getUint("--max-wait-us", 2000, 0, 60u * 1000 * 1000);
    config.queueDepth =
        parser.getUint("--queue-depth", 256, 1, 1u << 20);
    if (parser.has("--threads")) {
        config.threads = static_cast<unsigned>(
            parser.getUint("--threads", 1, 1, 65536));
    }
    config.indexPath = index_path;
    config.shardsPath = shards_path;
    config.shardCacheMb =
        parser.getUint("--shard-cache-mb", 0, 0, 1u << 20);
    config.stallBudgetMs = parser.getUint("--stall-budget-ms", 20000,
                                          0, 3600u * 1000);

    if (!config.stdio) {
        // Scripts wait for this line (or the socket file) to appear;
        // it fires from inside run() only once the bind succeeded.
        const std::string socket_path = config.socketPath;
        config.onReady = [socket_path] {
            std::fprintf(stderr, "serve: ready on %s\n",
                         socket_path.c_str());
        };
    }

    pipeline::MappingContext::Builder builder;
    if (shards_path.empty()) {
        builder.fromArtifact(index_path);
    } else {
        builder.fromManifest(shards_path)
            .shardCacheMb(config.shardCacheMb);
    }
    auto context = builder.seeder(config.seeder).build();
    serve::Server server(std::move(context), config);

    activeServer = &server;
    serveSignalCount.store(0);
    serveSocketPath[0] = '\0';
    if (!config.stdio) {
        std::strncpy(serveSocketPath, config.socketPath.c_str(),
                     sizeof(serveSocketPath) - 1);
        serveSocketPath[sizeof(serveSocketPath) - 1] = '\0';
    }
    std::signal(SIGTERM, handleServeSignal);
    std::signal(SIGINT, handleServeSignal);
    std::signal(SIGHUP, handleServeHup);
    server.run();
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGHUP, SIG_DFL);
    activeServer = nullptr;

    const serve::Server::Totals totals = server.totals();
    std::fprintf(stderr,
                 "serve: %llu connection(s), %llu request(s), "
                 "%llu response(s), %llu shed, %llu batch(es), "
                 "%llu read(s), %llu bad frame(s), "
                 "%llu deadline-exceeded, %llu reload(s) ok, "
                 "%llu reload(s) failed\n",
                 static_cast<unsigned long long>(totals.connections),
                 static_cast<unsigned long long>(totals.requests),
                 static_cast<unsigned long long>(totals.responses),
                 static_cast<unsigned long long>(totals.shed),
                 static_cast<unsigned long long>(totals.batches),
                 static_cast<unsigned long long>(totals.reads),
                 static_cast<unsigned long long>(totals.badFrames),
                 static_cast<unsigned long long>(
                     totals.deadlineExceeded),
                 static_cast<unsigned long long>(totals.reloadsOk),
                 static_cast<unsigned long long>(
                     totals.reloadsFailed));
    return 0;
}

int
cmdLoadgen(int argc, char **argv)
{
    core::ArgParser parser(
        "loadgen", "--socket <path> <reads.fq>",
        "drive a running `pgb serve` daemon with mapping requests "
        "and report throughput and client-side latency quantiles");
    parser.option("--socket", "path",
                  "daemon socket to connect to (required)");
    parser.option("--connections", "n",
                  "concurrent connections (default 1)");
    parser.option("--requests", "n",
                  "total requests; 0 (default) = one sequential pass "
                  "over the reads");
    parser.option("--reads-per-request", "n",
                  "reads bundled per request (default 1)");
    parser.option("--rate", "rps",
                  "open-loop Poisson arrival rate in requests/second "
                  "across all connections; 0 (default) = closed loop");
    parser.option("--seed", "n",
                  "schedule/sampling RNG seed (default 42)");
    parser.option("--dump", "out.tsv",
                  "write OK response bodies in request order — "
                  "comparable byte-for-byte with `pgb map --dump`");
    parser.option("--timeout-us", "us",
                  "per-request deadline budget in microseconds; the "
                  "daemon sheds lapsed requests with "
                  "DEADLINE_EXCEEDED (default 0 = none)");
    parser.option("--retries", "n",
                  "retries per request on OVERLOADED, with "
                  "exponential backoff + jitter (default 0)");
    parser.option("--retry-base-us", "us",
                  "backoff base in microseconds; doubles per attempt, "
                  "capped at 50ms (default 1000)");
    if (!parser.parse(argc, argv))
        return 0;
    parser.requirePositionals(1, 1);

    serve::LoadgenConfig config;
    config.socketPath = parser.get("--socket");
    if (config.socketPath.empty())
        core::fatal("loadgen: missing required --socket <path>");
    config.connections =
        parser.getUint("--connections", 1, 1, 4096);
    config.requests =
        parser.getUint("--requests", 0, 0, 1ull << 32);
    config.readsPerRequest =
        parser.getUint("--reads-per-request", 1, 1, 1u << 20);
    config.seed = parser.getUint("--seed", 42, 0, UINT64_MAX);
    config.dumpPath = parser.get("--dump");
    config.timeoutUs =
        parser.getUint("--timeout-us", 0, 0, 3600ull * 1000 * 1000);
    config.maxRetries = parser.getUint("--retries", 0, 0, 1000);
    config.retryBaseUs =
        parser.getUint("--retry-base-us", 1000, 1, 60ull * 1000 * 1000);
    const std::string rate_text = parser.get("--rate", "0");
    char *rate_end = nullptr;
    config.rate = std::strtod(rate_text.c_str(), &rate_end);
    if (rate_end == rate_text.c_str() || *rate_end != '\0' ||
        config.rate < 0.0) {
        core::fatal("loadgen: --rate must be a non-negative number, "
                    "got '", rate_text, "'");
    }

    core::ParseStats parse_stats;
    const auto reads = seq::readFastqFile(
        parser.positional(0), cliParseOptions(), &parse_stats);
    reportSkipped("loadgen", parse_stats);

    const serve::LoadgenReport report =
        serve::runLoadgen(config, reads);
    std::printf("loadgen: %llu sent, %llu ok, %llu overloaded, "
                "%llu error(s), %llu expired, %llu retry(ies) "
                "in %.2fs (%s)\n",
                static_cast<unsigned long long>(report.sent),
                static_cast<unsigned long long>(report.ok),
                static_cast<unsigned long long>(report.overloaded),
                static_cast<unsigned long long>(report.errors),
                static_cast<unsigned long long>(
                    report.deadlineExceeded),
                static_cast<unsigned long long>(report.retries),
                report.wallSeconds,
                config.rate > 0.0 ? "open loop" : "closed loop");
    std::printf("  throughput %10.1f ok/s\n", report.throughputRps);
    std::printf("  p50  %12.3f ms\n",
                static_cast<double>(report.p50Nanos) / 1e6);
    std::printf("  p99  %12.3f ms\n",
                static_cast<double>(report.p99Nanos) / 1e6);
    std::printf("  p999 %12.3f ms\n",
                static_cast<double>(report.p999Nanos) / 1e6);
    std::printf("  max  %12.3f ms\n",
                static_cast<double>(report.maxNanos) / 1e6);
    return 0;
}

int
cmdFaultSites(int argc, char **argv)
{
    core::ArgParser parser(
        "fault-sites", "",
        "list every registered fault-injection site with its "
        "documented recovery behavior — the PGB_FAULT / "
        "PGB_FAULT_CHAOS site catalog (DESIGN.md §6)");
    if (!parser.parse(argc, argv))
        return 0;
    parser.requirePositionals(0, 0);

    const auto sites = core::fault::siteInfos();
    size_t width = 0;
    for (const auto &site : sites)
        width = std::max(width, site.name.size());
    for (const auto &site : sites) {
        std::printf("%-*s  %s\n", static_cast<int>(width),
                    site.name.c_str(),
                    site.recovery.empty() ? "-"
                                          : site.recovery.c_str());
    }
    std::fprintf(stderr, "%zu fault site(s)\n", sites.size());
    return 0;
}

int
cmdCtl(int argc, char **argv)
{
    core::ArgParser parser(
        "ctl", "--socket <path> (ping|status|reload)",
        "send one control frame to a running daemon: ping "
        "(liveness), status (obs metrics snapshot; sharded daemons "
        "report per-shard residency as shard.<i>.resident), reload "
        "(hot-swap the .pgbi index or .pgbs shard set)");
    parser.option("--socket", "path",
                  "daemon socket to connect to (required)");
    if (!parser.parse(argc, argv))
        return 0;
    parser.requirePositionals(1, 1);
    const std::string socket_path = parser.get("--socket");
    if (socket_path.empty())
        core::fatal("ctl: missing required --socket <path>");
    const std::string verb = parser.positional(0);

    serve::MsgType type;
    if (verb == "ping")
        type = serve::MsgType::kPing;
    else if (verb == "status")
        type = serve::MsgType::kStatus;
    else if (verb == "reload")
        type = serve::MsgType::kReload;
    else
        core::fatal("ctl: unknown verb '", verb,
                    "' (want ping, status, or reload)");

    const serve::Response response =
        serve::runControl(socket_path, type);
    std::fprintf(stderr, "ctl: %s -> %s\n", verb.c_str(),
                 serve::statusName(response.status));
    if (!response.body.empty())
        std::printf("%s\n", response.body.c_str());
    return response.status == serve::Status::kOk ? 0 : 1;
}

int
dispatch(const std::string &command, int argc, char **argv)
{
    if (command == "simulate")
        return cmdSimulate(argc, argv);
    if (command == "stats")
        return cmdStats(argc, argv);
    if (command == "index")
        return cmdIndex(argc, argv);
    if (command == "shard")
        return cmdShard(argc, argv);
    if (command == "map")
        return cmdMap(argc, argv);
    if (command == "build")
        return cmdBuild(argc, argv);
    if (command == "layout")
        return cmdLayout(argc, argv);
    if (command == "split")
        return cmdSplit(argc, argv);
    if (command == "deconstruct")
        return cmdDeconstruct(argc, argv);
    if (command == "serve")
        return cmdServe(argc, argv);
    if (command == "loadgen")
        return cmdLoadgen(argc, argv);
    if (command == "ctl")
        return cmdCtl(argc, argv);
    if (command == "fault-sites")
        return cmdFaultSites(argc, argv);
    return usage();
}

/**
 * Emit the end-of-run observability artifacts. Writes go through
 * CheckedWriter, so an unwritable path or full disk fails the whole
 * run (exit 1, no partial file) even though the command succeeded —
 * a silently missing metrics file would defeat its purpose.
 */
void
writeObservability(const std::string &metrics_path,
                   const std::string &trace_path)
{
    const char *env = std::getenv("PGB_METRICS");
    const bool summarize = env != nullptr && *env != '\0' &&
                           std::strcmp(env, "0") != 0;
    if (!metrics_path.empty() || summarize) {
        // Force SIMD detection so align.simd_level reports the level
        // the run would dispatch to, even if no kernel actually ran.
        align::activeSimdLevel();
        const obs::Report report = obs::Report::collect();
        if (!metrics_path.empty()) {
            core::CheckedWriter out(metrics_path);
            report.write(out);
            out.finish();
        }
        if (summarize)
            std::fprintf(stderr, "%s\n", report.summaryLine().c_str());
    }
    if (!trace_path.empty()) {
        core::CheckedWriter out(trace_path);
        obs::writeTrace(out);
        out.finish();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip the global observability options before subcommand
    // dispatch so every subcommand accepts them uniformly.
    std::string command = argc > 1 ? argv[1] : "";
    try {
        std::string metrics_path;
        std::string trace_path;
        std::vector<char *> args;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--metrics" || arg == "--trace") {
                if (i + 1 >= argc)
                    core::fatal(arg, ": missing output path");
                (arg == "--metrics" ? metrics_path
                                    : trace_path) = argv[++i];
                continue;
            }
            args.push_back(argv[i]);
        }
        if (args.empty())
            return usage();
        command = args[0];
        if (!trace_path.empty())
            obs::enableTracing(true);
        const int rc = dispatch(command,
                                static_cast<int>(args.size()) - 1,
                                args.data() + 1);
        if (rc == 0)
            writeObservability(metrics_path, trace_path);
        return rc;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "pgb %s: %s\n", command.c_str(),
                     error.what());
        return 1;
    } catch (...) {
        std::fprintf(stderr, "pgb %s: unknown error\n", command.c_str());
        return 1;
    }
}
