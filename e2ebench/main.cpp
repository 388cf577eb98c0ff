/**
 * @file
 * e2ebench: end-to-end and per-layer benchmark of the mapping suite.
 *
 *   e2ebench gen --workload W --seed N --dir D
 *   e2ebench run --workload W --seed N --seconds S --trace 0|1 --dir D
 *
 * `gen` writes the seeded inputs (inputs.hpp). `run` sets the workload
 * up several times from those files (median = setup_s), then measures
 * cycles of two offline mapBatch rounds, a closed-loop and an open-loop
 * serving window in this one process, checks every output, and prints
 * a report followed by one JSON line: end-to-end metrics with
 * --trace 0, per-layer metrics with --trace 1. A failed check prints "correct": false with no metrics and
 * exits 1. run.py builds this program and drives it; README.md explains
 * the workloads and what each metric predicts.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "align/dispatch.hpp"
#include "align/gbv.hpp"
#include "align/gssw.hpp"
#include "core/logging.hpp"
#include "core/timer.hpp"
#include "graph/gfa.hpp"
#include "index/gbwt.hpp"
#include "index/minimizer.hpp"
#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pipeline/context.hpp"
#include "pipeline/mapper.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "store/shard_build.hpp"
#include "store/store.hpp"
#include "trace.hpp"
#include "truth.hpp"

namespace {

using namespace pgb;
using namespace pgb::e2ebench;
using pipeline::MappingContext;
using pipeline::MappingStats;
using pipeline::ReadMapping;
using pipeline::SeederKind;

constexpr int kSetupRepeats = 5;
constexpr int kMinCycles = 3; ///< measurement cycles, at least
constexpr unsigned kServeThreads = 2;
constexpr size_t kClosedConnections = 64;
constexpr double kOpenWindowSeconds = 1.0;
constexpr uint64_t kLatencyLimitUs = 50000;
constexpr size_t kWarmReads = 256;
constexpr size_t kTracedReads = 2000; ///< per traced mapBatch
constexpr size_t kReplayCells = 400u << 20; ///< per kernel replay

/** A check on the program's output failed: the run reports no numbers. */
struct CheckFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

struct Args
{
    std::string mode, workload, dir;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        core::fatal("usage: e2ebench gen|run --workload W --seed N "
                    "--dir D [--seconds S --trace 0|1]");
    Args args;
    args.mode = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i], value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--dir")
            args.dir = value;
        else if (key == "--seed")
            args.seed = std::stoull(value);
        else if (key == "--seconds")
            args.seconds = std::stod(value);
        else if (key == "--trace")
            args.trace = value == "1";
        else
            core::fatal("e2ebench: unknown option '", key, "'");
    }
    if (args.workload.empty() || args.dir.empty())
        core::fatal("e2ebench: --workload and --dir are required");
    if (args.mode == "run" && args.seconds <= 0.0)
        core::fatal("e2ebench: run needs --seconds > 0");
    return args;
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(CPU_COUNT(&set));
}

/** Host-wide steal and total jiffies from /proc/stat. */
struct CpuJiffies
{
    uint64_t steal = 0, total = 0;
};

CpuJiffies
readCpuJiffies()
{
    CpuJiffies out;
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    uint64_t value = 0;
    for (int field = 0; field < 8 && (in >> value); ++field) {
        out.total += value; // user nice system idle iowait irq softirq steal
        if (field == 7)
            out.steal = value;
    }
    return out;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::vector<seq::Sequence>
prefix(const std::vector<seq::Sequence> &reads, size_t count)
{
    return {reads.begin(),
            reads.begin() + static_cast<long>(std::min(count, reads.size()))};
}

pipeline::MapperConfig
configFor(pipeline::ToolProfile profile, const MappingContext &context,
          unsigned threads)
{
    auto config = pipeline::MapperConfig::forTool(profile);
    config.threads = threads;
    config.k = context.k();
    config.w = context.w();
    return config;
}

// ---------------------------------------------------------------- setup

/** Seconds spent in each set-up call (one set-up). */
struct SetupTimes
{
    double graphRead = 0, minimizerBuild = 0, gbwtBuild = 0,
           storeWrite = 0, storeLoad = 0, shardBuild = 0,
           manifestOpen = 0, warm = 0, serveReady = 0, total = 0;
};

/** What set-up produces: open contexts and a ready daemon. */
class Deployment
{
  public:
    std::map<SeederKind, std::shared_ptr<const MappingContext>> contexts;
    std::unique_ptr<serve::Server> server;
    std::string serverError;

    Deployment() = default;
    Deployment(const Deployment &) = delete;
    Deployment &operator=(const Deployment &) = delete;

    ~Deployment() { stopServer(); }

    /** Stop the daemon and join its thread; serverError is then set
     *  if run() failed. */
    void
    stopServer()
    {
        if (server)
            server->stop();
        if (thread_.joinable())
            thread_.join();
    }

    void
    startServer(std::shared_ptr<const MappingContext> context,
                serve::ServeConfig config)
    {
        server = std::make_unique<serve::Server>(std::move(context),
                                                 std::move(config));
        thread_ = std::thread([this] {
            try {
                server->run();
            } catch (const std::exception &e) {
                serverError = e.what();
            }
        });
    }

    const MappingContext &
    context(SeederKind kind) const
    {
        return *contexts.at(kind);
    }

  private:
    std::thread thread_;
};

/** Time @p body into @p seconds under a span named @p name. */
template <typename Body>
void
timed(const char *name, double &seconds, Body &&body)
{
    obs::Span span(name);
    core::WallTimer timer;
    body();
    seconds = timer.seconds();
}

/**
 * Inputs on disk until ready to map and serve: what `pgb index` (or
 * `pgb shard`) plus opening the result costs, one warm pass per
 * context so lazy loads finish, and the daemon reaching waitReady.
 * @p graphOut receives the parsed graph for the truth oracle.
 */
std::unique_ptr<Deployment>
setUp(const WorkloadSpec &spec, const std::string &dir, unsigned threads,
      const std::vector<seq::Sequence> &warmReads, SetupTimes &t,
      std::unique_ptr<graph::PanGraph> &graphOut)
{
    core::WallTimer total;
    auto deployment = std::make_unique<Deployment>();
    const SeederKind kinds[] = {spec.map1.seeder, spec.map2.seeder,
                                SeederKind::kMinimizer};
    auto graph = std::make_unique<graph::PanGraph>();
    timed("graph.read", t.graphRead,
          [&] { *graph = graph::readGfaFile(graphPath(dir)); });
    const int k = 15, w = 10; // `pgb index` defaults
    if (!spec.sharded) {
        const std::string path = dir + "/pan.pgbi";
        {
            std::unique_ptr<index::MinimizerIndex> minimizers;
            std::unique_ptr<index::GbwtIndex> gbwt;
            timed("index.minimizer_build", t.minimizerBuild, [&] {
                minimizers = std::make_unique<index::MinimizerIndex>(
                    *graph, k, w, threads);
            });
            timed("index.gbwt_build", t.gbwtBuild, [&] {
                gbwt = std::make_unique<index::GbwtIndex>(*graph, true,
                                                          threads);
            });
            timed("store.write", t.storeWrite, [&] {
                store::writeArtifact(path, *graph, *minimizers,
                                     gbwt.get());
            });
        }
        timed("store.load", t.storeLoad, [&] {
            deployment->contexts[SeederKind::kMinimizer] =
                MappingContext::Builder().fromArtifact(path).build();
        });
    } else {
        const std::string path = dir + "/pan.pgbs";
        store::ShardBuildParams params;
        params.k = k;
        params.w = w;
        params.threads = threads;
        params.seeder = std::find(std::begin(kinds), std::end(kinds),
                                  SeederKind::kMem) != std::end(kinds)
                            ? "mem"
                            : "minimizer";
        params.targetShardMb = 0; // one shard per component
        timed("store.shard_build", t.shardBuild,
              [&] { store::buildShardSet(*graph, params, path); });
        timed("store.manifest_open", t.manifestOpen, [&] {
            for (const SeederKind kind : kinds) {
                if (!deployment->contexts.count(kind))
                    deployment->contexts[kind] =
                        MappingContext::Builder()
                            .fromManifest(path)
                            .seeder(kind)
                            .build();
            }
        });
    }
    timed("pipeline.warm", t.warm, [&] {
        for (const auto &[kind, context] : deployment->contexts)
            pipeline::mapBatch(*context,
                               configFor(pipeline::ToolProfile::kVgMap,
                                         *context, threads),
                               warmReads);
    });
    timed("serve.ready", t.serveReady, [&] {
        serve::ServeConfig config;
        config.socketPath = dir + "/serve.sock";
        config.threads = kServeThreads;
        config.profile = spec.serve.profile;
        deployment->startServer(
            deployment->contexts.at(SeederKind::kMinimizer), config);
        if (!deployment->server->waitReady(30000)) {
            deployment->stopServer();
            core::fatal("e2ebench: daemon not ready: ",
                        deployment->serverError);
        }
    });
    t.total = total.seconds();
    graphOut = std::move(graph);
    return deployment;
}

// ------------------------------------------------------- offline phases

void
accumulate(MappingStats &total, const MappingStats &part)
{
    total.reads += part.reads;
    total.mappedReads += part.mappedReads;
    total.anchors += part.anchors;
    total.clusters += part.clusters;
    total.alignments += part.alignments;
    total.kernelSeconds += part.kernelSeconds;
    for (const auto &[stage, secs] : part.timers.stages())
        total.timers.add(stage, secs);
}

bool
sameMappings(const std::vector<ReadMapping> &a,
             const std::vector<ReadMapping> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const ReadMapping &x, const ReadMapping &y) {
                          return x.mapped == y.mapped &&
                                 x.score == y.score && x.node == y.node &&
                                 x.reverse == y.reverse;
                      });
}

double
correctFraction(const std::vector<ReadMapping> &mappings,
                const std::vector<TruthSet> &truth)
{
    size_t correct = 0;
    for (size_t i = 0; i < mappings.size(); ++i)
        correct += mappingCorrect(truth[i], mappings[i]) ? 1 : 0;
    return static_cast<double>(correct) /
           static_cast<double>(mappings.size());
}

/**
 * One offline mapBatch phase, measured in rounds over one fixed read
 * set, large enough that the rate does not hinge on which reads a seed
 * drew.
 */
struct MapPhase
{
    const PhaseSpec *spec = nullptr;
    const MappingContext *context = nullptr;
    pipeline::MapperConfig config;
    std::vector<seq::Sequence> reads;
    const std::vector<TruthSet> *truth = nullptr;

    std::vector<ReadMapping> first, mappings;
    std::vector<double> roundRates; ///< reads/s of each round
    uint64_t readsMapped = 0;       ///< over all rounds
    MappingStats stats;             ///< summed over rounds

    /** One timed mapBatch; every round must reproduce the first. */
    void
    round()
    {
        core::WallTimer timer;
        const MappingStats part =
            pipeline::mapBatch(*context, config, reads, mappings);
        roundRates.push_back(static_cast<double>(reads.size()) /
                             timer.seconds());
        accumulate(stats, part);
        readsMapped += reads.size();
        if (roundRates.size() == 1)
            first = mappings;
        else if (!sameMappings(first, mappings))
            throw CheckFailure(std::string(spec->label) +
                               ": mappings differ between rounds");
    }

    double correctFrac() const { return correctFraction(first, *truth); }
};

// -------------------------------------------------------- serving phase

/** Expected response line by read name. */
using ExpectedLines = std::unordered_map<std::string, std::string>;

/**
 * The expected response line of every pool read: formatMappings of an
 * offline mapBatch over the same context and profile.
 */
ExpectedLines
expectedLines(const std::vector<seq::Sequence> &pool,
              const std::vector<ReadMapping> &mappings)
{
    ExpectedLines lines;
    std::istringstream body(serve::formatMappings(pool, mappings));
    std::string line;
    while (std::getline(body, line))
        lines.emplace(line.substr(0, line.find('\t')), line);
    return lines;
}

/**
 * One loadgen run against the daemon: open loop at @p rate, or closed
 * loop over @p connections when rate is 0. Every OK body must equal the
 * offline mapping of its reads, and no request may get ERROR.
 */
serve::LoadgenReport
loadgenWindow(const std::string &dir, uint64_t seed, size_t window,
              size_t connections, size_t requests, double rate,
              const std::vector<seq::Sequence> &pool,
              const ExpectedLines &expected)
{
    // Each window starts the request stream at another pool offset.
    const size_t offset = (window * 2 * 977) % pool.size();
    std::vector<seq::Sequence> reads(pool.begin() +
                                         static_cast<long>(offset),
                                     pool.end());
    reads.insert(reads.end(), pool.begin(),
                 pool.begin() + static_cast<long>(offset));

    serve::LoadgenConfig config;
    config.socketPath = dir + "/serve.sock";
    config.connections = connections;
    config.requests = requests;
    config.readsPerRequest = 2; // one read pair per request
    config.rate = rate;
    config.seed = seed * 1000 + window;
    config.dumpPath = dir + "/serve.dump";
    config.timeoutUs = kLatencyLimitUs;
    const serve::LoadgenReport report = serve::runLoadgen(config, reads);

    std::ifstream dump(config.dumpPath);
    std::string line;
    uint64_t lines = 0;
    while (std::getline(dump, line)) {
        ++lines;
        const auto it = expected.find(line.substr(0, line.find('\t')));
        if (it == expected.end() || it->second != line)
            throw CheckFailure("serve: response line '" + line +
                               "' differs from offline mapBatch");
    }
    if (lines != 2 * report.ok)
        throw CheckFailure("serve: " + std::to_string(lines) +
                           " response lines for " +
                           std::to_string(report.ok) + " OK responses");
    if (report.errors != 0)
        throw CheckFailure("serve: " + std::to_string(report.errors) +
                           " ERROR responses");
    return report;
}

/** What the serving windows measured. */
struct ServeResult
{
    std::vector<double> closedRps;    ///< per closed-loop window
    std::vector<double> p50Ms, p99Ms; ///< per open-loop window
    uint64_t sent = 0, ok = 0, shed = 0, expired = 0; ///< open loop
    double openSeconds = 0.0;
    uint64_t closedSent = 0;
    uint64_t batches = 0, batchedReads = 0; ///< daemon, open loop
};

// ------------------------------------------------------- kernel replay

/** Cells/s of GSSW and GBV over alignment inputs captured by map1. */
struct KernelRates
{
    double gsswCellsPerSec = 0.0, gbvCellsPerSec = 0.0;
    size_t traces = 0;
};

KernelRates
replayKernels(const PhaseSpec &phase,
              std::shared_ptr<const MappingContext> context,
              const std::vector<seq::Sequence> &reads, unsigned threads)
{
    const pipeline::Seq2GraphMapper mapper(
        context, configFor(phase.profile, *context, threads));
    std::vector<pipeline::GsswTrace> traces =
        mapper.captureAlignTraces(reads, 4096);
    // Keep acyclic traces (GSSW's precondition) up to a cell budget.
    std::vector<pipeline::GsswTrace> kept;
    double cells = 0.0;
    for (auto &trace : traces) {
        if (cells >= kReplayCells)
            break;
        if (!trace.subgraph.isDag() || trace.query.empty())
            continue;
        cells += static_cast<double>(trace.query.size()) *
                 static_cast<double>(trace.subgraph.totalBases());
        kept.push_back(std::move(trace));
    }
    KernelRates rates;
    rates.traces = kept.size();
    if (kept.empty())
        return rates;
    align::GsswOptions gssw;
    gssw.keepMatrices = false;
    const auto params = align::ScoreParams::mappingDefaults();
    core::WallTimer gsswTimer;
    for (const auto &trace : kept)
        align::gsswAlign(trace.subgraph, trace.query, params, gssw);
    rates.gsswCellsPerSec = cells / gsswTimer.seconds();
    core::WallTimer gbvTimer;
    for (const auto &trace : kept)
        align::gbvAlign(trace.subgraph, trace.query);
    rates.gbvCellsPerSec = cells / gbvTimer.seconds();
    return rates;
}

// --------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

double
perReadUs(const MapPhase &phase, double seconds)
{
    return seconds * 1e6 / static_cast<double>(phase.readsMapped);
}

void
addPhaseLayers(std::vector<Metric> &out, const char *role,
               const MapPhase &phase)
{
    const auto &timers = phase.stats.timers;
    const std::string p = role;
    for (const char *stage : {"seed", "cluster_chain", "filter", "align"})
        out.push_back({p + "." + stage + "_us",
                       perReadUs(phase, timers.seconds(stage)), "us"});
    out.push_back(
        {p + ".kernel_us", perReadUs(phase, phase.stats.kernelSeconds),
         "us"});
    const double reads = static_cast<double>(phase.readsMapped);
    out.push_back({p + ".anchors_per_read",
                   static_cast<double>(phase.stats.anchors) / reads,
                   "count"});
    out.push_back({p + ".alignments_per_read",
                   static_cast<double>(phase.stats.alignments) / reads,
                   "count"});
}

uint64_t
counterDelta(const obs::MetricsSnapshot &before,
             const obs::MetricsSnapshot &after, const char *name)
{
    return after.counter(name) - before.counter(name);
}

int
runWorkload(const Args &args)
{
    const WorkloadSpec &spec = workloadByName(args.workload);
    const CpuJiffies cpuStart = readCpuJiffies();
    const unsigned cpus = onlineCpus();
    // One below nproc: the host and this process's own threads (the
    // load generator, the daemon's batcher) keep a core.
    const unsigned threads = std::max(1u, cpus - 1);
    const std::string digest = inputDigest(spec, args.dir);

    std::map<std::string, ReadSet> sets;
    for (const ReadSetSpec &rs : spec.readSets)
        sets.emplace(rs.name, loadReadSet(args.dir, rs.name));
    const ReadSet &serveSet = sets.at(spec.serve.readSet);
    const std::vector<seq::Sequence> warmReads =
        prefix(serveSet.reads, kWarmReads);

    // ---- Set-up, several times; the last deployment is measured.
    std::vector<SetupTimes> setups(kSetupRepeats);
    std::unique_ptr<Deployment> deployment;
    std::unique_ptr<graph::PanGraph> graph;
    for (int i = 0; i < kSetupRepeats; ++i) {
        deployment.reset();
        graph.reset();
        // Hand freed pages back so peak_rss_mb is one set-up's peak,
        // not the sum of what earlier set-ups left in malloc's arenas.
        malloc_trim(0);
        // The traced run records the last set-up's spans.
        obs::enableTracing(args.trace && i == kSetupRepeats - 1);
        deployment = setUp(spec, args.dir, threads, warmReads, setups[i],
                           graph);
    }
    obs::enableTracing(false);

    // Truth from the graph as parsed, then the graph is freed.
    std::map<std::string, std::vector<TruthSet>> truth;
    {
        const TruthOracle oracle(*graph);
        for (const auto &[name, set] : sets)
            for (const ReadOrigin &origin : set.origins)
                truth[name].push_back(oracle.project(origin));
    }
    graph.reset();

    MapPhase phases[2];
    const PhaseSpec *phaseSpecs[2] = {&spec.map1, &spec.map2};
    for (int p = 0; p < 2; ++p) {
        const PhaseSpec &ps = *phaseSpecs[p];
        phases[p].spec = &ps;
        phases[p].context = &deployment->context(ps.seeder);
        phases[p].config = configFor(ps.profile, *phases[p].context, threads);
        phases[p].reads = prefix(sets.at(ps.readSet).reads, ps.roundReads);
        phases[p].truth = &truth.at(ps.readSet);
    }

    // The daemon's answers must equal an offline mapBatch of the same
    // reads with the same context and profile.
    const MappingContext &serveContext =
        deployment->context(SeederKind::kMinimizer);
    const std::vector<seq::Sequence> pool =
        prefix(serveSet.reads, spec.serve.poolReads);
    std::vector<ReadMapping> reference;
    pipeline::mapBatch(serveContext,
                       configFor(spec.serve.profile, serveContext, threads),
                       pool, reference);
    const ExpectedLines expected = expectedLines(pool, reference);

    // ---- Measurement: cycles of every phase in turn, so a slow spell
    // of the host lands on all metrics alike and medians absorb it.
    const auto before = obs::snapshot();
    ServeResult served;
    size_t window = 0;
    core::WallTimer clock;
    for (int cycle = 0; cycle < kMinCycles || clock.seconds() < args.seconds;
         ++cycle) {
        for (MapPhase &phase : phases)
            phase.round();
        const serve::LoadgenReport closed = loadgenWindow(
            args.dir, args.seed, window++, kClosedConnections,
            spec.serve.closedRequests, 0.0, pool, expected);
        served.closedRps.push_back(closed.throughputRps);
        served.closedSent += closed.sent;
        const auto openBefore = obs::snapshot();
        const serve::LoadgenReport open = loadgenWindow(
            args.dir, args.seed, window++, 1,
            static_cast<size_t>(spec.serve.rate * kOpenWindowSeconds),
            spec.serve.rate, pool, expected);
        const auto openAfter = obs::snapshot();
        served.p50Ms.push_back(static_cast<double>(open.p50Nanos) / 1e6);
        served.p99Ms.push_back(static_cast<double>(open.p99Nanos) / 1e6);
        served.sent += open.sent;
        served.ok += open.ok;
        served.shed += open.overloaded;
        served.expired += open.deadlineExceeded;
        served.openSeconds += open.wallSeconds;
        served.batches += counterDelta(openBefore, openAfter, "serve.batches");
        served.batchedReads +=
            counterDelta(openBefore, openAfter, "serve.batched_reads");
    }
    const auto after = obs::snapshot();
    const uint64_t shardLoads = counterDelta(before, after, "shard.loads");
    if (shardLoads != 0)
        throw CheckFailure("shard.loads = " + std::to_string(shardLoads) +
                           " during measured phases (expected 0)");
    for (const MapPhase &phase : phases) {
        if (phase.correctFrac() < phase.spec->minCorrect) {
            std::ostringstream what;
            what << phase.spec->label << ": correct_frac "
                 << phase.correctFrac() << " below the floor "
                 << phase.spec->minCorrect;
            throw CheckFailure(what.str());
        }
    }
    if (correctFraction(reference, truth.at(spec.serve.readSet)) <
        spec.serve.minCorrect)
        throw CheckFailure("serve: offline reference correct_frac below "
                           "the floor");

    const uint64_t attempted = phases[0].readsMapped +
                               phases[1].readsMapped + served.closedSent +
                               served.sent;
    const uint64_t failed = served.sent - served.ok;

    // ---- Report.
    const char *roles[2] = {"map1", "map2"};
    std::printf("workload %s seed %llu: map1=%s map2=%s serve=%s "
                "(%s, %zu component(s)), %zu cycles\n",
                spec.name, static_cast<unsigned long long>(args.seed),
                spec.map1.label, spec.map2.label, spec.serve.label,
                spec.sharded ? "shard set" : "monolith", spec.components,
                served.closedRps.size());
    for (int p = 0; p < 2; ++p) {
        std::printf("  %s %-12s %9.1f reads/s (median of rounds of %zu "
                    "reads) correct_frac %.4f; rounds:",
                    roles[p], phaseSpecs[p]->label,
                    median(phases[p].roundRates), phaseSpecs[p]->roundReads,
                    phases[p].correctFrac());
        for (const double rate : phases[p].roundRates)
            std::printf(" %.0f", rate);
        std::printf("\n");
    }
    std::printf("  serve %s closed loop (%zu connections): %.0f req/s; "
                "windows:",
                spec.serve.label, kClosedConnections,
                median(served.closedRps));
    for (const double rps : served.closedRps)
        std::printf(" %.0f", rps);
    std::printf("\n  serve open loop %.0f req/s: %llu sent, %llu ok; "
                "p50/p99 ms by window:",
                spec.serve.rate, static_cast<unsigned long long>(served.sent),
                static_cast<unsigned long long>(served.ok));
    for (size_t w = 0; w < served.p50Ms.size(); ++w)
        std::printf(" %.2f/%.2f", served.p50Ms[w], served.p99Ms[w]);
    std::vector<double> setupTotals;
    std::printf("\n  set-up s:");
    for (const SetupTimes &s : setups) {
        setupTotals.push_back(s.total);
        std::printf(" %.3f", s.total);
    }
    std::printf("\n");

    std::vector<Metric> metrics;
    if (!args.trace) {
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        metrics = {
            {"setup_s", median(setupTotals), "s"},
            {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
             "MiB"},
            {"map1.reads_per_s", median(phases[0].roundRates), "1/s"},
            {"map1.correct_frac", phases[0].correctFrac(), "fraction"},
            {"map2.reads_per_s", median(phases[1].roundRates), "1/s"},
            {"map2.correct_frac", phases[1].correctFrac(), "fraction"},
            {"serve.goodput_rps",
             static_cast<double>(served.ok) / served.openSeconds, "1/s"},
        };
    } else {
        // Per-layer numbers from the untraced measurement above.
        auto setupMedian = [&](double SetupTimes::*field) {
            std::vector<double> v;
            for (const SetupTimes &s : setups)
                v.push_back(s.*field);
            return median(v);
        };
        metrics = {
            {"graph.read_s", setupMedian(&SetupTimes::graphRead), "s"},
            {"index.minimizer_build_s",
             setupMedian(&SetupTimes::minimizerBuild), "s"},
            {"index.gbwt_build_s", setupMedian(&SetupTimes::gbwtBuild), "s"},
            {"store.write_s", setupMedian(&SetupTimes::storeWrite), "s"},
            {"store.load_s", setupMedian(&SetupTimes::storeLoad), "s"},
            {"store.shard_build_s", setupMedian(&SetupTimes::shardBuild),
             "s"},
            {"store.manifest_open_s",
             setupMedian(&SetupTimes::manifestOpen), "s"},
            {"pipeline.warm_s", setupMedian(&SetupTimes::warm), "s"},
            {"serve.ready_s", setupMedian(&SetupTimes::serveReady), "s"},
        };
        for (int p = 0; p < 2; ++p)
            addPhaseLayers(metrics, roles[p], phases[p]);
        auto count = [&](const char *name, double value) {
            metrics.push_back({name, value, "count"});
        };
        count("shard.loads", static_cast<double>(shardLoads));
        count("shard.hits",
              static_cast<double>(counterDelta(before, after, "shard.hits")));
        count("shard.cross_shard_reads",
              static_cast<double>(
                  counterDelta(before, after, "shard.cross_shard_reads")));
        metrics.push_back({"serve.saturation_rps", median(served.closedRps),
                           "1/s"});
        metrics.push_back({"serve.p50_ms", median(served.p50Ms), "ms"});
        metrics.push_back({"serve.p99_ms", median(served.p99Ms), "ms"});
        count("serve.reads_per_batch",
              static_cast<double>(served.batchedReads) /
                  static_cast<double>(std::max<uint64_t>(1, served.batches)));
        count("serve.batches", static_cast<double>(served.batches));
        metrics.push_back(
            {"serve.daemon_p50_ms",
             static_cast<double>(after.gauge("serve.request_nanos.p50")) /
                 1e6,
             "ms"});
        count("serve.sent", static_cast<double>(served.sent));
        count("serve.ok", static_cast<double>(served.ok));
        count("serve.shed", static_cast<double>(served.shed));
        count("serve.deadline_exceeded", static_cast<double>(served.expired));
        count("serve.errors", 0.0); // any ERROR fails the run

        // ---- Traced passes: same seed, tracing on, small read sets.
        const std::vector<seq::Sequence> sub1 =
            prefix(phases[0].reads, kTracedReads);
        double untraced = 1e30, traced = 1e30;
        for (int rep = 0; rep < 2; ++rep) {
            for (const bool on : {false, true}) {
                obs::enableTracing(on);
                obs::Span span("pipeline.map_batch");
                core::WallTimer timer;
                pipeline::mapBatch(*phases[0].context, phases[0].config,
                                   sub1);
                double &best = on ? traced : untraced;
                best = std::min(best, timer.seconds());
            }
        }
        obs::enableTracing(true);
        const std::vector<seq::Sequence> sub2 =
            prefix(phases[1].reads, kTracedReads);
        {
            obs::Span span("pipeline.map_batch");
            pipeline::mapBatch(*phases[1].context, phases[1].config, sub2);
        }
        {
            obs::Span span("serve.loadgen");
            loadgenWindow(args.dir, args.seed, window++, 1,
                          static_cast<size_t>(spec.serve.rate), spec.serve.rate,
                          pool, expected);
        }
        obs::enableTracing(false);
        const std::vector<obs::SpanEvent> events = obs::traceEvents();
        const SelfTimes self = selfTimes(events);
        double batchNanos = 0.0, batchCount = 0.0;
        for (const obs::SpanEvent &e : events) {
            if (std::strcmp(e.name, "serve.batch") == 0) {
                batchNanos += static_cast<double>(e.durationNanos);
                batchCount += 1.0;
            }
        }
        metrics.push_back({"serve.batch_busy_ms",
                           batchNanos / 1e6 / std::max(1.0, batchCount),
                           "ms"});

        const KernelRates kernels = replayKernels(
            spec.map1, deployment->contexts.at(spec.map1.seeder),
            phases[0].reads, threads);
        metrics.push_back(
            {"align.gssw.cells_per_s", kernels.gsswCellsPerSec, "1/s"});
        metrics.push_back(
            {"align.gbv.cells_per_s", kernels.gbvCellsPerSec, "1/s"});

        for (const char *layer : kLayers)
            metrics.push_back({std::string("self.") + layer + "_s",
                               self.byLayer.at(layer), "s"});
        metrics.push_back(
            {"trace.overhead_frac", traced / untraced - 1.0, "fraction"});
        count("trace.events", static_cast<double>(events.size()));
        count("trace.dropped_spans",
              static_cast<double>(obs::traceDroppedCount()));

        std::printf("  self time by span (traced set-up, %zu+%zu traced "
                    "reads, 1 s traced open-loop window):\n",
                    sub1.size() * 2, sub2.size());
        for (const auto &[name, secs] : self.bySpan)
            std::printf("    %-24s %10.4f s\n", name.c_str(), secs);
        std::printf("  kernel replay: %zu captured %s alignments\n",
                    kernels.traces, spec.map1.label);
        std::printf(
            "  absent here (reported as 0): %s\n",
            spec.sharded
                ? "index.minimizer_build_s index.gbwt_build_s "
                  "store.write_s store.load_s self.index_s -- "
                  "store::buildShardSet builds and writes every index "
                  "in one call, timed as store.shard_build_s"
                : "store.shard_build_s store.manifest_open_s shard.* -- "
                  "a monolithic .pgbi has no shards");
        if (obs::traceDroppedCount() != 0)
            throw CheckFailure("trace overflowed: " +
                               std::to_string(obs::traceDroppedCount()) +
                               " spans dropped");
    }

    const CpuJiffies cpuEnd = readCpuJiffies();
    const double steal =
        cpuEnd.total > cpuStart.total
            ? static_cast<double>(cpuEnd.steal - cpuStart.steal) /
                  static_cast<double>(cpuEnd.total - cpuStart.total)
            : 0.0;
    std::printf("noise: seed=%llu inputs_md5=%s nproc=%u map_threads=%u "
                "serve_threads=%u simd=%s host.steal_frac=%.4f\n",
                static_cast<unsigned long long>(args.seed), digest.c_str(),
                cpus, threads, kServeThreads,
                align::simdLevelName(align::activeSimdLevel()), steal);
    if (args.trace)
        metrics.push_back({"host.steal_frac", steal, "fraction"});
    printResult(true, attempted, failed, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        if (args.mode == "gen") {
            generateInputs(workloadByName(args.workload), args.seed,
                           args.dir);
            return 0;
        }
        if (args.mode != "run")
            core::fatal("e2ebench: unknown mode '", args.mode, "'");
        return runWorkload(args);
    } catch (const CheckFailure &failure) {
        std::fprintf(stderr, "e2ebench: check failed: %s\n", failure.what());
        std::fflush(stderr);
        printResult(false, 1, 1, {});
        return 1;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "e2ebench: %s\n", error.what());
        return 1;
    }
}
