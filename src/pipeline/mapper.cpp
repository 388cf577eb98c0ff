#include "pipeline/mapper.hpp"

#include <algorithm>
#include <mutex>

#include "align/gbv.hpp"
#include "align/gssw.hpp"
#include "align/gwfa.hpp"
#include "align/ssw.hpp"
#include "align/ssw_batch.hpp"
#include "align/wfa.hpp"
#include "core/fault.hpp"
#include "core/logging.hpp"
#include "core/scratch.hpp"
#include "core/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace pgb::pipeline {

namespace {

/** Injects a per-read failure inside the mapping worker loop. */
core::FaultSite faultMapRead(
    "mapper.read", "FatalError on the calling thread; run fails closed");

obs::Counter obsReads("mapper.reads");
obs::Counter obsReadsMapped("mapper.reads_mapped");
obs::Counter obsAnchors("mapper.anchors");
obs::Counter obsClusters("mapper.clusters");
obs::Counter obsAlignments("mapper.alignments");

/**
 * Per-thread alignment-stage buffers (core::threadScratch): the
 * extracted subgraph, the GSSW result with its matrix buffer, and the
 * query strands. Each task overwrites them and keeps their capacity,
 * so the steady-state align stage stays off malloc.
 */
struct AlignScratch
{
    graph::LocalGraph subgraph;
    align::GsswResult gssw;
    std::vector<uint8_t> reverseQuery; ///< reverse complement of a read
    std::vector<uint8_t> gapQuery;     ///< GWFA gap-bridging query
};

} // namespace

const char *
toolName(ToolProfile profile)
{
    switch (profile) {
      case ToolProfile::kVgMap: return "VgMap";
      case ToolProfile::kVgGiraffe: return "VgGiraffe";
      case ToolProfile::kGraphAligner: return "GraphAligner";
      case ToolProfile::kMinigraph: return "Minigraph";
    }
    return "?";
}

KernelInfo
kernelOf(ToolProfile profile)
{
    switch (profile) {
      case ToolProfile::kVgMap: return {"GSSW", core::Stage::kAlign};
      case ToolProfile::kVgGiraffe: return {"GBWT", core::Stage::kFilter};
      case ToolProfile::kGraphAligner: return {"GBV", core::Stage::kAlign};
      case ToolProfile::kMinigraph:
        return {"GWFA", core::Stage::kClusterChain};
    }
    return {"?", core::Stage::kAlign};
}

MapperConfig
MapperConfig::forTool(ToolProfile tool)
{
    MapperConfig config;
    config.profile = tool;
    switch (tool) {
      case ToolProfile::kVgMap:
        config.maxAlignments = 4; // thorough: many candidate DPs
        break;
      case ToolProfile::kVgGiraffe:
        config.maxAlignments = 1; // extension of the one survivor
        config.radiusFactor = 0.7;
        break;
      case ToolProfile::kGraphAligner:
        config.maxAlignments = 1;
        config.radiusFactor = 1.05;
        config.gbvBand = 48; // GraphAligner's banded bit-vector DP
        break;
      case ToolProfile::kMinigraph:
        break;
    }
    return config;
}

void
checkConfig(const MappingContext &context, const MapperConfig &config)
{
    if (config.k != context.k() || config.w != context.w()) {
        core::fatal("mapper: config k/w (", config.k, "/", config.w,
                    ") do not match the context's index (",
                    context.k(), "/", context.w(), ")");
    }
    if (config.profile == ToolProfile::kVgGiraffe && !context.hasGbwt()) {
        core::fatal("mapper: the giraffe profile needs a GBWT, but "
                    "the mapping context has none (build the context "
                    "with a GBWT or re-run pgb index)");
    }
}

namespace {

/**
 * The Figure 1 pipeline for one config over a context it borrows:
 * each mapBatch call and each trace capture makes one and drops it
 * before returning.
 */
class ReadPipeline
{
  public:
    struct AlignTask
    {
        graph::Handle seedHandle;
        uint32_t seedOffset = 0;
        bool reverse = false;
        /** Query offset (on the aligned strand) of the seed node's
         *  start; minigraph's query-global GWFA starts here. */
        uint32_t queryStart = 0;
        uint64_t linearLo = 0, linearHi = 0;
    };

    ReadPipeline(const MappingContext &context, const MapperConfig &config)
        : context_(context), config_(config)
    {
    }

    /** Map a batch (thread-parallel over reads); fills @p mappings in
     *  input order when non-null. */
    MappingStats mapReads(std::span<const seq::Sequence> reads,
                          std::vector<ReadMapping> *mappings) const;

    /** Map one read; stage times charged to @p stats. The read pins
     *  each shard it touches once, for its whole duration. */
    ReadMapping mapOne(const seq::Sequence &read,
                       MappingStats &stats) const;

    /** Seed + cluster/chain + filter; emits alignment tasks. Every
     *  shard the read touches is pinned in @p pins. */
    std::vector<AlignTask> planAlignments(PinSet &pins,
                                          const seq::Sequence &read,
                                          MappingStats &stats) const;

    /** Extraction radius for an alignment task (see contextSteps). */
    size_t taskRadius(const AlignTask &task, size_t read_length) const;

    /** The read-side source every stage goes through (node ids are
     *  global; a monolith is a shard set of one). */
    const GraphSource &source() const { return context_.source(); }

    /** The kernel share a @p stage scope charges, if it has one. */
    double *
    kernelShare(MappingStats &stats, core::Stage stage) const
    {
        return kernelOf(config_.profile).stage == stage
            ? &stats.kernelSeconds : nullptr;
    }

  private:
    const MappingContext &context_;
    MapperConfig config_;
};

} // namespace

std::vector<ReadPipeline::AlignTask>
ReadPipeline::planAlignments(PinSet &pins, const seq::Sequence &read,
                             MappingStats &stats) const
{
    // Per-read planning buffers, one set per thread for the process
    // lifetime (core::threadScratch): anchors and chains are cleared
    // per read but keep their heap allocations, so the steady-state
    // planning path stays off malloc. AlignTask copies plain values,
    // so nothing escapes the borrowing task.
    struct PlanScratch
    {
        std::vector<Anchor> anchors;
        std::vector<AnchorChain> chains;
    };
    PlanScratch &ws = core::threadScratch<PlanScratch>();

    // ---- Seeding.
    std::vector<Anchor> &anchors = ws.anchors;
    {
        obs::StageClock clock(stats.timers, core::Stage::kSeed);
        context_.seeder().collect(pins, read, anchors);
        stats.anchors += anchors.size();
        obsAnchors.add(anchors.size());
    }
    if (anchors.empty())
        return {};

    // ---- Clustering / chaining.
    std::vector<AnchorChain> &chains = ws.chains;
    {
        obs::StageClock clock(stats.timers, core::Stage::kClusterChain);
        switch (config_.profile) {
          case ToolProfile::kMinigraph: {
            ChainParams params;
            chainAnchorsInto(anchors, params, chains);
            break;
          }
          case ToolProfile::kGraphAligner:
            // GraphAligner: lightweight clustering, wide bands.
            clusterAnchorsInto(anchors, 512, chains);
            break;
          default:
            clusterAnchorsInto(anchors, 128, chains);
            break;
        }
        // Drop weak clusters.
        chains.erase(
            std::remove_if(chains.begin(), chains.end(),
                           [&](const AnchorChain &chain) {
                               return chain.anchorIds.size() <
                                      config_.minClusterAnchors;
                           }),
            chains.end());
        stats.clusters += chains.size();
        obsClusters.add(chains.size());
    }
    if (chains.empty())
        return {};

    // Minigraph: GWFA gap bridging inside the chaining stage (the
    // extracted kernel; paper: 47-75% of cluster/chain time).
    if (config_.profile == ToolProfile::kMinigraph) {
        obs::StageClock clock(stats.timers, core::Stage::kClusterChain,
                              &stats.kernelSeconds);
        AlignScratch &scratch = core::threadScratch<AlignScratch>();
        const AnchorChain &best = chains.front();
        const auto &codes = read.codes();
        for (size_t i = 0; i + 1 < best.anchorIds.size(); ++i) {
            const Anchor &a = anchors[best.anchorIds[i]];
            const Anchor &b = anchors[best.anchorIds[i + 1]];
            // Gap on the strand the alignment runs on; reverse chains
            // retreat on forward-read coordinates.
            const uint64_t query_gap = best.reverse
                ? (a.queryPos > b.queryPos ? a.queryPos - b.queryPos
                                           : 0)
                : (b.queryPos > a.queryPos ? b.queryPos - a.queryPos
                                           : 0);
            if (query_gap < config_.gwfaGapThreshold)
                continue;
            // Bridge the anchors through the graph with GWFA.
            uint32_t origin = 0;
            source().extractSubgraph(pins, graph::Handle(a.node, false),
                                     query_gap * 2 + 64,
                                     scratch.subgraph, &origin);
            std::vector<uint8_t> &gap_query = scratch.gapQuery;
            if (best.reverse) {
                // The aligned strand is the reverse complement: the
                // gap content is rc(read[b.q .. a.q)).
                gap_query.resize(a.queryPos - b.queryPos);
                seq::reverseComplementInto(
                    std::span<const uint8_t>(codes).subspan(
                        b.queryPos, gap_query.size()),
                    gap_query);
            } else {
                gap_query.assign(codes.begin() + a.queryPos,
                                 codes.begin() + b.queryPos);
            }
            align::gwfaAlign(scratch.subgraph, gap_query, origin,
                             static_cast<int32_t>(query_gap),
                             a.nodeOffset);
        }
    }

    // ---- Filtering (giraffe: GBWT haplotype-consistent extension).
    std::vector<AlignTask> tasks;
    {
        obs::StageClock clock(stats.timers, core::Stage::kFilter,
                              kernelShare(stats, core::Stage::kFilter));
        size_t taken = 0;
        for (const AnchorChain &chain : chains) {
            if (taken >= config_.maxAlignments)
                break;
            const Anchor &mid =
                anchors[chain.anchorIds[chain.anchorIds.size() / 2]];
            // Minigraph starts its query-global walk at the chain's
            // graph-first anchor.
            const Anchor *first = &mid;
            if (config_.profile == ToolProfile::kMinigraph) {
                for (uint32_t id : chain.anchorIds) {
                    if (anchors[id].linearPos < first->linearPos)
                        first = &anchors[id];
                }
            }
            if (config_.profile == ToolProfile::kVgGiraffe) {
                // Extend every seed of the cluster along haplotypes;
                // clusters whose seeds have no haplotype-consistent
                // extension are filtered out (Figure 4c). This
                // per-seed GBWT walking is the stage that dominates
                // giraffe's runtime (paper Figure 2).
                size_t supported = 0;
                size_t tried = 0;
                for (uint32_t anchor_id : chain.anchorIds) {
                    if (++tried > 64)
                        break;
                    // The walk hands back the GBWT of the anchor's
                    // shard (pinned by this read) with the anchor's id
                    // in its space; a haplotype walk never leaves a
                    // connected component, so the shard-local walk
                    // equals the monolithic one.
                    const GbwtWalk walk = source().gbwtWalkAt(
                        pins, anchors[anchor_id].node);
                    if (walk.gbwt == nullptr)
                        continue; // no haplotypes recorded here
                    const index::GbwtBestWalk best = walk.gbwt->walkBest(
                        walk.start, config_.gbwtExtensionSteps);
                    supported += best.steps > 0 ? 1 : 0;
                }
                if (supported == 0)
                    continue; // no haplotype takes this cluster
            }
            AlignTask task;
            if (config_.profile == ToolProfile::kMinigraph) {
                task.seedHandle = graph::Handle(first->node, false);
                task.seedOffset = first->nodeOffset;
                task.linearLo = first->linearPos;
                // Query position of the seed node's *start*, on the
                // strand the alignment runs on.
                const auto k = static_cast<uint32_t>(config_.k);
                uint32_t qpos = first->queryPos;
                if (chain.reverse) {
                    const auto len =
                        static_cast<uint32_t>(read.size());
                    qpos = len >= qpos + k ? len - qpos - k : 0;
                }
                task.queryStart = qpos;
            } else {
                task.seedHandle = graph::Handle(mid.node, false);
                task.seedOffset = mid.nodeOffset;
                uint64_t lo = UINT64_MAX, hi = 0;
                for (uint32_t id : chain.anchorIds) {
                    lo = std::min(lo, anchors[id].linearPos);
                    hi = std::max(hi, anchors[id].linearPos +
                                          config_.k);
                }
                task.linearLo = lo;
                task.linearHi = hi;
            }
            task.reverse = chain.reverse;
            tasks.push_back(task);
            ++taken;
        }
    }
    return tasks;
}

size_t
ReadPipeline::taskRadius(const AlignTask &task, size_t read_length) const
{
    if (config_.profile == ToolProfile::kMinigraph) {
        // Minigraph aligns the query-global suffix; span by length.
        return static_cast<size_t>(
            static_cast<double>(read_length) * config_.radiusFactor);
    }
    // Cluster span plus step-granular context (vg's context depth).
    const uint64_t span = task.linearHi > task.linearLo
        ? task.linearHi - task.linearLo : 0;
    const auto context = static_cast<size_t>(
        config_.contextSteps * context_.avgNodeLength());
    const size_t base = std::max<size_t>(
        span / 2, static_cast<size_t>(
                      static_cast<double>(read_length) *
                      config_.radiusFactor / 2.0));
    return base + context;
}

ReadMapping
ReadPipeline::mapOne(const seq::Sequence &read, MappingStats &stats) const
{
    ReadMapping mapping;
    PinSet pins(source());
    const auto tasks = planAlignments(pins, read, stats);
    if (tasks.empty())
        return mapping;

    AlignScratch &scratch = core::threadScratch<AlignScratch>();
    scratch.reverseQuery.resize(read.size());
    seq::reverseComplementInto(read.codes(), scratch.reverseQuery);
    graph::LocalGraph &sub = scratch.subgraph;

    obs::StageClock clock(stats.timers, core::Stage::kAlign,
                          kernelShare(stats, core::Stage::kAlign));
    for (const AlignTask &task : tasks) {
        ++stats.alignments;
        obsAlignments.add();
        const std::span<const uint8_t> query =
            task.reverse ? std::span<const uint8_t>(scratch.reverseQuery)
                         : std::span<const uint8_t>(read.codes());
        uint32_t origin = 0;
        source().extractSubgraph(pins, task.seedHandle,
                                 taskRadius(task, read.size()), sub,
                                 &origin);
        int32_t score = 0;
        uint32_t node = task.seedHandle.node();
        switch (config_.profile) {
          case ToolProfile::kVgMap:
          case ToolProfile::kVgGiraffe: {
            align::GsswOptions options;
            // giraffe's extension alignment avoids full traceback
            // matrices; vg map keeps them.
            options.keepMatrices =
                config_.profile == ToolProfile::kVgMap;
            align::gsswAlignInto(sub, query,
                                 align::ScoreParams::mappingDefaults(),
                                 options, scratch.gssw);
            score = scratch.gssw.best.score;
            node = task.seedHandle.node();
            break;
          }
          case ToolProfile::kGraphAligner: {
            align::GbvOptions options;
            options.band = config_.gbvBand;
            const auto result = align::gbvAlign(sub, query, options);
            // Convert edit distance to a score-like quantity.
            score = static_cast<int32_t>(query.size()) -
                    result.distance;
            break;
          }
          case ToolProfile::kMinigraph: {
            // Final base-level refinement with the wavefront kernel
            // through the graph region: query-global from the chain's
            // first anchor, so align the read suffix that starts at
            // the seed node's start.
            const size_t start = std::min<size_t>(task.queryStart,
                                                  query.size() - 1);
            const std::span<const uint8_t> suffix(
                query.data() + start, query.size() - start);
            const auto result = align::gwfaAlign(
                sub, suffix, origin,
                static_cast<int32_t>(suffix.size() / 2 + 32),
                task.seedOffset);
            score = result.reached
                ? static_cast<int32_t>(suffix.size()) -
                      result.distance
                : 0;
            break;
          }
        }
        if (score > mapping.score) {
            mapping.score = score;
            mapping.node = node;
            mapping.reverse = task.reverse;
            mapping.mapped = true;
        }
    }
    // Require a minimally convincing alignment.
    if (mapping.score <
        static_cast<int32_t>(read.size()) / 4) {
        mapping.mapped = false;
    }
    return mapping;
}

MappingStats
ReadPipeline::mapReads(std::span<const seq::Sequence> reads,
                       std::vector<ReadMapping> *mappings) const
{
    MappingStats total;
    total.kernelName = kernelOf(config_.profile).name;
    obsReads.add(reads.size());
    if (mappings != nullptr)
        mappings->assign(reads.size(), ReadMapping{});

    std::mutex merge_lock;
    core::parallelFor(0, reads.size(), config_.threads, [&](size_t i) {
        if (faultMapRead.fire()) {
            core::fatal("mapper: injected fault processing read '",
                        reads[i].name(), "'");
        }
        obs::Span span("mapper.read");
        MappingStats local;
        local.reads = 1;
        const ReadMapping mapping = mapOne(reads[i], local);
        if (mappings != nullptr)
            (*mappings)[i] = mapping;
        if (mapping.mapped) {
            local.mappedReads = 1;
            obsReadsMapped.add();
        }
        std::lock_guard<std::mutex> lock(merge_lock);
        total += local;
    });
    return total;
}

MappingStats
mapBatch(const MappingContext &context, const MapperConfig &config,
         std::span<const seq::Sequence> reads)
{
    checkConfig(context, config);
    return ReadPipeline(context, config).mapReads(reads, nullptr);
}

MappingStats
mapBatch(const MappingContext &context, const MapperConfig &config,
         std::span<const seq::Sequence> reads,
         std::vector<ReadMapping> &mappings)
{
    checkConfig(context, config);
    return ReadPipeline(context, config).mapReads(reads, &mappings);
}

Seq2GraphMapper::Seq2GraphMapper(
    std::shared_ptr<const MappingContext> context, MapperConfig config)
    : context_(std::move(context)), config_(config)
{
    if (context_ == nullptr)
        core::fatal("mapper: null mapping context");
    checkConfig(*context_, config_);
}

std::vector<GsswTrace>
Seq2GraphMapper::captureAlignTraces(std::span<const seq::Sequence> reads,
                                    size_t max_traces) const
{
    const ReadPipeline pipeline(*context_, config_);
    std::vector<GsswTrace> traces;
    MappingStats stats;
    for (const seq::Sequence &read : reads) {
        if (traces.size() >= max_traces)
            break;
        PinSet pins(pipeline.source());
        const auto tasks = pipeline.planAlignments(pins, read, stats);
        const seq::Sequence rc = read.reverseComplement();
        for (const auto &task : tasks) {
            if (traces.size() >= max_traces)
                break;
            GsswTrace trace;
            pipeline.source().extractSubgraph(
                pins, task.seedHandle,
                pipeline.taskRadius(task, read.size()), trace.subgraph);
            trace.query = task.reverse ? rc.codes() : read.codes();
            traces.push_back(std::move(trace));
        }
    }
    return traces;
}

std::vector<GwfaTrace>
Seq2GraphMapper::captureGwfaTraces(std::span<const seq::Sequence> reads,
                                   size_t max_traces) const
{
    const GraphSource &source = context_->source();
    std::vector<GwfaTrace> traces;
    for (const seq::Sequence &read : reads) {
        if (traces.size() >= max_traces)
            break;
        PinSet pins(source);
        std::vector<Anchor> anchors;
        source.seeder().collect(pins, read, anchors);
        if (anchors.empty())
            continue;
        ChainParams params;
        const auto chains = chainAnchors(anchors, params);
        if (chains.empty())
            continue;
        const AnchorChain &best = chains.front();
        if (best.reverse)
            continue; // forward-strand traces are representative
        const auto &codes = read.codes();
        for (size_t i = 0; i + 1 < best.anchorIds.size() &&
                           traces.size() < max_traces; ++i) {
            const Anchor &a = anchors[best.anchorIds[i]];
            const Anchor &b = anchors[best.anchorIds[i + 1]];
            const uint64_t query_gap =
                b.queryPos > a.queryPos ? b.queryPos - a.queryPos : 0;
            if (query_gap < config_.gwfaGapThreshold)
                continue;
            GwfaTrace trace;
            source.extractSubgraph(pins, graph::Handle(a.node, false),
                                  query_gap * 2 + 64, trace.subgraph,
                                  &trace.startNode);
            trace.query.assign(
                codes.begin() + a.queryPos,
                codes.begin() + std::min<size_t>(b.queryPos,
                                                 codes.size()));
            traces.push_back(std::move(trace));
        }
    }
    return traces;
}

// ---------------------------------------------------------------------
// Seq2Seq baseline
// ---------------------------------------------------------------------

Seq2SeqMapper::Seq2SeqMapper(const seq::Sequence &reference, int k, int w)
    : reference_(reference), k_(k), w_(w)
{
    for (const index::Minimizer &mini :
         index::computeMinimizers(reference.codes(), k, w)) {
        // Pack (position, canonical strand) per occurrence.
        table_[mini.hash].push_back((mini.position << 1) |
                                    (mini.reverse ? 1u : 0u));
    }
}

Seq2SeqMapper::Window
Seq2SeqMapper::bestWindow(const seq::Sequence &read,
                          MappingStats *stats) const
{
    Window window;
    MappingStats scratch;
    MappingStats &target = stats != nullptr ? *stats : scratch;

    // Same-strand hits vote on diagonals (t - q); opposite-strand
    // hits vote on anti-diagonals (t + q), which are constant along a
    // reverse-complement alignment.
    std::unordered_map<int64_t, uint32_t> fwd_votes, rev_votes;
    int64_t best_diag = 0;
    uint32_t best_votes = 0;
    bool best_reverse = false;
    {
        obs::StageClock clock(target.timers, core::Stage::kSeed);
        for (const index::Minimizer &mini :
             index::computeMinimizers(read.codes(), k_, w_)) {
            auto it = table_.find(mini.hash);
            if (it == table_.end() || it->second.size() > 64)
                continue;
            ++target.anchors;
            for (uint32_t packed : it->second) {
                const uint32_t pos = packed >> 1;
                const bool ref_strand = packed & 1;
                const bool opposite = ref_strand != mini.reverse;
                const int64_t diag = opposite
                    ? static_cast<int64_t>(pos) + mini.position
                    : static_cast<int64_t>(pos) - mini.position;
                auto &votes_map = opposite ? rev_votes : fwd_votes;
                const uint32_t votes = ++votes_map[diag / 64];
                if (votes > best_votes) {
                    best_votes = votes;
                    best_diag = diag;
                    best_reverse = opposite;
                }
            }
        }
    }
    {
        obs::StageClock clock(target.timers, core::Stage::kClusterChain);
        if (best_votes < 2)
            return window;
        const auto read_len = static_cast<int64_t>(read.size());
        const int64_t margin = read_len / 8 + 32;
        // For reverse mappings the window spans [antidiag - len,
        // antidiag]; for forward ones [diag, diag + len].
        int64_t begin = best_reverse ? best_diag - read_len - margin
                                     : best_diag - margin;
        int64_t end = begin + read_len + 2 * margin;
        begin = std::max<int64_t>(begin, 0);
        end = std::min<int64_t>(end,
                                static_cast<int64_t>(reference_.size()));
        if (begin >= end)
            return window;
        window.found = true;
        window.begin = static_cast<uint64_t>(begin);
        window.end = static_cast<uint64_t>(end);
        window.reverse = best_reverse;
    }
    return window;
}

MappingStats
Seq2SeqMapper::mapReads(std::span<const seq::Sequence> reads,
                        unsigned threads) const
{
    MappingStats total;
    total.reads = reads.size();
    total.kernelName = "SSW";

    // Phase 1 (parallel): window search and strand selection per read.
    // Canonical minimizers place reverse-strand reads too, so the
    // window search runs once and the right strand is aligned in it.
    // Plans are preallocated so workers fill disjoint slots.
    struct ReadPlan
    {
        Window window;
        std::vector<uint8_t> rc; ///< reverse-complement codes, if used
    };
    std::vector<ReadPlan> plans(reads.size());
    std::mutex merge_lock;
    core::parallelFor(0, reads.size(), threads, [&](size_t i) {
        MappingStats local;
        ReadPlan &plan = plans[i];
        plan.window = bestWindow(reads[i], &local);
        if (plan.window.found && plan.window.reverse)
            plan.rc = reads[i].reverseComplement().codes();
        std::lock_guard<std::mutex> lock(merge_lock);
        total += local;
    });

    // Phase 2: one inter-sequence batched SSW pass over every read
    // that found a window. The batch packs length-bucketed reads into
    // the SIMD lanes (align/ssw_batch.hpp), so lane occupancy no
    // longer depends on any single read's length; results land in job
    // order regardless of thread count.
    std::vector<align::BatchJob> jobs;
    std::vector<size_t> job_read;
    jobs.reserve(reads.size());
    job_read.reserve(reads.size());
    for (size_t i = 0; i < reads.size(); ++i) {
        const ReadPlan &plan = plans[i];
        if (!plan.window.found)
            continue;
        align::BatchJob job;
        job.query = plan.window.reverse
            ? std::span<const uint8_t>(plan.rc)
            : std::span<const uint8_t>(reads[i].codes());
        job.reference = std::span<const uint8_t>(
            reference_.codes().data() + plan.window.begin,
            plan.window.end - plan.window.begin);
        jobs.push_back(job);
        job_read.push_back(i);
    }
    std::vector<align::LocalHit> hits(jobs.size());
    {
        obs::StageClock clock(total.timers, core::Stage::kAlign,
                              &total.kernelSeconds);
        align::sswAlignBatch(jobs,
                             align::ScoreParams::mappingDefaults(),
                             hits, threads);
    }
    uint64_t mapped = 0;
    for (size_t j = 0; j < jobs.size(); ++j) {
        const auto read_size = reads[job_read[j]].size();
        if (hits[j].score > static_cast<int32_t>(read_size) / 4)
            ++mapped;
    }
    total.alignments = jobs.size();
    total.mappedReads = mapped;
    return total;
}

std::vector<Seq2SeqMapper::SswTrace>
Seq2SeqMapper::captureSswTraces(std::span<const seq::Sequence> reads,
                                size_t max_traces) const
{
    std::vector<SswTrace> traces;
    for (const seq::Sequence &read : reads) {
        if (traces.size() >= max_traces)
            break;
        const Window window = bestWindow(read, nullptr);
        if (!window.found)
            continue;
        SswTrace trace;
        trace.query = window.reverse
            ? read.reverseComplement().codes() : read.codes();
        trace.window.assign(
            reference_.codes().begin() +
                static_cast<ptrdiff_t>(window.begin),
            reference_.codes().begin() +
                static_cast<ptrdiff_t>(window.end));
        traces.push_back(std::move(trace));
    }
    return traces;
}

} // namespace pgb::pipeline
