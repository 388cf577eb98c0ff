/**
 * @file
 * End-to-end Seq2Graph mapping pipelines (paper Figure 1) and the
 * Seq2Seq baseline.
 *
 * One mapping loop, entered through mapBatch() (context.hpp), drives
 * the four tool profiles the paper analyzes; each profile allocates
 * its effort across the seed / cluster-chain / filter / align stages
 * exactly as the paper characterizes (Figure 2):
 *
 *  - VgMap:        effort spread across stages, GSSW alignment
 *  - VgGiraffe:    heavyweight GBWT haplotype filtering, light align
 *  - GraphAligner: minimal clustering, GBV dominates in alignment
 *  - Minigraph:    chaining with a 2-D DP whose gap bridging is the
 *                  GWFA kernel; final base-level WFA
 *
 * Each stage is one obs::StageClock scope; the one that contains the
 * profile's kernel (kernelOf()) also charges Figure 2's yellow arc,
 * MappingStats::kernelSeconds.
 */

#ifndef PGB_PIPELINE_MAPPER_HPP
#define PGB_PIPELINE_MAPPER_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/timer.hpp"
#include "graph/pangraph.hpp"
#include "index/gbwt.hpp"
#include "index/minimizer.hpp"
#include "pipeline/chain.hpp"
#include "pipeline/context.hpp"
#include "seq/sequence.hpp"

namespace pgb::pipeline {

/** The four Seq2Graph tools of the paper. */
enum class ToolProfile
{
    kVgMap,
    kVgGiraffe,
    kGraphAligner,
    kMinigraph,
};

/** Printable tool name. */
const char *toolName(ToolProfile profile);

/** A tool's Table 4 kernel and the Figure 2 stage that contains it. */
struct KernelInfo
{
    const char *name;
    core::Stage stage;
};
KernelInfo kernelOf(ToolProfile profile);

/** Mapper configuration. */
struct MapperConfig
{
    ToolProfile profile = ToolProfile::kVgMap;
    int k = 15;
    int w = 10;
    unsigned threads = 1;
    /** Clusters/chains forwarded to alignment (filtering strength). */
    size_t maxAlignments = 2;
    /** Subgraph radius around a seed, as a multiple of read length. */
    double radiusFactor = 1.2;
    /** Minimum anchors for a cluster to survive. */
    size_t minClusterAnchors = 2;
    /** GBWT extension depth for the giraffe filter. */
    size_t gbwtExtensionSteps = 16;
    /** Gap (bases) between chained anchors that triggers GWFA. */
    uint64_t gwfaGapThreshold = 16;
    /** GBV score band (GraphAligner profile); 0 = exact. */
    int32_t gbvBand = 0;
    /**
     * Context expansion around a cluster, in *node steps* (vg's
     * context depth): the extracted subgraph spans the cluster's
     * anchors plus contextSteps nodes of flank. Step-granular context
     * is why finer-node graphs yield smaller subgraphs (the paper's
     * §6.2 Split-M-graph effect).
     */
    uint32_t contextSteps = 6;

    /**
     * Per-tool defaults reflecting each tool's accuracy/performance
     * trade-off (paper §2.1): vg map aligns many candidates with full
     * matrices; giraffe extends a single haplotype-filtered candidate
     * cheaply; GraphAligner aligns one cluster but with the expensive
     * full-width bit-vector DP.
     */
    static MapperConfig forTool(ToolProfile tool);
};

/** Mapping outcome for one read. */
struct ReadMapping
{
    bool mapped = false;
    int32_t score = 0;
    uint32_t node = 0;
    bool reverse = false;
};

/** Aggregate statistics for a batch (Figure 2's inputs). */
struct MappingStats
{
    core::StageTimes timers; ///< seed / cluster_chain / filter / align
    double kernelSeconds = 0.0; ///< the extracted kernel's share
    const char *kernelName = ""; ///< set once per batch from the profile
    uint64_t reads = 0;
    uint64_t mappedReads = 0;
    uint64_t anchors = 0;
    uint64_t clusters = 0;
    uint64_t alignments = 0;

    /** Sum every count and time of @p other; its kernel name wins. */
    MappingStats &
    operator+=(const MappingStats &other)
    {
        timers += other.timers;
        kernelSeconds += other.kernelSeconds;
        if (other.kernelName[0] != '\0')
            kernelName = other.kernelName;
        reads += other.reads;
        mappedReads += other.mappedReads;
        anchors += other.anchors;
        clusters += other.clusters;
        alignments += other.alignments;
        return *this;
    }
};

/** Captured GSSW kernel inputs (the paper's Table 3 trace datasets). */
struct GsswTrace
{
    graph::LocalGraph subgraph;
    std::vector<uint8_t> query;
};

/** Captured GBV kernel inputs. */
using GbvTrace = GsswTrace;

/** Captured GWFA kernel inputs. */
struct GwfaTrace
{
    graph::LocalGraph subgraph;
    std::vector<uint8_t> query;
    uint32_t startNode = 0;
};

/**
 * Trace-capture handle over a shared MappingContext (the paper's
 * dataset-capture method, §4.2). Mapping itself goes through
 * mapBatch() (context.hpp), the one entry point; this class only runs
 * the pipeline up to a kernel and records the kernel's inputs.
 */
class Seq2GraphMapper
{
  public:
    /**
     * Capture against @p context with @p config; fatal on a null
     * context or on a config checkConfig() rejects.
     */
    Seq2GraphMapper(std::shared_ptr<const MappingContext> context,
                    MapperConfig config);

    /**
     * Run the pipeline up to the alignment stage and record the kernel
     * inputs instead of aligning: GSSW/GBV subgraph+query traces.
     */
    std::vector<GsswTrace>
    captureAlignTraces(std::span<const seq::Sequence> reads,
                       size_t max_traces) const;

    /** Capture GWFA gap-bridging traces (minigraph profile). */
    std::vector<GwfaTrace>
    captureGwfaTraces(std::span<const seq::Sequence> reads,
                      size_t max_traces) const;

  private:
    std::shared_ptr<const MappingContext> context_;
    MapperConfig config_;
};

/** BWA-MEM2-like Seq2Seq baseline (Table 1's last column). */
class Seq2SeqMapper
{
  public:
    Seq2SeqMapper(const seq::Sequence &reference, int k, int w);

    MappingStats mapReads(std::span<const seq::Sequence> reads,
                          unsigned threads) const;

    /** Capture SSW traces (reference windows + reads) for §6.1. */
    struct SswTrace
    {
        std::vector<uint8_t> query;
        std::vector<uint8_t> window;
    };
    std::vector<SswTrace>
    captureSswTraces(std::span<const seq::Sequence> reads,
                     size_t max_traces) const;

  private:
    struct Window
    {
        bool found = false;
        uint64_t begin = 0, end = 0;
        bool reverse = false;
    };
    Window bestWindow(const seq::Sequence &read,
                      MappingStats *stats) const;

    const seq::Sequence &reference_;
    int k_, w_;
    std::unordered_map<uint64_t, std::vector<uint32_t>> table_;
};

} // namespace pgb::pipeline

#endif // PGB_PIPELINE_MAPPER_HPP
