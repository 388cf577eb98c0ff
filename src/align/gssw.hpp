/**
 * @file
 * GSSW: Graph SIMD Smith-Waterman (paper §3, extracted from vg map).
 *
 * Aligns a read fragment to an acyclic local subgraph. Node bodies are
 * computed with the striped SIMD column engine (align/ssw.hpp); the
 * first column of each node is seeded from an element-wise max over its
 * parents' final columns — the "node initialization" step that makes
 * the kernel alternate between dense SIMD regions and indirect graph
 * accesses (paper Figure 4a).
 *
 * When GsswOptions::keepMatrices is set (the default, matching the
 * gssw library which retains all matrices for traceback), every column
 * is also retained in a per-node DP matrix. On instrumented runs that
 * matrix is row-major, written through the strided "swizzle" stores
 * that are the memory bottleneck the paper's §6.1 case study
 * attributes GSSW's extra memory stalls to. Timed runs keep the
 * kernel's native striped columns instead, copied out with plain
 * vector stores — the swizzle disappears from the hot loop and moves
 * into gsswTraceback's index math (see GsswMatrixLayout). Switching
 * keepMatrices off implements the further optimization §6.1 proposes.
 *
 * Matrix memory: all nodes' matrices share one buffer
 * (GsswResult::matrix). A node's matrix holds rows x (its length)
 * int16 cells, rows being the padded striped column (segLen * lanes)
 * or the query length (row-major), so node v's matrix starts at
 * rows * (the LocalGraph base offset of v) and the buffer is
 * rows * totalBases() long; GsswResult::matrixOffsets records those
 * starts. gsswAlignInto resizes the buffer in place — no zero-fill,
 * since every cell is written back — and the striped profile and
 * per-node final states live in a thread-local workspace, so a
 * GsswResult reused across alignments does not touch malloc once it
 * has held its largest subgraph.
 *
 * Like sswAlign, the uninstrumented (NullProbe) entry dispatches to
 * the 16-lane AVX2 kernel when the runtime level allows; instrumented
 * probes keep the 8-lane layout the paper characterizes. Results are
 * bit-identical across levels.
 */

#ifndef PGB_ALIGN_GSSW_HPP
#define PGB_ALIGN_GSSW_HPP

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "align/dispatch.hpp"
#include "align/score.hpp"
#include "align/ssw.hpp"
#include "core/logging.hpp"
#include "core/probe.hpp"
#include "core/scratch.hpp"
#include "graph/local_graph.hpp"

namespace pgb::align {

/** GSSW configuration. */
struct GsswOptions
{
    /** Retain full per-node DP matrices (traceback realism, §6.1). */
    bool keepMatrices = true;
};

/**
 * H matrix buffer. Default-initialized on resize: the writeback
 * stores every cell, so zero-filling was pure cost.
 */
using GsswMatrix =
    std::vector<int16_t, core::DefaultInitAlloc<int16_t>>;

/** Memory layout of the retained per-node DP matrices. */
enum class GsswMatrixLayout : uint8_t
{
    /**
     * H(i, j) at i * nodeLength + j, gssw's own layout, kept on
     * instrumented runs: writing it un-stripes every column through
     * the strided "swizzle" stores the paper's §6.1 characterizes.
     */
    kRowMajor,
    /**
     * The SIMD kernel's native striped layout, kept on timed runs:
     * column j occupies segLen*lanes contiguous int16 starting at
     * j * segLen * lanes, with H(i, j) in vector (i % segLen), lane
     * (i / segLen) — so the writeback is a straight streaming copy of
     * the live column, and the swizzle cost moves to the (rare)
     * traceback index math. Columns include the padded rows i >= m.
     */
    kStriped,
};

/**
 * GSSW result: best local hit plus work/footprint accounting.
 *
 * The retained H matrices of all nodes share one buffer: node v's
 * matrix is matrix[matrixOffsets[v], matrixOffsets[v + 1]), in
 * `matrixLayout` order. gsswAlignInto reuses the buffer's capacity, so
 * a result kept per thread stops allocating once it has seen its
 * largest subgraph.
 */
struct GsswResult
{
    GraphLocalHit best;
    uint64_t cellsComputed = 0; ///< DP cells evaluated (padded rows excl.)
    /** Every node's H matrix, back to back (empty: keepMatrices off). */
    GsswMatrix matrix;
    /** Node v's matrix starts at matrixOffsets[v]; n + 1 entries. */
    std::vector<size_t> matrixOffsets;
    /** Layout of each node's matrix (see GsswMatrixLayout). */
    GsswMatrixLayout matrixLayout = GsswMatrixLayout::kRowMajor;
    int matrixSegLen = 0; ///< striped-layout segment length
    int matrixLanes = 0;  ///< striped-layout lane count

    /** Whether H matrices were kept (GsswOptions::keepMatrices). */
    bool hasMatrices() const { return !matrixOffsets.empty(); }

    /** H matrix of @p node (requires hasMatrices()). */
    std::span<const int16_t>
    nodeMatrix(uint32_t node) const
    {
        return {matrix.data() + matrixOffsets[node],
                matrixOffsets[node + 1] - matrixOffsets[node]};
    }
};

namespace detail {

/** Thread-local buffers reused across gsswAlign calls. */
struct GsswWorkspace
{
    StripedProfile profile;
    /** Final (H, E) striped state per node, consumed by children. */
    std::vector<StripedState> finalStates;
    /** Striped H of the best column so far (query-end recovery). */
    std::vector<int16_t> bestH;
};

/** The calling thread's GSSW workspace. */
GsswWorkspace &gsswWorkspace();

/** Graph striped alignment with an explicit vector backend. */
template <typename Vec, typename Probe>
void
gsswAlignIntoT(const graph::LocalGraph &graph,
               std::span<const uint8_t> query, const ScoreParams &params,
               const GsswOptions &options, GsswResult &result,
               Probe &probe)
{
    if (!graph.isDag())
        core::fatal("gsswAlign: graph must be acyclic");
    if (query.empty())
        core::fatal("gsswAlign: empty query");

    GsswWorkspace &ws = gsswWorkspace();
    ws.profile.reset(query, params, Vec::kWidth);
    const StripedProfile &profile = ws.profile;
    const size_t m = profile.queryLength();
    const auto n_nodes = static_cast<uint32_t>(graph.nodeCount());

    // Instrumented runs keep gssw's row-major matrices — the strided
    // swizzle stores the paper's §6.1 blames — written in-kernel
    // through the probe. Timed runs keep the kernel's native striped
    // columns instead, copied out with straight vector stores (see
    // GsswMatrixLayout::kStriped).
    constexpr bool striped_keep = !Probe::enabled;
    const size_t sw =
        static_cast<size_t>(profile.segLen()) * profile.lanes();
    result.best = GraphLocalHit{};
    result.cellsComputed = 0;
    result.matrixLayout = striped_keep ? GsswMatrixLayout::kStriped
                                       : GsswMatrixLayout::kRowMajor;
    result.matrixSegLen = profile.segLen();
    result.matrixLanes = profile.lanes();
    result.matrixOffsets.clear();
    result.matrix.clear();
    if (options.keepMatrices) {
        // Every node keeps (rows per column) x (its length) cells, so
        // node v's matrix starts at rows * (v's first base offset).
        const size_t rows = striped_keep ? sw : m;
        result.matrixOffsets.resize(n_nodes + 1);
        for (uint32_t v = 0; v <= n_nodes; ++v) {
            result.matrixOffsets[v] =
                rows * (v < n_nodes ? graph.nodeOffset(v)
                                    : graph.totalBases());
        }
        result.matrix.resize(rows * graph.totalBases());
    }

    // Final (H, E) striped state of each processed node, indexed by
    // node id. Reused allocations from the workspace.
    if (ws.finalStates.size() < n_nodes)
        ws.finalStates.resize(n_nodes);
    std::vector<StripedState> &final_states = ws.finalStates;

    for (uint32_t node : graph.topoOrder()) {
        StripedState &state = final_states[node];
        const auto preds = graph.predecessors(node);
        if (preds.empty()) {
            state.reset(profile.segLen(), profile.lanes());
        } else {
            // Node initialization: element-wise max over parents' final
            // columns. These are the indirect graph accesses.
            probe.load(&preds[0], 4);
            state.assignFrom(final_states[preds[0]]);
            probe.op(core::OpKind::kMemory,
                     static_cast<uint64_t>(state.h.size() / kLanes));
            for (size_t p = 1; p < preds.size(); ++p) {
                probe.load(&preds[p], 4);
                state.mergeMax(final_states[preds[p]]);
                probe.op(core::OpKind::kVector,
                         static_cast<uint64_t>(state.h.size() / kLanes));
            }
        }

        const std::span<const uint8_t> bases = graph.nodeSeq(node);
        const size_t len = bases.size();
        int16_t *matrix = nullptr;
        if (options.keepMatrices)
            matrix = result.matrix.data() + result.matrixOffsets[node];

        for (size_t j = 0; j < len; ++j) {
            probe.load(bases.data() + j, 1);
            int16_t *column_out = nullptr;
            if (matrix != nullptr && !striped_keep)
                column_out = matrix + j;
            const int16_t col_max = stripedColumnT<Vec>(
                profile, params, state, bases[j], probe, column_out,
                len);
            if (striped_keep && matrix != nullptr) {
                storeStripedColumn<Vec>(state.h.data(),
                                        profile.segLen(),
                                        matrix + j * sw);
            }
            result.cellsComputed += m;
            probe.branch(/* site */ 10, col_max > result.best.score);
            if (col_max > result.best.score) {
                result.best.score = col_max;
                result.best.node = node;
                result.best.nodeOffset = static_cast<int32_t>(j);
                // The winning column is needed once at the end for
                // query-end recovery; when the striped matrices are
                // kept it is already retained there, otherwise
                // snapshot it (one vector copy per improvement).
                if (!(striped_keep && options.keepMatrices))
                    ws.bestH.assign(state.h.begin(), state.h.end());
            }
        }
    }
    if (result.best.score > 0) {
        const int16_t *best_col =
            (striped_keep && options.keepMatrices)
                ? result.nodeMatrix(result.best.node).data() +
                      static_cast<size_t>(result.best.nodeOffset) * sw
                : ws.bestH.data();
        result.best.queryEnd = stripedQueryEnd(
            profile.segLen(), profile.lanes(), m, best_col,
            static_cast<int16_t>(result.best.score));
    }
    if (result.best.score >= kScoreSaturated)
        noteScoreSaturation();
}

#if defined(PGB_HAVE_AVX2_BUILD)
/** 16-lane kernel, compiled with -mavx2 (align/ssw_avx2.cpp). */
void gsswAlignIntoAvx2(const graph::LocalGraph &graph,
                       std::span<const uint8_t> query,
                       const ScoreParams &params,
                       const GsswOptions &options, GsswResult &result);
#endif

} // namespace detail

/**
 * Align @p query to the DAG @p graph with local (Smith-Waterman)
 * semantics, writing into @p result (every field is overwritten; its
 * matrix buffers keep their capacity, so a reused result allocates
 * nothing once warm). Dispatches on the runtime SIMD level;
 * instrumented probes stay on the 8-lane layout.
 *
 * @param graph finalized acyclic LocalGraph (fatal otherwise)
 */
template <typename Probe = core::NullProbe>
void
gsswAlignInto(const graph::LocalGraph &graph,
              std::span<const uint8_t> query, const ScoreParams &params,
              const GsswOptions &options, GsswResult &result,
              Probe &probe)
{
#if defined(PGB_HAVE_AVX2_BUILD)
    if constexpr (std::is_same_v<Probe, core::NullProbe>) {
        if (activeSimdLevel() == SimdLevel::kAvx2) {
            detail::gsswAlignIntoAvx2(graph, query, params, options,
                                      result);
            return;
        }
    }
#endif
    if (activeSimdLevel() == SimdLevel::kScalar) {
        detail::gsswAlignIntoT<VScalar<8>>(graph, query, params, options,
                                           result, probe);
        return;
    }
    detail::gsswAlignIntoT<V8i16>(graph, query, params, options, result,
                                  probe);
}

/** gsswAlignInto without instrumentation. */
void gsswAlignInto(const graph::LocalGraph &graph,
                   std::span<const uint8_t> query,
                   const ScoreParams &params, const GsswOptions &options,
                   GsswResult &result);

/** Returning form of gsswAlignInto. */
template <typename Probe = core::NullProbe>
GsswResult
gsswAlign(const graph::LocalGraph &graph, std::span<const uint8_t> query,
          const ScoreParams &params, const GsswOptions &options,
          Probe &probe)
{
    GsswResult result;
    gsswAlignInto(graph, query, params, options, result, probe);
    return result;
}

/** Returning form of gsswAlignInto, without instrumentation. */
GsswResult gsswAlign(const graph::LocalGraph &graph,
                     std::span<const uint8_t> query,
                     const ScoreParams &params,
                     const GsswOptions &options = {});

/**
 * Reference implementation: textbook affine-gap local alignment over a
 * DAG, computed cell by cell without SIMD. Used by the unit tests to
 * validate gsswAlign and as the scalar ablation backend.
 */
GraphLocalHit gsswAlignScalar(const graph::LocalGraph &graph,
                              std::span<const uint8_t> query,
                              const ScoreParams &params);

/** One CIGAR run of a graph alignment. */
struct CigarEntry
{
    char op = '=';       ///< '=', 'X', 'I' (query gap... see below), 'D'
    uint32_t length = 0;
};

/**
 * A base-level graph alignment recovered by traceback:
 * '=' match, 'X' mismatch, 'I' query base consumed without a graph
 * base (insertion in the read), 'D' graph base consumed without a
 * query base (deletion from the read).
 */
struct GsswAlignment
{
    int32_t score = 0;
    int32_t queryStart = 0;     ///< first aligned query index
    int32_t queryEnd = -1;      ///< last aligned query index (incl.)
    std::vector<CigarEntry> cigar;      ///< alignment order
    std::vector<uint32_t> nodeWalk;     ///< nodes visited, in order
    std::vector<uint8_t> referenceBases;///< graph bases consumed
};

/**
 * Trace the optimal local alignment back through the DP matrices that
 * gsswAlign retained (GsswOptions::keepMatrices must have been set —
 * this is exactly why gssw keeps them, the §6.1 memory footprint).
 * fatal() if the matrices are missing.
 */
GsswAlignment gsswTraceback(const graph::LocalGraph &graph,
                            std::span<const uint8_t> query,
                            const ScoreParams &params,
                            const GsswResult &result);

} // namespace pgb::align

#endif // PGB_ALIGN_GSSW_HPP
