#include "align/gssw.hpp"

#include <algorithm>
#include <climits>

namespace pgb::align {

namespace detail {

GsswWorkspace &
gsswWorkspace()
{
    return core::threadScratch<GsswWorkspace>();
}

} // namespace detail

void
gsswAlignInto(const graph::LocalGraph &graph,
              std::span<const uint8_t> query, const ScoreParams &params,
              const GsswOptions &options, GsswResult &result)
{
    core::NullProbe probe;
    gsswAlignInto(graph, query, params, options, result, probe);
}

GsswResult
gsswAlign(const graph::LocalGraph &graph, std::span<const uint8_t> query,
          const ScoreParams &params, const GsswOptions &options)
{
    core::NullProbe probe;
    return gsswAlign(graph, query, params, options, probe);
}

GraphLocalHit
gsswAlignScalar(const graph::LocalGraph &graph,
                std::span<const uint8_t> query, const ScoreParams &params)
{
    if (!graph.isDag())
        core::fatal("gsswAlignScalar: graph must be acyclic");
    const size_t m = query.size();
    constexpr int32_t kNegInf32 = INT_MIN / 2;

    // Final column (H, E) per node, rows 1..m (index 0 = boundary).
    struct Column
    {
        std::vector<int32_t> h, e;
    };
    std::vector<Column> finals(graph.nodeCount());

    GraphLocalHit best;
    for (uint32_t node : graph.topoOrder()) {
        Column cur;
        cur.h.assign(m + 1, 0);
        cur.e.assign(m + 1, kNegInf32);
        const auto preds = graph.predecessors(node);
        for (uint32_t pred : preds) {
            const Column &fin = finals[pred];
            for (size_t i = 1; i <= m; ++i) {
                cur.h[i] = std::max(cur.h[i], fin.h[i]);
                cur.e[i] = std::max(cur.e[i], fin.e[i]);
            }
        }
        if (preds.empty()) {
            // Fresh local-alignment start: H = 0, E = -inf.
            std::fill(cur.h.begin(), cur.h.end(), 0);
        }

        const auto &bases = graph.nodeSeq(node);
        for (size_t j = 0; j < bases.size(); ++j) {
            const uint8_t ref_base = bases[j];
            int32_t h_diag = 0;  // H(0, prev col) boundary
            int32_t h_above = 0; // H(i-1, current col)
            int32_t f = kNegInf32;
            for (size_t i = 1; i <= m; ++i) {
                const bool is_match = query[i - 1] == ref_base &&
                                      query[i - 1] < seq::kNumBases;
                const int32_t sub = is_match ? params.match
                                             : -params.mismatch;
                cur.e[i] = std::max(cur.e[i] - params.gapExtend,
                                    cur.h[i] - params.gapOpen);
                f = std::max(f - params.gapExtend,
                             h_above - params.gapOpen);
                const int32_t score =
                    std::max({h_diag + sub, cur.e[i], f, 0});
                h_diag = cur.h[i];
                cur.h[i] = score;
                h_above = score;
                if (score > best.score) {
                    best.score = score;
                    best.queryEnd = static_cast<int32_t>(i) - 1;
                    best.node = node;
                    best.nodeOffset = static_cast<int32_t>(j);
                }
            }
        }
        finals[node] = std::move(cur);
    }
    return best;
}

namespace {

/** Append to a CIGAR being built in reverse (coalesces runs). */
void
pushOp(std::vector<CigarEntry> &cigar, char op, uint32_t length = 1)
{
    if (!cigar.empty() && cigar.back().op == op)
        cigar.back().length += length;
    else
        cigar.push_back({op, length});
}

} // namespace

GsswAlignment
gsswTraceback(const graph::LocalGraph &graph,
              std::span<const uint8_t> query, const ScoreParams &params,
              const GsswResult &result)
{
    if (!result.hasMatrices())
        core::fatal("gsswTraceback: gsswAlign must keep matrices");
    if (result.best.queryEnd < 0)
        core::fatal("gsswTraceback: no alignment to trace");

    // H lookup over the retained matrices; row -1 is the local-
    // alignment boundary (zero). Handles both layouts (see
    // GsswMatrixLayout).
    auto h_at = [&](uint32_t node, int32_t i, int32_t j) -> int32_t {
        if (i < 0)
            return 0;
        const std::span<const int16_t> h = result.nodeMatrix(node);
        if (result.matrixLayout == GsswMatrixLayout::kStriped) {
            const auto s = static_cast<size_t>(result.matrixSegLen);
            const auto w = static_cast<size_t>(result.matrixLanes);
            const auto row = static_cast<size_t>(i);
            return h[static_cast<size_t>(j) * s * w + (row % s) * w +
                     row / s];
        }
        return h[static_cast<size_t>(i) * graph.nodeLength(node) +
                 static_cast<size_t>(j)];
    };
    // Cells feeding column j of `node` horizontally: (node, j-1), or
    // every predecessor's last column when j == 0.
    struct PrevCell
    {
        uint32_t node;
        int32_t column;
    };
    auto prev_cells = [&](uint32_t node, int32_t j) {
        std::vector<PrevCell> cells;
        if (j > 0) {
            cells.push_back({node, j - 1});
        } else {
            for (uint32_t pred : graph.predecessors(node)) {
                cells.push_back(
                    {pred,
                     static_cast<int32_t>(graph.nodeLength(pred)) - 1});
            }
        }
        return cells;
    };

    GsswAlignment out;
    out.score = result.best.score;
    out.queryEnd = result.best.queryEnd;

    uint32_t node = result.best.node;
    int32_t i = result.best.queryEnd;
    int32_t j = result.best.nodeOffset;
    out.nodeWalk.push_back(node);

    std::vector<CigarEntry> reversed;
    std::vector<uint8_t> ref_reversed;
    int32_t cur = h_at(node, i, j);

    while (cur > 0) {
        const uint8_t ref_base = graph.nodeSeq(node)[
            static_cast<size_t>(j)];
        const bool is_match =
            query[static_cast<size_t>(i)] == ref_base &&
            query[static_cast<size_t>(i)] < seq::kNumBases;
        const int32_t sub =
            is_match ? params.match : -params.mismatch;

        // --- Diagonal (match/mismatch).
        bool moved = false;
        for (const PrevCell &prev : prev_cells(node, j)) {
            const int32_t prev_h = h_at(prev.node, i - 1, prev.column);
            if (prev_h + sub != cur)
                continue;
            pushOp(reversed, is_match ? '=' : 'X');
            ref_reversed.push_back(ref_base);
            if (prev.node != node) {
                node = prev.node;
                out.nodeWalk.push_back(node);
            }
            j = prev.column;
            --i;
            cur = prev_h;
            moved = true;
            break;
        }
        // Diagonal from the local-alignment start (H = 0 boundary).
        if (!moved && sub == cur && i >= 0) {
            pushOp(reversed, is_match ? '=' : 'X');
            ref_reversed.push_back(ref_base);
            --i;
            cur = 0;
            break;
        }
        if (moved)
            continue;

        // --- Insertion run (query bases consumed, same column).
        for (int32_t k = 1; !moved && k <= i + 1; ++k) {
            const int32_t cost =
                params.gapOpen + (k - 1) * params.gapExtend;
            const int32_t prev_h = h_at(node, i - k, j);
            if (prev_h - cost == cur && prev_h > 0) {
                pushOp(reversed, 'I', static_cast<uint32_t>(k));
                i -= k;
                cur = prev_h;
                moved = true;
            }
        }
        if (moved)
            continue;

        // --- Deletion run (graph bases consumed, same query row):
        // walk columns backward, possibly across node boundaries.
        {
            struct State
            {
                uint32_t node;
                int32_t column;
                uint32_t length;
                // Reversed-by-construction bases and the node hops.
                std::vector<uint8_t> bases;
                std::vector<uint32_t> hops;
            };
            std::vector<State> frontier;
            frontier.push_back({node, j, 0, {}, {}});
            constexpr uint32_t kMaxGap = 4096;
            while (!frontier.empty() && !moved) {
                std::vector<State> next;
                for (State &state : frontier) {
                    if (state.length >= kMaxGap)
                        continue;
                    for (const PrevCell &prev :
                         prev_cells(state.node, state.column)) {
                        State cand = state;
                        cand.bases.push_back(
                            graph.nodeSeq(state.node)[
                                static_cast<size_t>(state.column)]);
                        if (prev.node != state.node)
                            cand.hops.push_back(prev.node);
                        cand.node = prev.node;
                        cand.column = prev.column;
                        ++cand.length;
                        const int32_t cost = params.gapOpen +
                            static_cast<int32_t>(cand.length - 1) *
                                params.gapExtend;
                        const int32_t prev_h =
                            h_at(cand.node, i, cand.column);
                        if (prev_h - cost == cur && prev_h > 0) {
                            pushOp(reversed, 'D', cand.length);
                            ref_reversed.insert(ref_reversed.end(),
                                                cand.bases.begin(),
                                                cand.bases.end());
                            for (uint32_t hop : cand.hops)
                                out.nodeWalk.push_back(hop);
                            node = cand.node;
                            j = cand.column;
                            cur = prev_h;
                            moved = true;
                            break;
                        }
                        next.push_back(std::move(cand));
                    }
                    if (moved)
                        break;
                }
                frontier = std::move(next);
            }
        }
        if (!moved) {
            core::panic("gsswTraceback: no predecessor explains H=",
                        cur, " at node ", node, " i=", i, " j=", j);
        }
    }

    out.queryStart = i + 1;
    out.cigar.assign(reversed.rbegin(), reversed.rend());
    out.referenceBases.assign(ref_reversed.rbegin(),
                              ref_reversed.rend());
    std::reverse(out.nodeWalk.begin(), out.nodeWalk.end());
    return out;
}

} // namespace pgb::align
