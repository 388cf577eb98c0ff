/**
 * @file
 * SSW: striped Smith-Waterman (Farrar's algorithm), the Seq2Seq baseline
 * kernel of the paper's case study §6.1, and the SIMD column engine that
 * GSSW builds on.
 *
 * The striped layout packs query position i into vector (i % segLen),
 * lane (i / segLen). Within a column, F dependencies are speculated
 * away and repaired by the lazy-F loop (paper Figure 4a). Like the SSW
 * library (Zhao et al.) and SWPS3, the lazy-F loop does not feed F back
 * into E, which disallows an immediate deletion-insertion pair; this is
 * score-exact whenever 2*gapOpen >= mismatch (true of all defaults).
 *
 * Kernels are templated on the vector backend (align/simd.hpp) and on
 * a Probe (core/probe.hpp). The public entry points dispatch on the
 * runtime SIMD level (align/dispatch.hpp): scalar and SSE2 run the
 * 8-lane kernel inline; AVX2 runs the 16-lane kernel through the
 * -mavx2 translation unit (align/ssw_avx2.cpp), for uninstrumented
 * (NullProbe) callers only — instrumented characterization stays on
 * the 8-lane layout the paper's Machine B analysis models. Per-cell
 * values are layout-independent and result recovery scans in query
 * order, so every level returns bit-identical hits.
 *
 * Scores saturate at INT16_MAX: a long high-identity read can clamp.
 * Kernels detect the clamp, count it in the obs counter
 * `align.score_saturated`, and warn once per process.
 */

#ifndef PGB_ALIGN_SSW_HPP
#define PGB_ALIGN_SSW_HPP

#include <algorithm>
#include <climits>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "align/dispatch.hpp"
#include "align/score.hpp"
#include "align/simd.hpp"
#include "core/logging.hpp"
#include "core/probe.hpp"
#include "core/scratch.hpp"
#include "seq/alphabet.hpp"

namespace pgb::align {

/** Sentinel "minus infinity" that survives saturating arithmetic. */
constexpr int16_t kNegInf16 = -30000;

/** Saturating-arithmetic ceiling: a best score here means overflow. */
constexpr int16_t kScoreSaturated = 32767;

namespace detail {

/** Count a saturated alignment score (warns once per process). */
void noteScoreSaturation();

} // namespace detail

/** Striped query profile: per-base substitution scores, striped layout. */
class StripedProfile
{
  public:
    StripedProfile() = default;

    StripedProfile(std::span<const uint8_t> query,
                   const ScoreParams &params, int lanes = kLanes)
    {
        reset(query, params, lanes);
    }

    /** (Re)build for @p query; reuses the profile's allocation. */
    void reset(std::span<const uint8_t> query, const ScoreParams &params,
               int lanes = kLanes);

    size_t queryLength() const { return queryLength_; }
    int segLen() const { return segLen_; }
    int lanes() const { return lanes_; }

    /** Striped profile row for base code @p base (segLen vectors). */
    const int16_t *
    row(uint8_t base) const
    {
        return data_.data() + static_cast<size_t>(base) *
               static_cast<size_t>(segLen_) * lanes_;
    }

  private:
    size_t queryLength_ = 0;
    int segLen_ = 0;
    int lanes_ = kLanes;
    std::vector<int16_t> data_; ///< (kNumBases+1) rows x segLen x lanes
};

/**
 * Striped per-column DP state: H and E in striped layout, one int16 per
 * query position (padded to segLen*lanes). GSSW seeds this from parent
 * nodes; SSW starts it at the local-alignment boundary.
 */
struct StripedState
{
    std::vector<int16_t> h; ///< H of the last processed column
    std::vector<int16_t> e; ///< E entering the next column

    /** Initialize for a fresh local alignment of @p seg_len stripes. */
    void
    reset(int seg_len, int lanes = kLanes)
    {
        h.assign(static_cast<size_t>(seg_len) * lanes, 0);
        e.assign(static_cast<size_t>(seg_len) * lanes, kNegInf16);
    }

    /** Copy from @p other, reusing this state's allocations. */
    void
    assignFrom(const StripedState &other)
    {
        h.assign(other.h.begin(), other.h.end());
        e.assign(other.e.begin(), other.e.end());
    }

    /**
     * Element-wise max merge with @p other (GSSW parent merging).
     * Sizes are always a multiple of 8 (segLen * lanes), so the merge
     * runs on the baseline 8-lane vectors.
     */
    void
    mergeMax(const StripedState &other)
    {
        const size_t n = h.size();
        for (size_t i = 0; i < n; i += kLanes) {
            vmax(V8i16::load(h.data() + i),
                 V8i16::load(other.h.data() + i))
                .store(h.data() + i);
            vmax(V8i16::load(e.data() + i),
                 V8i16::load(other.e.data() + i))
                .store(e.data() + i);
        }
    }
};

/**
 * Advance @p state by one reference column with base @p ref_base,
 * using vector backend @p Vec (whose width must match the profile's
 * lane count).
 *
 * @param profile   striped query profile
 * @param params    scoring parameters
 * @param state     H/E state; updated in place
 * @param ref_base  reference base code for this column
 * @param probe     instrumentation probe
 * @param column_out when non-null, the column's H values are written
 *        un-striped ("swizzle" writes: column_out[i * column_stride] =
 *        H(i)), reproducing GSSW's costly SIMD-buffer-to-matrix
 *        writebacks (paper §6.1); with column_stride = row length these
 *        are the strided row-major matrix stores VTune blames
 * @param column_stride element stride between successive query rows
 * @return the maximum H value in this column
 */
template <typename Vec, typename Probe>
int16_t
stripedColumnT(const StripedProfile &profile, const ScoreParams &params,
               StripedState &state, uint8_t ref_base, Probe &probe,
               int16_t *column_out = nullptr, size_t column_stride = 1)
{
    constexpr int kW = Vec::kWidth;
    constexpr uint32_t kVecBytes = kW * sizeof(int16_t);
    const int seg_len = profile.segLen();
    const int16_t *prof = profile.row(ref_base);
    int16_t *h_arr = state.h.data();
    int16_t *e_arr = state.e.data();

    const Vec v_zero = Vec::zero();
    const Vec v_gap_open = Vec::set1(params.gapOpen);
    const Vec v_gap_ext = Vec::set1(params.gapExtend);
    Vec v_max_col = v_zero;
    Vec v_f = Vec::set1(kNegInf16);

    // H(i-1, j-1) for stripe 0 comes from the last stripe of the
    // previous column, shifted up one lane; lane 0 is the boundary row.
    probe.load(h_arr + (seg_len - 1) * kW, kVecBytes);
    Vec v_h_diag = Vec::load(h_arr + (seg_len - 1) * kW).shiftLanesUp(0);
    probe.op(core::OpKind::kVector);

    // Main striped pass over the column.
    for (int t = 0; t < seg_len; ++t) {
        probe.load(prof + t * kW, kVecBytes);
        Vec v_h = adds(v_h_diag, Vec::load(prof + t * kW));
        probe.load(e_arr + t * kW, kVecBytes);
        const Vec v_e = Vec::load(e_arr + t * kW);
        v_h = vmax(v_h, v_e);
        v_h = vmax(v_h, v_f);
        v_h = vmax(v_h, v_zero);
        v_max_col = vmax(v_max_col, v_h);
        probe.op(core::OpKind::kVector, 6);

        // Save H(i-1, j-1) for the next stripe before overwriting.
        probe.load(h_arr + t * kW, kVecBytes);
        v_h_diag = Vec::load(h_arr + t * kW);
        v_h.store(h_arr + t * kW);
        probe.store(h_arr + t * kW, kVecBytes);

        const Vec v_h_gap = subs(v_h, v_gap_open);
        const Vec v_e_next = vmax(subs(v_e, v_gap_ext), v_h_gap);
        v_e_next.store(e_arr + t * kW);
        probe.store(e_arr + t * kW, kVecBytes);
        v_f = vmax(subs(v_f, v_gap_ext), v_h_gap);
        probe.op(core::OpKind::kVector, 4);
    }

    // Lazy-F repair: propagate F across stripes until it cannot raise H.
    for (int lane_pass = 0; lane_pass < kW; ++lane_pass) {
        v_f = v_f.shiftLanesUp(kNegInf16);
        probe.op(core::OpKind::kVector);
        bool done = false;
        for (int t = 0; t < seg_len; ++t) {
            probe.load(h_arr + t * kW, kVecBytes);
            Vec v_h = Vec::load(h_arr + t * kW);
            v_h = vmax(v_h, v_f);
            v_h.store(h_arr + t * kW);
            probe.store(h_arr + t * kW, kVecBytes);
            v_max_col = vmax(v_max_col, v_h);
            const Vec v_h_gap = subs(v_h, v_gap_open);
            v_f = subs(v_f, v_gap_ext);
            probe.op(core::OpKind::kVector, 5);
            const bool keep_going = anyGt(v_f, v_h_gap);
            probe.branch(/* site */ 1, keep_going);
            if (!keep_going) {
                done = true;
                break;
            }
        }
        probe.branch(/* site */ 2, done);
        if (done)
            break;
    }

    // Optional un-striping writeback (the "swizzle" store). The lane
    // bound is hoisted out of the inner loop: stripe row t covers query
    // rows t, t+segLen, ..., of which full_lanes (+1 for t <= rem) are
    // real — computed once, no division inside the loop.
    if (column_out != nullptr) {
        const auto m = profile.queryLength();
        const int full_lanes = static_cast<int>((m - 1) / seg_len);
        const int rem = static_cast<int>((m - 1) % seg_len);
        const size_t step = static_cast<size_t>(seg_len) * column_stride;
        for (int t = 0; t < seg_len; ++t) {
            probe.load(h_arr + t * kW, kVecBytes);
            const int16_t *src = h_arr + t * kW;
            int16_t *dst = column_out +
                static_cast<size_t>(t) * column_stride;
            const int real_lanes = full_lanes + (t <= rem ? 1 : 0);
            for (int lane = 0; lane < real_lanes; ++lane) {
                *dst = src[lane];
                probe.store(dst, 2);
                dst += step;
            }
        }
    }

    return v_max_col.horizontalMax();
}

/**
 * Query row of the column maximum, scanned in query order so the
 * answer does not depend on the striped layout's lane count: the
 * smallest query index whose H (striped, at @p h) equals @p col_max.
 */
inline int32_t
stripedQueryEnd(int seg_len, int lanes, size_t m, const int16_t *h,
                int16_t col_max)
{
    // Query index lane * segLen + t is ascending over (lane, t), so
    // this visits i = 0, 1, 2, ... without any division.
    size_t i = 0;
    for (int lane = 0; lane < lanes && i < m; ++lane) {
        for (int t = 0; t < seg_len && i < m; ++t, ++i) {
            if (h[static_cast<size_t>(t) * lanes + lane] == col_max)
                return static_cast<int32_t>(i);
        }
    }
    return -1;
}

/** Convenience overload over a profile/state pair. */
inline int32_t
stripedQueryEnd(const StripedProfile &profile, const StripedState &state,
                int16_t col_max)
{
    return stripedQueryEnd(profile.segLen(), profile.lanes(),
                           profile.queryLength(), state.h.data(),
                           col_max);
}

/**
 * Copy one striped column of H values (segLen*lanes int16) into a kept
 * matrix: a straight run of full-width vector stores, the cheapest
 * possible writeback — no per-cell un-striping at all.
 */
template <typename Vec>
inline void
storeStripedColumn(const int16_t *h_arr, size_t seg_len, int16_t *dst)
{
    constexpr int kW = Vec::kWidth;
    for (size_t t = 0; t < seg_len; ++t)
        Vec::load(h_arr + t * kW).store(dst + t * kW);
}

namespace detail {

/** Thread-local DP state and best-column snapshot for sswAlignT. */
struct SswAlignScratch
{
    StripedState state;
    std::vector<int16_t> bestH; ///< H of the best column so far
};

/** Striped local alignment with an explicit vector backend. */
template <typename Vec, typename Probe>
LocalHit
sswAlignT(const StripedProfile &profile,
          std::span<const uint8_t> reference, const ScoreParams &params,
          Probe &probe)
{
    if (profile.lanes() != Vec::kWidth) {
        core::panic("sswAlignT: ", profile.lanes(),
                    "-lane profile fed to a ", Vec::kWidth,
                    "-lane kernel");
    }
    SswAlignScratch &scratch = core::threadScratch<SswAlignScratch>();
    StripedState &state = scratch.state;
    state.reset(profile.segLen(), profile.lanes());

    // On each improvement the column's striped H is snapshotted (one
    // vector copy); the query end is recovered once at the end from the
    // winning snapshot instead of rescanning every improved column.
    LocalHit best;
    for (size_t j = 0; j < reference.size(); ++j) {
        probe.load(reference.data() + j, 1);
        const int16_t col_max = stripedColumnT<Vec>(
            profile, params, state, reference[j], probe);
        probe.branch(/* site */ 3, col_max > best.score);
        if (col_max > best.score) {
            best.score = col_max;
            best.refEnd = static_cast<int32_t>(j);
            scratch.bestH.assign(state.h.begin(), state.h.end());
        }
    }
    if (best.score > 0) {
        best.queryEnd = stripedQueryEnd(
            profile.segLen(), profile.lanes(), profile.queryLength(),
            scratch.bestH.data(), static_cast<int16_t>(best.score));
    }
    if (best.score >= kScoreSaturated)
        noteScoreSaturation();
    return best;
}

#if defined(PGB_HAVE_AVX2_BUILD)
/** 16-lane kernel, compiled with -mavx2 (align/ssw_avx2.cpp). */
LocalHit sswAlignAvx2(const StripedProfile &profile,
                      std::span<const uint8_t> reference,
                      const ScoreParams &params);
#endif

} // namespace detail

/**
 * Local (Smith-Waterman) alignment of the profiled query against
 * @p reference using the striped SIMD kernel. Dispatches on the
 * profile's lane count and the runtime SIMD level; build 16-lane
 * profiles (simdDispatchLanes()) only for uninstrumented callers.
 */
template <typename Probe = core::NullProbe>
LocalHit
sswAlign(const StripedProfile &profile, std::span<const uint8_t> reference,
         const ScoreParams &params, Probe &probe)
{
    if (profile.lanes() != kLanes) {
#if defined(PGB_HAVE_AVX2_BUILD)
        if constexpr (std::is_same_v<Probe, core::NullProbe>) {
            if (profile.lanes() == kLanesAvx2)
                return detail::sswAlignAvx2(profile, reference, params);
        }
#endif
        core::fatal("sswAlign: ", profile.lanes(), "-lane profiles "
                    "need the AVX2 build and an uninstrumented probe");
    }
    if (activeSimdLevel() == SimdLevel::kScalar)
        return detail::sswAlignT<VScalar<8>>(profile, reference, params,
                                             probe);
    return detail::sswAlignT<V8i16>(profile, reference, params, probe);
}

/**
 * Convenience overload without instrumentation; builds the profile at
 * the dispatched lane width.
 */
LocalHit sswAlign(std::span<const uint8_t> query,
                  std::span<const uint8_t> reference,
                  const ScoreParams &params);

/**
 * Textbook O(nm) affine-gap local alignment, the correctness reference
 * for the striped kernels and the scalar ablation backend.
 */
template <typename Probe = core::NullProbe>
LocalHit
sswAlignScalar(std::span<const uint8_t> query,
               std::span<const uint8_t> reference,
               const ScoreParams &params, Probe &probe)
{
    const size_t m = query.size();
    constexpr int32_t kNegInf32 = INT_MIN / 2;
    // h[i] holds H(i, j-1); e[i] holds E(i, j-1) rolled into E(i, j).
    std::vector<int32_t> h(m + 1, 0), e(m + 1, kNegInf32);
    LocalHit best;
    for (size_t j = 0; j < reference.size(); ++j) {
        probe.load(reference.data() + j, 1);
        const uint8_t ref_base = reference[j];
        int32_t h_diag = 0;   // H(i-1, j-1); starts as H(0, j-1) = 0
        int32_t h_above = 0;  // H(i-1, j) of the current column
        int32_t f = kNegInf32;
        for (size_t i = 1; i <= m; ++i) {
            probe.load(query.data() + i - 1, 1);
            const bool is_match = query[i - 1] == ref_base &&
                                  query[i - 1] < seq::kNumBases;
            const int32_t sub = is_match ? params.match : -params.mismatch;
            probe.load(&e[i], 4);
            probe.load(&h[i], 4);
            e[i] = std::max(e[i] - params.gapExtend,
                            h[i] - params.gapOpen);
            probe.store(&e[i], 4);
            f = std::max(f - params.gapExtend, h_above - params.gapOpen);
            const int32_t score =
                std::max({h_diag + sub, e[i], f, 0});
            probe.op(core::OpKind::kScalar, 8);
            h_diag = h[i];
            h[i] = score;
            probe.store(&h[i], 4);
            h_above = score;
            probe.branch(/* site */ 4, score > best.score);
            if (score > best.score) {
                best.score = score;
                best.queryEnd = static_cast<int32_t>(i) - 1;
                best.refEnd = static_cast<int32_t>(j);
            }
        }
    }
    return best;
}

} // namespace pgb::align

#endif // PGB_ALIGN_SSW_HPP
