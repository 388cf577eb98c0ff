/**
 * @file
 * The -mavx2 translation unit: 16-lane instantiations of the striped
 * and batched Smith-Waterman kernels, reached only through the runtime
 * dispatch (align/dispatch.hpp). Keeping AVX2 code in one TU lets the
 * rest of the build target the baseline ISA while this file compiles
 * with -mavx2; the dispatcher never calls these symbols unless cpuid
 * reports AVX2.
 */

#include "align/gssw.hpp"
#include "align/simd_table.hpp"
#include "align/ssw.hpp"
#include "align/ssw_batch.hpp"

#if !defined(__AVX2__)
#error "align/ssw_avx2.cpp must be compiled with -mavx2"
#endif

namespace pgb::align::detail {

LocalHit
sswAlignAvx2(const StripedProfile &profile,
             std::span<const uint8_t> reference, const ScoreParams &params)
{
    core::NullProbe probe;
    return sswAlignT<VAvx2>(profile, reference, params, probe);
}

void
gsswAlignIntoAvx2(const graph::LocalGraph &graph,
                  std::span<const uint8_t> query,
                  const ScoreParams &params, const GsswOptions &options,
                  GsswResult &result)
{
    core::NullProbe probe;
    gsswAlignIntoT<VAvx2>(graph, query, params, options, result, probe);
}

void
sswAlignBatchPackAvx2(std::span<const BatchJob> jobs,
                      std::span<const uint32_t> lane_jobs,
                      const ScoreParams &params,
                      std::span<LocalHit> results)
{
    sswAlignBatchPackT<VAvx2>(jobs, lane_jobs, params, results);
}

SimdOpsTable
simdOpsTableAvx2()
{
    return makeSimdOpsTable<VAvx2>("avx2");
}

} // namespace pgb::align::detail
