/**
 * @file
 * wfmash stand-in: all-to-all pairwise alignment for the PGGB pipeline
 * (paper §2.2).
 *
 * wfmash combines MashMap-style approximate segment mapping with WFA
 * base-level alignment. This stand-in does the same in miniature: each
 * query segment is placed on the target by minimizer diagonal voting
 * (the MashMap role), scored with the WFA kernel, and its exact-match
 * runs — found by extending minimizer anchors maximally — become the
 * MatchSegments the transclosure kernel consumes.
 */

#ifndef PGB_PIPELINE_WFMASH_HPP
#define PGB_PIPELINE_WFMASH_HPP

#include <cstdint>
#include <vector>

#include "build/transclosure.hpp"
#include "seq/sequence.hpp"

namespace pgb::pipeline {

/** wfmash stand-in parameters. */
struct WfmashParams
{
    int k = 15;
    int w = 10;
    size_t segmentLength = 2000; ///< query segmentation granule
    size_t minMatchLength = 20;  ///< exact-match runs shorter are dropped
    unsigned threads = 1;
    /** Skip the WFA scoring pass (ablation/speed knob). */
    bool runWfa = true;
};

/** All-to-all alignment output. */
struct WfmashResult
{
    std::vector<build::MatchSegment> matches; ///< global offsets
    uint64_t segmentsMapped = 0;
    uint64_t segmentsTotal = 0;
    int64_t wfaPenaltyTotal = 0;
};

/**
 * Align every ordered pair of catalog sequences (i < j) and emit the
 * exact-match segments.
 */
WfmashResult allToAllAlign(const build::SequenceCatalog &catalog,
                           const WfmashParams &params);

} // namespace pgb::pipeline

#endif // PGB_PIPELINE_WFMASH_HPP
