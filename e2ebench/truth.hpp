/**
 * @file
 * Truth oracle for mapping accuracy.
 *
 * The read simulator records where each read came from: an offset and
 * span on one haplotype's spelled sequence, and whether the read was
 * reverse-complemented. Projecting that interval through the
 * haplotype's embedded path gives the graph nodes the read covers. A
 * mapping is correct when its reported node is one of them and its
 * reported strand is the one the read has on that node. Nothing here
 * consults the mapper's own indexes, so the check is independent of
 * the code under test.
 */

#ifndef PGB_E2EBENCH_TRUTH_HPP
#define PGB_E2EBENCH_TRUTH_HPP

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/pangraph.hpp"
#include "pipeline/mapper.hpp"

namespace pgb::e2ebench {

/** Where one simulated read came from. */
struct ReadOrigin
{
    std::string path;   ///< haplotype path name in the mapped graph
    uint64_t start = 0; ///< offset on the path's spelled sequence
    uint64_t span = 0;  ///< donor bases the read consumed
    bool reverse = false; ///< read is the reverse complement
};

/** Oriented nodes covered by one read's origin, sorted (see covers). */
using TruthSet = std::vector<uint64_t>;

/** Projects read origins through the paths of one graph. */
class TruthOracle
{
  public:
    /** Index @p graph's paths; @p graph must outlive the oracle. */
    explicit TruthOracle(const graph::PanGraph &graph);

    /**
     * The nodes @p origin covers, each with the strand a correct
     * mapping reports on it. Fatal on an unknown path name, an empty
     * span, or an interval that runs past the end of the path.
     */
    TruthSet project(const ReadOrigin &origin) const;

  private:
    const graph::PanGraph &graph_;
    std::unordered_map<std::string, graph::PathId> pathIds_;
    /** Per path: spelled offset at which each step starts. */
    std::vector<std::vector<uint64_t>> stepStarts_;
};

/** Whether @p mapping reports a node and strand in @p truth. */
bool mappingCorrect(const TruthSet &truth,
                    const pipeline::ReadMapping &mapping);

} // namespace pgb::e2ebench

#endif // PGB_E2EBENCH_TRUTH_HPP
