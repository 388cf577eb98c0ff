/**
 * @file
 * LoadedShard: one resident shard of a GraphSource (source.hpp,
 * DESIGN.md §13) — the unit the shard cache maps, pins and evicts.
 *
 * A shard is a view over one graph and its indexes (minimizer table,
 * optional GBWT, optional FM-index), the projection of its local node
 * ids onto global ones (origNodes, linearBases), and the per-path step
 * offsets MEM seeding projects through. Behind the view sits its
 * owner, one of:
 *
 *  - an mmapped `.pgbi` artifact: a member of a `.pgbs` shard set
 *    (projection from its SNOD/SLIN sections), or a monolithic
 *    artifact opened with fromArtifact (identity projection, even when
 *    the file carries SNOD/SLIN — a shard file opened on its own maps
 *    in its own ids);
 *  - indexes built in memory over a caller-owned graph (fromGraph).
 *
 * Seeders and the source read through the view only, so every backing
 * store takes the same code path.
 */

#ifndef PGB_PIPELINE_SHARD_SET_HPP
#define PGB_PIPELINE_SHARD_SET_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/pangraph.hpp"
#include "index/fm_index.hpp"
#include "index/gbwt.hpp"
#include "index/minimizer.hpp"
#include "pipeline/chain.hpp"
#include "store/store.hpp"

namespace pgb::pipeline {

/** One resident shard: a view plus its owner (see file comment). */
class LoadedShard
{
  public:
    /**
     * Open @p artifact as a shard. With @p identity, local ids are
     * global ids and linear bases come from the artifact's own graph;
     * otherwise the artifact's SNOD/SLIN projection applies.
     */
    static std::shared_ptr<const LoadedShard>
    fromArtifact(std::unique_ptr<const store::Artifact> artifact,
                 bool identity);

    /**
     * Index @p graph in memory under the identity projection. The
     * graph is referenced, not copied, and must outlive the shard.
     */
    static std::shared_ptr<const LoadedShard>
    build(const graph::PanGraph &graph, int k, int w, unsigned threads,
          bool build_gbwt, bool build_fm, uint32_t fm_sample_rate);

    const graph::PanGraph *graph = nullptr;
    const index::MinimizerIndex *minimizers = nullptr;
    const index::GbwtIndex *gbwt = nullptr; ///< null: no haplotypes
    const index::FmIndex *fm = nullptr;     ///< null: no MEM seeding
    /// Local -> global node id; empty when local ids are global.
    std::span<const uint32_t> origNodes;
    /// Local node -> linear offset of its first base (global order).
    std::span<const uint64_t> linearBases;
    /// stepStarts[p][s] = path offset where step s of path p begins,
    /// plus one trailing total-length entry; filled when fm is set.
    std::vector<std::vector<uint64_t>> stepStarts;
    /// Footprint charged to shard.resident_bytes: the file size of an
    /// artifact, the index tables' sizes for an in-memory build, plus
    /// the minimizer hash directory, the GBWT's record starts when
    /// gbwt is set, and the FM-index's derived heap and stepStarts
    /// when fm is set.
    uint64_t bytes = 0;

    /** Global node id of local node @p local. */
    uint32_t
    globalNode(uint32_t local) const
    {
        return origNodes.empty() ? local : origNodes[local];
    }

  private:
    /** Charge the minimizer directory and the GBWT's record starts
     *  to bytes; with fm set, also the step starts for MEM seeding and
     *  the FM-index's derived heap. Fatal on an FM/graph mismatch. */
    void finish();

    // ---- The owner: exactly one of artifact_ / the built indexes.
    std::unique_ptr<const store::Artifact> artifact_;
    std::unique_ptr<const index::MinimizerIndex> builtMinimizers_;
    std::unique_ptr<const index::GbwtIndex> builtGbwt_;
    std::unique_ptr<const index::FmIndex> builtFm_;
    std::unique_ptr<const GraphLinearization> linear_; ///< identity
};

} // namespace pgb::pipeline

#endif // PGB_PIPELINE_SHARD_SET_HPP
