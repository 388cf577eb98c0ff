/**
 * @file
 * Build-once/map-many persistence: write and load `.pgbi` artifacts.
 *
 * Every `pgb map` used to re-parse GFA text and rebuild the minimizer
 * index and GBWT from scratch, so index construction dominated any
 * serving scenario. Real pangenome tooling persists its indexes
 * (minigraph's rGFA graphs, ropebwt3's FM-indexes, vg's .xg/.gbwt
 * files); `pgb::store` is the suite's equivalent: `writeArtifact`
 * serializes a graph plus its two indexes into one versioned,
 * checksummed container (format.hpp), and `Artifact::load`
 * memory-maps it back. The minimizer, GBWT and FM-index sections are
 * viewed in place as zero-copy std::span views over the mapping; the
 * graph (a nested-vector layout) takes one linear bulk copy.
 *
 * Failure contract (DESIGN.md §6): writing goes through
 * core::CheckedWriter into a temp file that is renamed over the
 * target only after a verified flush, so a failed write never leaves
 * a partial artifact. Loading fails closed: bad magic, wrong version,
 * foreign endianness, truncation, an out-of-bounds section table, or
 * a payload checksum mismatch are all one-line FatalErrors. Fault
 * sites store.{open,mmap,section,checksum} inject each class.
 */

#ifndef PGB_STORE_STORE_HPP
#define PGB_STORE_STORE_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "graph/pangraph.hpp"
#include "index/fm_index.hpp"
#include "index/gbwt.hpp"
#include "index/minimizer.hpp"

namespace pgb::store {

/**
 * Per-node shard-set projection written into SNOD/SLIN sections when a
 * `.pgbi` artifact is one shard of a larger pangenome: for every local
 * node, the global node id it renames and the monolith linearization
 * base of that node. Both vectors must hold exactly nodeCount entries.
 */
struct ShardExtras
{
    std::vector<uint32_t> origNodes;   ///< local node -> global node id
    std::vector<uint64_t> linearBases; ///< local node -> monolith prefix
};

/**
 * Serialize @p graph, @p minimizers, and optionally @p gbwt and @p fm
 * into the `.pgbi` artifact at @p path (atomic: temp file + rename).
 * Throws FatalError on any write failure, leaving no partial file at
 * @p path. When @p extras is non-null the shard projection sections
 * (SNOD/SLIN) are appended — the artifact then opens both standalone
 * and as a member of a `.pgbs` shard set.
 */
void writeArtifact(const std::string &path,
                   const graph::PanGraph &graph,
                   const index::MinimizerIndex &minimizers,
                   const index::GbwtIndex *gbwt,
                   const index::FmIndex *fm = nullptr,
                   const ShardExtras *extras = nullptr);

/**
 * Read just the header of the artifact at @p path and return its
 * section-table checksum — the 64-bit digest that transitively commits
 * to every payload byte (each table entry checksums its payload). The
 * shard manifest records this per shard, so identity can be verified
 * without a full load. Throws FatalError on a missing or truncated
 * file or bad magic.
 */
uint64_t readTableChecksum(const std::string &path);

/** A loaded, immutable `.pgbi` artifact. */
class Artifact
{
  public:
    /**
     * Map and validate the artifact at @p path. Throws FatalError
     * ("<path>: <what>") on any structural or checksum violation.
     */
    static std::unique_ptr<Artifact> load(const std::string &path);

    const graph::PanGraph &graph() const { return graph_; }

    /** Zero-copy view index; valid for the artifact's lifetime. */
    const index::MinimizerIndex &minimizers() const
    {
        return *minimizers_;
    }

    /** GBWT, or nullptr when the artifact was written without one. */
    const index::GbwtIndex *gbwt() const { return gbwt_.get(); }

    /**
     * Zero-copy view FM-index, or nullptr when the artifact was
     * written without one (`pgb index` without `--seeder=mem`).
     */
    const index::FmIndex *fmIndex() const { return fm_.get(); }

    int k() const { return k_; }
    int w() const { return w_; }
    const std::string &path() const { return path_; }

    /** Total mapped bytes (the file size). */
    size_t sizeBytes() const { return arena_.size(); }

    /** The header's section-table checksum (the artifact's digest). */
    uint64_t tableChecksum() const { return tableChecksum_; }

    /**
     * Shard projection: local node -> global node id (SNOD section),
     * or an empty span when the artifact is not a shard.
     */
    std::span<const uint32_t> origNodes() const { return origNodes_; }

    /** Shard projection: local node -> monolith linearization base. */
    std::span<const uint64_t> linearBases() const
    {
        return linearBases_;
    }

    /** Whether the artifact carries the SNOD/SLIN shard sections. */
    bool isShard() const { return !origNodes_.empty(); }

    Artifact(const Artifact &) = delete;
    Artifact &operator=(const Artifact &) = delete;

  private:
    Artifact() : arena_(core::Arena::Mode::kInMemory) {}

    core::Arena arena_; ///< read-only mapping; spans point into it
    std::string path_;
    int k_ = 0, w_ = 0;
    uint64_t tableChecksum_ = 0;
    std::span<const uint32_t> origNodes_;
    std::span<const uint64_t> linearBases_;
    graph::PanGraph graph_;
    std::unique_ptr<index::MinimizerIndex> minimizers_;
    std::unique_ptr<index::GbwtIndex> gbwt_;
    std::unique_ptr<index::FmIndex> fm_;
};

} // namespace pgb::store

#endif // PGB_STORE_STORE_HPP
