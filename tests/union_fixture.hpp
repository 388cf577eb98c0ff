/**
 * @file
 * A multi-component pangenome fixture for the shard-set and seeder
 * tests: a disjoint union of simulated chromosomes — the shape
 * `pgb shard` partitions into one shard per component.
 */

#ifndef PGB_TESTS_UNION_FIXTURE_HPP
#define PGB_TESTS_UNION_FIXTURE_HPP

#include <string>
#include <vector>

#include "graph/pangraph.hpp"
#include "seq/read_sim.hpp"
#include "synth/pangenome_sim.hpp"

namespace pgb::test {

/**
 * Append @p src to @p dst as a fresh connected component: nodes keep
 * their relative order (shifted by dst's node count), edges replay the
 * oriented successor lists (addEdge dedupes and mirrors, exactly as
 * `pgb shard` replays them back out), and paths are renamed under
 * @p tag to stay unique in the union.
 */
inline void
appendChromosome(graph::PanGraph &dst, const synth::Pangenome &src,
                 const std::string &tag)
{
    const auto &g = src.graph;
    const auto base = static_cast<uint32_t>(dst.nodeCount());
    for (uint32_t n = 0; n < g.nodeCount(); ++n)
        dst.addNode(g.nodeSequence(n));
    for (uint32_t n = 0; n < g.nodeCount(); ++n) {
        for (const bool reverse : {false, true}) {
            const graph::Handle from(n, reverse);
            for (const graph::Handle to : g.successors(from))
                dst.addEdge(graph::Handle(base + n, reverse),
                            graph::Handle(base + to.node(),
                                          to.isReverse()));
        }
    }
    for (graph::PathId p = 0; p < g.pathCount(); ++p) {
        std::vector<graph::Handle> steps;
        steps.reserve(g.pathSteps(p).size());
        for (const graph::Handle s : g.pathSteps(p))
            steps.emplace_back(base + s.node(), s.isReverse());
        dst.addPath(tag + "." + g.pathName(p), std::move(steps));
    }
}

/**
 * A disjoint union of @p chromosomes simulated pangenomes — the
 * beyond-RAM shape `pgb shard` partitions — plus reads drawn from
 * every chromosome's haplotypes. With @p duplicate_first, chromosome
 * 0 is appended once more as the last component, so every seed of its
 * reads occurs in two components.
 */
struct UnionFixture
{
    graph::PanGraph graph;
    std::vector<seq::Sequence> reads;
    size_t chromosomes;

    UnionFixture(size_t chromosomes, size_t bases_per_chromosome,
                 size_t reads_per_chromosome, bool duplicate_first = false)
        : chromosomes(chromosomes)
    {
        synth::Pangenome first;
        for (size_t c = 0; c < chromosomes; ++c) {
            synth::PangenomeConfig config = synth::mGraphLikeConfig(
                bases_per_chromosome, 0xc0 + c);
            config.haplotypeCount = 2;
            const auto pangenome = synth::simulatePangenome(config);
            appendChromosome(graph, pangenome,
                             "chr" + std::to_string(c));
            if (c == 0 && duplicate_first)
                first = pangenome;
            seq::ReadSimulator sim(seq::ReadProfile::shortRead(),
                                   0x5eed00 + c);
            for (size_t r = 0; r < reads_per_chromosome; ++r) {
                auto read = sim.sample(
                    pangenome.haplotypes[r %
                                         pangenome.haplotypes.size()]);
                std::string name = "c";
                name += std::to_string(c);
                name += "_r";
                name += std::to_string(r);
                read.read.setName(name);
                reads.push_back(std::move(read.read));
            }
        }
        if (duplicate_first)
            appendChromosome(graph, first, "chr0copy");
    }
};

} // namespace pgb::test

#endif // PGB_TESTS_UNION_FIXTURE_HPP
