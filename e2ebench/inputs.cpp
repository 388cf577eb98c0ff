#include "inputs.hpp"

#include <fstream>
#include <sstream>

#include "core/io.hpp"
#include "core/logging.hpp"
#include "core/md5.hpp"
#include "graph/gfa.hpp"
#include "seq/fasta.hpp"
#include "seq/read_sim.hpp"
#include "synth/pangenome_sim.hpp"

namespace pgb::e2ebench {

namespace {

using pipeline::SeederKind;
using pipeline::ToolProfile;

/**
 * Workload constants. Graph and round sizes are large enough that read
 * content averages out between seeds; open-loop rates sit near a
 * quarter of the daemon's closed-loop capacity with 2 mapping threads
 * (README.md has the measurements).
 */
const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> all = {
        {
            .name = "map-short",
            .components = 1,
            .baseLength = 400000,
            .haplotypes = 8,
            .sharded = false,
            .readSets = {{"short", 40000}},
            .map1 = {"vgmap", ToolProfile::kVgMap, SeederKind::kMinimizer,
                     "short", 10000, 0.80},
            .map2 = {"giraffe", ToolProfile::kVgGiraffe,
                     SeederKind::kMinimizer, "short", 10000, 0.80},
            .serve = {"vgmap", ToolProfile::kVgMap, "short", 8192, 1500.0,
                      5000, 0.80},
        },
        {
            .name = "shards-serve",
            .components = 4,
            .baseLength = 40000,
            .haplotypes = 6,
            .sharded = true,
            .readSets = {{"short", 30000}},
            .map1 = {"vgmap", ToolProfile::kVgMap, SeederKind::kMinimizer,
                     "short", 10000, 0.80},
            .map2 = {"vgmap-mem", ToolProfile::kVgMap, SeederKind::kMem,
                     "short", 1500, 0.80},
            .serve = {"vgmap", ToolProfile::kVgMap, "short", 8192, 1500.0,
                      4000, 0.80},
        },
    };
    return all;
}

/** splitmix64 finalizer: decorrelates per-component seeds. */
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Append @p src to @p dst as a new connected component whose paths
 *  are renamed "<tag>.<name>". */
void
appendComponent(graph::PanGraph &dst, const graph::PanGraph &src,
                const std::string &tag)
{
    const auto base = static_cast<uint32_t>(dst.nodeCount());
    for (uint32_t n = 0; n < src.nodeCount(); ++n)
        dst.addNode(src.nodeSequence(n));
    for (uint32_t n = 0; n < src.nodeCount(); ++n) {
        for (const bool reverse : {false, true}) {
            for (const graph::Handle to :
                 src.successors(graph::Handle(n, reverse))) {
                dst.addEdge(graph::Handle(base + n, reverse),
                            graph::Handle(base + to.node(),
                                          to.isReverse()));
            }
        }
    }
    for (graph::PathId p = 0; p < src.pathCount(); ++p) {
        std::vector<graph::Handle> steps;
        steps.reserve(src.pathSteps(p).size());
        for (const graph::Handle s : src.pathSteps(p))
            steps.emplace_back(base + s.node(), s.isReverse());
        dst.addPath(tag + "." + src.pathName(p), std::move(steps));
    }
}

std::string
readsPath(const std::string &dir, const std::string &name)
{
    return dir + "/" + name + ".fq";
}

std::string
truthPath(const std::string &dir, const std::string &name)
{
    return dir + "/" + name + ".truth";
}

} // namespace

const WorkloadSpec &
workloadByName(const std::string &name)
{
    for (const WorkloadSpec &spec : workloads())
        if (name == spec.name)
            return spec;
    core::fatal("unknown workload '", name,
                "' (expected map-short or shards-serve)");
}

std::string
graphPath(const std::string &dir)
{
    return dir + "/graph.gfa";
}

void
generateInputs(const WorkloadSpec &spec, uint64_t seed,
               const std::string &dir)
{
    graph::PanGraph graph;
    // haplotypes[c][h] is haplotype h of component c, spelled.
    std::vector<std::vector<seq::Sequence>> haplotypes;
    std::vector<std::vector<std::string>> pathNames;
    for (size_t c = 0; c < spec.components; ++c) {
        synth::PangenomeConfig config = synth::mGraphLikeConfig(
            spec.baseLength, mix(seed * 64 + c));
        config.haplotypeCount = spec.haplotypes;
        synth::Pangenome pangenome = synth::simulatePangenome(config);
        const std::string tag = "c" + std::to_string(c);
        appendComponent(graph, pangenome.graph, tag);
        pathNames.emplace_back();
        for (const graph::PathId p : pangenome.haplotypePaths)
            pathNames.back().push_back(tag + "." +
                                       pangenome.graph.pathName(p));
        haplotypes.push_back(std::move(pangenome.haplotypes));
    }
    graph::writeGfaFile(graphPath(dir), graph);

    for (size_t set = 0; set < spec.readSets.size(); ++set) {
        const ReadSetSpec &rs = spec.readSets[set];
        seq::ReadSimulator sim(seq::ReadProfile::shortRead(),
                               mix(seed * 64 + 32 + set));
        std::vector<seq::Sequence> reads;
        reads.reserve(rs.count);
        core::CheckedWriter truth(truthPath(dir, rs.name));
        for (size_t r = 0; r < rs.count; ++r) {
            // Reads rotate over components first, so every batch of
            // consecutive reads touches every shard.
            const size_t c = r % spec.components;
            const size_t h = (r / spec.components) % spec.haplotypes;
            seq::SimulatedRead sample = sim.sample(haplotypes[c][h]);
            std::string name =
                std::string(rs.name) + "_" + std::to_string(r);
            truth.stream() << name << '\t' << pathNames[c][h] << '\t'
                           << sample.donorStart << '\t'
                           << sample.donorSpan << '\t'
                           << (sample.reverse ? 1 : 0) << '\n';
            sample.read.setName(std::move(name));
            reads.push_back(std::move(sample.read));
        }
        truth.finish();
        seq::writeFastqFile(readsPath(dir, rs.name), reads);
    }
}

ReadSet
loadReadSet(const std::string &dir, const std::string &name)
{
    ReadSet set;
    set.reads = seq::readFastqFile(readsPath(dir, name));
    std::ifstream in(truthPath(dir, name));
    if (!in)
        core::fatal("cannot open ", truthPath(dir, name));
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string readName;
        ReadOrigin origin;
        int reverse = 0;
        if (!(fields >> readName >> origin.path >> origin.start >>
              origin.span >> reverse)) {
            core::fatal(truthPath(dir, name), ": malformed line '", line,
                        "'");
        }
        origin.reverse = reverse != 0;
        if (set.origins.size() >= set.reads.size() ||
            readName != set.reads[set.origins.size()].name()) {
            core::fatal(truthPath(dir, name), ": '", readName,
                        "' does not match the FASTQ read order");
        }
        set.origins.push_back(std::move(origin));
    }
    if (set.origins.size() != set.reads.size())
        core::fatal(truthPath(dir, name), ": ", set.origins.size(),
                    " origins for ", set.reads.size(), " reads");
    return set;
}

std::string
inputDigest(const WorkloadSpec &spec, const std::string &dir)
{
    std::vector<std::string> files = {graphPath(dir)};
    for (const ReadSetSpec &rs : spec.readSets) {
        files.push_back(readsPath(dir, rs.name));
        files.push_back(truthPath(dir, rs.name));
    }
    std::string bytes;
    for (const std::string &file : files) {
        std::ifstream in(file, std::ios::binary);
        if (!in)
            core::fatal("cannot open ", file);
        bytes.append(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    return core::md5Hex(bytes);
}

} // namespace pgb::e2ebench
