/**
 * @file
 * The benchmark's workloads and their seeded inputs.
 *
 * Each workload is a pangenome shape, read sets, two offline mapping
 * phases and one open-loop serving phase. `e2ebench gen` writes a
 * workload's inputs for one seed into a directory (GFA, FASTQ and a
 * truth table per read set) in its own process, so the measuring
 * process starts from inputs on disk and its peak RSS excludes the
 * generator. README.md gives the reason each workload exists.
 */

#ifndef PGB_E2EBENCH_INPUTS_HPP
#define PGB_E2EBENCH_INPUTS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/mapper.hpp"
#include "pipeline/seeder.hpp"
#include "seq/sequence.hpp"
#include "truth.hpp"

namespace pgb::e2ebench {

/** One simulated 150 bp read set, written as <name>.fq + <name>.truth. */
struct ReadSetSpec
{
    const char *name = "";
    size_t count = 0;
};

/** One offline mapping phase: a tool over a prefix of a read set. */
struct PhaseSpec
{
    const char *label = ""; ///< tool name printed next to map1/map2
    pipeline::ToolProfile profile = pipeline::ToolProfile::kVgMap;
    pipeline::SeederKind seeder = pipeline::SeederKind::kMinimizer;
    const char *readSet = "";
    size_t roundReads = 0; ///< reads per timed mapBatch call
    double minCorrect = 0.0; ///< correct_frac below this fails the run
};

/** The serving phase: closed-loop windows, then open-loop windows. */
struct ServeSpec
{
    const char *label = "";
    pipeline::ToolProfile profile = pipeline::ToolProfile::kVgMap;
    const char *readSet = "";
    size_t poolReads = 0;     ///< reads the requests cycle through
    double rate = 0.0;        ///< open loop, requests/s (never derived)
    size_t closedRequests = 0; ///< per closed-loop window
    double minCorrect = 0.0;
};

struct WorkloadSpec
{
    const char *name = "";
    size_t components = 1;
    size_t baseLength = 0; ///< reference bases per component
    size_t haplotypes = 0; ///< haplotypes per component
    bool sharded = false;  ///< .pgbs shard set instead of one .pgbi
    std::vector<ReadSetSpec> readSets;
    PhaseSpec map1, map2;
    ServeSpec serve;
};

/** The workload called @p name; fatal when there is none. */
const WorkloadSpec &workloadByName(const std::string &name);

/** Write @p spec's inputs for @p seed into @p dir. */
void generateInputs(const WorkloadSpec &spec, uint64_t seed,
                    const std::string &dir);

/** A read set as written by generateInputs. */
struct ReadSet
{
    std::vector<seq::Sequence> reads;
    std::vector<ReadOrigin> origins; ///< by read index
};

/** Read back the read set @p name from @p dir. */
ReadSet loadReadSet(const std::string &dir, const std::string &name);

/** Path of the workload graph inside an input directory. */
std::string graphPath(const std::string &dir);

/**
 * MD5 over every input file of @p spec in @p dir, in a fixed order:
 * two runs with one seed must print the same digest.
 */
std::string inputDigest(const WorkloadSpec &spec, const std::string &dir);

} // namespace pgb::e2ebench

#endif // PGB_E2EBENCH_INPUTS_HPP
