/**
 * @file
 * The per-read mapping digest the Golden and Shard suites pin against
 * the `.md5` files in tests/golden: one `name, mapped, node, score,
 * reverse` record per read, in input order, from pipeline::mapBatch —
 * the entry point `pgb map --dump` and `pgb serve` map through.
 */

#ifndef PGB_TESTS_MAPPING_DIGEST_HPP
#define PGB_TESTS_MAPPING_DIGEST_HPP

#include <sstream>
#include <string>
#include <vector>

#include "core/md5.hpp"
#include "pipeline/context.hpp"
#include "pipeline/mapper.hpp"

namespace pgb::test {

/** MD5 of @p reads' mapping records under @p tool's default config
 *  (threads = 1) against @p context. */
inline std::string
mappingDigest(const pipeline::MappingContext &context,
              pipeline::ToolProfile tool,
              const std::vector<seq::Sequence> &reads)
{
    auto config = pipeline::MapperConfig::forTool(tool);
    config.threads = 1;
    std::vector<pipeline::ReadMapping> mappings;
    pipeline::mapBatch(context, config, reads, mappings);
    std::ostringstream out;
    for (size_t i = 0; i < reads.size(); ++i) {
        const pipeline::ReadMapping &mapping = mappings[i];
        out << reads[i].name() << '\t' << mapping.mapped << '\t'
            << mapping.node << '\t' << mapping.score << '\t'
            << mapping.reverse << '\n';
    }
    return core::md5Hex(out.str());
}

} // namespace pgb::test

#endif // PGB_TESTS_MAPPING_DIGEST_HPP
