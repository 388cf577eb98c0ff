/**
 * @file
 * On-disk layout of the `.pgbi` artifact (DESIGN.md §9).
 *
 * A `.pgbi` file is a fixed header, a section table, and 8-byte
 * aligned section payloads. Every multi-byte field is native-endian;
 * the header carries an endianness tag so a file moved to a machine
 * of the other sex fails closed instead of deserializing garbage.
 * Every section payload is checksummed (FNV-1a 64) and verified at
 * load, so a flipped bit anywhere in the payload is a one-line fatal,
 * never a crash deep inside the mapper.
 *
 * Version-bump rules: kFormatVersion changes whenever the header, the
 * section table, a section's record layout, or the meaning of an
 * existing field changes. Adding a new optional section does NOT bump
 * the version (readers ignore unknown tags), and neither does replacing
 * a section family with a new required tag: each reader then fails
 * closed on the other's files with "missing required section".
 * Everything else does.
 */

#ifndef PGB_STORE_FORMAT_HPP
#define PGB_STORE_FORMAT_HPP

#include <cstddef>
#include <cstdint>

namespace pgb::store {

/** PNG-style magic: binary sniff + CRLF/text-mode corruption canary. */
constexpr uint8_t kMagic[8] = {0x89, 'P', 'G', 'B', 'I', '\r', '\n',
                               0x1a};

/** Bumped on any layout or semantics change (see file comment). */
constexpr uint32_t kFormatVersion = 1;

/** Written as-is; reads as 0x04030201 on the other endianness. */
constexpr uint32_t kEndianTag = 0x01020304;

/** Sanity cap: a garbage section count must not drive allocation. */
constexpr uint64_t kMaxSections = 64;

/** All payloads start on an 8-byte boundary. */
constexpr size_t kSectionAlign = 8;

/** Fixed-size file header at offset 0. */
struct Header
{
    uint8_t magic[8];
    uint32_t version;
    uint32_t endian;
    uint64_t sectionCount;
    uint64_t fileBytes;      ///< total file size (truncation canary)
    uint64_t tableChecksum;  ///< FNV-1a 64 of the section table bytes
    uint8_t reserved[24];
};

static_assert(sizeof(Header) == 64, ".pgbi header is 64 bytes");

/** One section-table entry, immediately after the header. */
struct SectionDesc
{
    uint32_t tag;      ///< fourcc, see below
    uint32_t reserved; ///< 0
    uint64_t offset;   ///< absolute file offset, 8-byte aligned
    uint64_t length;   ///< payload bytes (before padding)
    uint64_t checksum; ///< FNV-1a 64 of the payload bytes
};

static_assert(sizeof(SectionDesc) == 32,
              ".pgbi section descriptor is 32 bytes");

/** Section fourcc helper. */
constexpr uint32_t
fourcc(char a, char b, char c, char d)
{
    return static_cast<uint32_t>(static_cast<uint8_t>(a)) |
           static_cast<uint32_t>(static_cast<uint8_t>(b)) << 8 |
           static_cast<uint32_t>(static_cast<uint8_t>(c)) << 16 |
           static_cast<uint32_t>(static_cast<uint8_t>(d)) << 24;
}

// ---- Section tags -----------------------------------------------------
// Graph: node sequences + offsets, per-oriented-handle adjacency +
// offsets, path steps + offsets, NUL-joined path names.
constexpr uint32_t kSecMeta = fourcc('M', 'E', 'T', 'A');
constexpr uint32_t kSecGraphSeq = fourcc('G', 'S', 'E', 'Q');
constexpr uint32_t kSecGraphSeqOffsets = fourcc('G', 'S', 'O', 'F');
constexpr uint32_t kSecGraphAdj = fourcc('G', 'A', 'D', 'J');
constexpr uint32_t kSecGraphAdjOffsets = fourcc('G', 'A', 'O', 'F');
constexpr uint32_t kSecPathSteps = fourcc('P', 'S', 'T', 'P');
constexpr uint32_t kSecPathStepOffsets = fourcc('P', 'S', 'O', 'F');
constexpr uint32_t kSecPathNames = fourcc('P', 'N', 'A', 'M');
// Minimizer index: sorted TableEntry records + GraphSeedHit records.
// These two are the zero-copy sections: a loaded MinimizerIndex views
// them in place through std::span.
constexpr uint32_t kSecMinimizerTable = fourcc('M', 'T', 'A', 'B');
constexpr uint32_t kSecMinimizerHits = fourcc('M', 'H', 'I', 'T');
// GBWT: every record's u32 words back to back, in GbwtIndex::words()
// layout (zero-copy; the record starts are derived in the load's check
// pass). META's kFlagGbwtRle says how the bodies are encoded.
constexpr uint32_t kSecGbwtWords = fourcc('B', 'W', 'R', 'D');
// FM-index (optional, --seeder=mem): FmMeta scalars, BWT bytes,
// sampled SA values, mark bitvector words, path text offsets.
// FBWT/FSSA/FMRK/FPOF are zero-copy: a loaded FmIndex views them in
// place through std::span, like the minimizer table, and derives its
// rank blocks from FBWT.
constexpr uint32_t kSecFmMeta = fourcc('F', 'M', 'E', 'T');
constexpr uint32_t kSecFmBwt = fourcc('F', 'B', 'W', 'T');
constexpr uint32_t kSecFmSamples = fourcc('F', 'S', 'S', 'A');
constexpr uint32_t kSecFmMarks = fourcc('F', 'M', 'R', 'K');
constexpr uint32_t kSecFmPathOffsets = fourcc('F', 'P', 'O', 'F');
// Shard-set projection (optional, written by `pgb shard`; no version
// bump per the rules above): per local node, the global node id in the
// monolithic graph (SNOD, u32) and the monolith's linearization base
// of that node (SLIN, u64). A shard artifact carries both or neither.
constexpr uint32_t kSecShardNodes = fourcc('S', 'N', 'O', 'D');
constexpr uint32_t kSecShardLinear = fourcc('S', 'L', 'I', 'N');

/** META payload: the scalar facts every other section is sized by. */
struct Meta
{
    uint64_t nodeCount;
    uint64_t edgeCount;
    uint64_t pathCount;
    uint32_t k;
    uint32_t w;
    uint32_t flags; ///< kFlagHasGbwt | kFlagGbwtRle | kFlagHasFmIndex
    uint32_t reserved;
};

static_assert(sizeof(Meta) == 40, ".pgbi META payload is 40 bytes");

constexpr uint32_t kFlagHasGbwt = 1u << 0;
constexpr uint32_t kFlagGbwtRle = 1u << 1;
constexpr uint32_t kFlagHasFmIndex = 1u << 2;

/** FMET payload: the scalars the FM-index sections are sized by. */
struct FmMeta
{
    uint64_t textLength; ///< BWT symbols (haplotype bases + sentinels)
    uint32_t sampleRate; ///< SA sampling rate (>= 1)
    uint32_t reserved;
};

static_assert(sizeof(FmMeta) == 16, ".pgbi FMET payload is 16 bytes");

/** FNV-1a 64: fast, dependency-free payload checksum. */
inline uint64_t
fnv1a64(const void *data, size_t bytes, uint64_t seed = 0xcbf29ce484222325ull)
{
    const auto *p = static_cast<const uint8_t *>(data);
    uint64_t hash = seed;
    for (size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

} // namespace pgb::store

#endif // PGB_STORE_FORMAT_HPP
