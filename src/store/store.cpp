#include "store/store.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <span>
#include <type_traits>
#include <utility>

#include "core/fault.hpp"
#include "core/io.hpp"
#include "core/logging.hpp"
#include "obs/metrics.hpp"
#include "store/format.hpp"

namespace pgb::store {

namespace {

using core::fatal;

core::FaultSite faultOpen(
    "store.open", "FatalError, non-zero CLI exit; artifact untouched");
core::FaultSite faultMmap(
    "store.mmap", "FatalError, non-zero CLI exit; artifact untouched");
core::FaultSite faultSection(
    "store.section", "FatalError, non-zero CLI exit; fails closed");
core::FaultSite faultChecksum(
    "store.checksum", "FatalError, non-zero CLI exit; fails closed");

obs::Counter obsWrites("store.artifacts_written");
obs::Counter obsLoads("store.artifacts_loaded");
obs::Counter obsBytesLoaded("store.bytes_loaded");

/** Render a fourcc tag for diagnostics ("MTAB"). */
std::string
tagName(uint32_t tag)
{
    std::string name(4, '?');
    for (int i = 0; i < 4; ++i) {
        const char c = static_cast<char>((tag >> (8 * i)) & 0xff);
        name[static_cast<size_t>(i)] =
            c >= 0x20 && c < 0x7f ? c : '?';
    }
    return name;
}

/** One section payload being assembled by the writer. */
struct Section
{
    uint32_t tag;
    std::vector<uint8_t> bytes;
};

template <typename T>
void
appendRaw(std::vector<uint8_t> &out, const T *data, size_t count)
{
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t bytes = count * sizeof(T);
    const size_t at = out.size();
    out.resize(at + bytes);
    if (bytes > 0)
        std::memcpy(out.data() + at, data, bytes);
}

/** A section holding @p values' elements (a vector or a span). */
template <typename Values>
Section
makeSection(uint32_t tag, const Values &values)
{
    Section section{tag, {}};
    appendRaw(section.bytes, std::data(values), std::size(values));
    return section;
}

size_t
alignUp(size_t offset)
{
    return (offset + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

// ---------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------

/** A validated section: tag plus its mapped byte range. */
struct LoadedSection
{
    uint32_t tag = 0;
    const uint8_t *data = nullptr;
    size_t length = 0;
};

/** Find a required section by tag. */
const LoadedSection &
need(const std::string &path, const std::vector<LoadedSection> &sections,
     uint32_t tag)
{
    for (const LoadedSection &section : sections) {
        if (section.tag == tag)
            return section;
    }
    fatal(path, ": missing required section ", tagName(tag));
}

/** Find an optional section by tag; nullptr when absent. */
const LoadedSection *
maybe(const std::vector<LoadedSection> &sections, uint32_t tag)
{
    for (const LoadedSection &section : sections) {
        if (section.tag == tag)
            return &section;
    }
    return nullptr;
}

/**
 * View a section as @p count records of type T, checking the length
 * matches exactly (a count mismatch means the file is internally
 * inconsistent even though checksums passed — fail closed).
 */
template <typename T>
const T *
viewAs(const std::string &path, const LoadedSection &section,
       size_t count)
{
    static_assert(std::is_trivially_copyable_v<T>);
    if (section.length != count * sizeof(T)) {
        fatal(path, ": section ", tagName(section.tag), " holds ",
              section.length, " bytes, expected ", count * sizeof(T));
    }
    return reinterpret_cast<const T *>(section.data);
}

/**
 * Check a BWRD image record by record (layout: GbwtIndex::words()) and
 * return each record's first word. Fails closed on a record whose
 * header, edge pairs or body run past the section, on words after the
 * last record, on a record count other than @p expected_records, on a
 * body edge index past the record's edge list, on body lengths that do
 * not add up to the record's size, on a successor past the record
 * table, and on a successor block that overruns the successor's visits.
 */
std::vector<size_t>
checkGbwtWords(const std::string &path, std::span<const uint32_t> words,
               bool rle, size_t expected_records)
{
    constexpr size_t kHeader = index::GbwtIndex::kHeaderWords;
    std::vector<size_t> starts(expected_records);
    // Visits per edge, every record's edges back to back: the blocks
    // the second pass checks against the successors' sizes.
    std::vector<uint32_t> blocks;
    size_t at = 0;
    for (size_t r = 0; r < expected_records; ++r) {
        if (at == words.size())
            fatal(path, ": BWRD holds ", r, " records, graph needs ",
                  expected_records);
        const size_t left = words.size() - at;
        if (left < kHeader)
            fatal(path, ": GBWT record ", r, " header runs past BWRD");
        const uint32_t size = words[at];
        const uint32_t edge_count = words[at + 1];
        const uint64_t edge_words = 2 * uint64_t{edge_count};
        const uint64_t body_words = uint64_t{words[at + 2]} * (rle ? 2 : 1);
        if (edge_words > left - kHeader)
            fatal(path, ": GBWT record ", r, " edges run past BWRD");
        if (body_words > left - kHeader - edge_words)
            fatal(path, ": GBWT record ", r, " body runs past BWRD");
        starts[r] = at;
        const size_t first = blocks.size();
        blocks.resize(first + edge_count, 0);
        uint64_t visits = 0;
        const uint32_t *body = words.data() + at + kHeader + edge_words;
        for (uint64_t i = 0; i < body_words; i += rle ? 2 : 1) {
            const uint32_t edge = body[i];
            const uint32_t len = rle ? body[i + 1] : 1;
            if (edge >= edge_count)
                fatal(path, ": GBWT record ", r, " body names edge ",
                      edge, " of ", edge_count);
            blocks[first + edge] += len;
            visits += len;
        }
        if (visits != size)
            fatal(path, ": GBWT record ", r, " body holds ", visits,
                  " visits, header says ", size);
        at += kHeader + edge_words + body_words;
    }
    if (at != words.size())
        fatal(path, ": BWRD holds ", words.size() - at,
              " words after the last record");

    size_t edge_at = 0;
    for (size_t r = 0; r < expected_records; ++r) {
        const uint32_t *edges = words.data() + starts[r] + kHeader;
        for (uint32_t e = 0; e < words[starts[r] + 1]; ++e, ++edge_at) {
            const uint32_t successor = edges[2 * e];
            if (successor >= expected_records)
                fatal(path, ": GBWT record ", r, " edge ", e,
                      " names record ", successor, " of ",
                      expected_records);
            // Record 0 is the end marker: its edge is never followed.
            if (successor != 0 &&
                uint64_t{edges[2 * e + 1]} + blocks[edge_at] >
                    words[starts[successor]])
                fatal(path, ": GBWT record ", r, " edge ", e,
                      " block overruns record ", successor);
        }
    }
    return starts;
}

} // namespace

void
writeArtifact(const std::string &path, const graph::PanGraph &graph,
              const index::MinimizerIndex &minimizers,
              const index::GbwtIndex *gbwt, const index::FmIndex *fm,
              const ShardExtras *extras)
{
    const size_t node_count = graph.nodeCount();
    const size_t path_count = graph.pathCount();
    if (extras != nullptr &&
        (extras->origNodes.size() != node_count ||
         extras->linearBases.size() != node_count)) {
        fatal(path, ": shard extras hold ", extras->origNodes.size(),
              "/", extras->linearBases.size(), " entries, graph has ",
              node_count, " nodes");
    }

    // ---- Assemble section payloads.
    std::vector<Section> sections;

    Meta meta = {};
    meta.nodeCount = node_count;
    meta.edgeCount = graph.edgeCount();
    meta.pathCount = path_count;
    meta.k = static_cast<uint32_t>(minimizers.k());
    meta.w = static_cast<uint32_t>(minimizers.w());
    if (gbwt != nullptr) {
        meta.flags |= kFlagHasGbwt;
        if (gbwt->runLengthEncoded())
            meta.flags |= kFlagGbwtRle;
    }
    if (fm != nullptr)
        meta.flags |= kFlagHasFmIndex;
    {
        Section section{kSecMeta, {}};
        appendRaw(section.bytes, &meta, 1);
        sections.push_back(std::move(section));
    }

    // Graph: node sequences.
    {
        std::vector<uint8_t> seq_bytes;
        std::vector<uint64_t> seq_offsets;
        seq_offsets.reserve(node_count + 1);
        seq_offsets.push_back(0);
        for (graph::NodeId node = 0; node < node_count; ++node) {
            const auto &codes = graph.nodeSequence(node).codes();
            appendRaw(seq_bytes, codes.data(), codes.size());
            seq_offsets.push_back(seq_bytes.size());
        }
        sections.push_back({kSecGraphSeq, std::move(seq_bytes)});
        sections.push_back(makeSection(kSecGraphSeqOffsets, seq_offsets));
    }

    // Graph: adjacency per oriented handle.
    {
        std::vector<uint32_t> adj;
        std::vector<uint64_t> adj_offsets;
        adj_offsets.reserve(node_count * 2 + 1);
        adj_offsets.push_back(0);
        for (uint32_t packed = 0; packed < node_count * 2; ++packed) {
            for (graph::Handle successor :
                 graph.successors(graph::Handle::fromPacked(packed)))
                adj.push_back(successor.packed());
            adj_offsets.push_back(adj.size());
        }
        sections.push_back(makeSection(kSecGraphAdj, adj));
        sections.push_back(makeSection(kSecGraphAdjOffsets, adj_offsets));
    }

    // Graph: embedded paths.
    {
        std::vector<uint32_t> steps;
        std::vector<uint64_t> step_offsets;
        std::vector<uint8_t> names;
        step_offsets.reserve(path_count + 1);
        step_offsets.push_back(0);
        for (graph::PathId p = 0; p < path_count; ++p) {
            for (graph::Handle step : graph.pathSteps(p))
                steps.push_back(step.packed());
            step_offsets.push_back(steps.size());
            const std::string &name = graph.pathName(p);
            appendRaw(names, name.c_str(), name.size() + 1);
        }
        sections.push_back(makeSection(kSecPathSteps, steps));
        sections.push_back(makeSection(kSecPathStepOffsets, step_offsets));
        sections.push_back({kSecPathNames, std::move(names)});
    }

    // Minimizer index and GBWT (optional): zero-copy sections.
    sections.push_back(makeSection(kSecMinimizerTable,
                                   minimizers.flatTable()));
    sections.push_back(makeSection(kSecMinimizerHits,
                                   minimizers.allHits()));
    if (gbwt != nullptr)
        sections.push_back(makeSection(kSecGbwtWords, gbwt->words()));

    // FM-index (optional): the second family of zero-copy sections.
    if (fm != nullptr) {
        FmMeta fm_meta = {};
        fm_meta.textLength = fm->textLength();
        fm_meta.sampleRate = fm->sampleRate();
        Section fmet{kSecFmMeta, {}};
        appendRaw(fmet.bytes, &fm_meta, 1);
        sections.push_back(std::move(fmet));

        sections.push_back(makeSection(kSecFmBwt, fm->bwtData()));
        sections.push_back(makeSection(kSecFmSamples, fm->sampleData()));
        sections.push_back(makeSection(kSecFmMarks, fm->markData()));
        sections.push_back(makeSection(kSecFmPathOffsets,
                                       fm->pathOffsetsData()));
    }

    // Shard projection (optional): written by `pgb shard` only.
    if (extras != nullptr) {
        sections.push_back(makeSection(kSecShardNodes,
                                       extras->origNodes));
        sections.push_back(makeSection(kSecShardLinear,
                                       extras->linearBases));
    }

    // ---- Lay out the file: header, table, aligned payloads.
    Header header = {};
    std::memcpy(header.magic, kMagic, sizeof(kMagic));
    header.version = kFormatVersion;
    header.endian = kEndianTag;
    header.sectionCount = sections.size();

    std::vector<SectionDesc> table(sections.size());
    size_t offset = sizeof(Header) +
                    sections.size() * sizeof(SectionDesc);
    for (size_t s = 0; s < sections.size(); ++s) {
        offset = alignUp(offset);
        table[s].tag = sections[s].tag;
        table[s].reserved = 0;
        table[s].offset = offset;
        table[s].length = sections[s].bytes.size();
        table[s].checksum = fnv1a64(sections[s].bytes.data(),
                                    sections[s].bytes.size());
        offset += sections[s].bytes.size();
    }
    header.fileBytes = alignUp(offset);
    header.tableChecksum =
        fnv1a64(table.data(), table.size() * sizeof(SectionDesc));

    // ---- Checked write into a temp file, then atomic rename: a
    // failed or interrupted write never leaves a partial `.pgbi`.
    const std::string tmp_path = path + ".tmp";
    try {
        core::CheckedWriter out(tmp_path);
        auto put = [&](const void *data, size_t bytes) {
            out.stream().write(static_cast<const char *>(data),
                               static_cast<std::streamsize>(bytes));
        };
        auto pad_to = [&](size_t target) {
            static const char zeros[kSectionAlign] = {};
            const auto at =
                static_cast<size_t>(out.stream().tellp());
            if (at < target)
                put(zeros, target - at);
        };
        put(&header, sizeof(header));
        put(table.data(), table.size() * sizeof(SectionDesc));
        for (size_t s = 0; s < sections.size(); ++s) {
            pad_to(table[s].offset);
            put(sections[s].bytes.data(), sections[s].bytes.size());
        }
        pad_to(header.fileBytes);
        out.finish();
    } catch (...) {
        std::remove(tmp_path.c_str());
        throw;
    }
    if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
        const int err = errno;
        std::remove(tmp_path.c_str());
        fatal(path, ": cannot rename temp artifact into place: ",
              std::strerror(err));
    }
    obsWrites.add();
}

std::unique_ptr<Artifact>
Artifact::load(const std::string &path)
{
    if (faultOpen.fire())
        fatal(path, ": cannot open: injected fault");

    auto artifact = std::unique_ptr<Artifact>(new Artifact());
    artifact->path_ = path;
    artifact->arena_ = core::Arena::mapReadOnly(path);
    const core::Arena &arena = artifact->arena_;
    if (faultMmap.fire())
        fatal(path, ": cannot map: injected fault");

    // ---- Header.
    if (arena.size() < sizeof(Header))
        fatal(path, ": truncated artifact (", arena.size(),
              " bytes, header needs ", sizeof(Header), ")");
    Header header;
    std::memcpy(&header, arena.at(0), sizeof(header));
    if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0)
        fatal(path, ": not a .pgbi artifact (bad magic)");
    if (header.version != kFormatVersion) {
        fatal(path, ": format version ", header.version,
              " unsupported (this build reads version ",
              kFormatVersion, ")");
    }
    if (header.endian != kEndianTag) {
        fatal(path, ": artifact was written on a machine of the "
                    "other endianness");
    }
    if (header.sectionCount > kMaxSections)
        fatal(path, ": implausible section count ",
              header.sectionCount);
    if (header.fileBytes != arena.size()) {
        fatal(path, ": truncated artifact (header claims ",
              header.fileBytes, " bytes, file has ", arena.size(), ")");
    }

    // ---- Section table.
    const size_t table_bytes =
        static_cast<size_t>(header.sectionCount) * sizeof(SectionDesc);
    if (sizeof(Header) + table_bytes > arena.size())
        fatal(path, ": truncated artifact (section table past EOF)");
    std::vector<SectionDesc> table(header.sectionCount);
    if (table_bytes > 0)
        std::memcpy(table.data(), arena.at(sizeof(Header)), table_bytes);
    if (fnv1a64(table.data(), table_bytes) != header.tableChecksum)
        fatal(path, ": section table corrupt (checksum mismatch)");
    artifact->tableChecksum_ = header.tableChecksum;

    std::vector<LoadedSection> sections;
    sections.reserve(table.size());
    for (const SectionDesc &desc : table) {
        if (faultSection.fire() ||
            desc.offset % kSectionAlign != 0 ||
            desc.offset > arena.size() ||
            desc.length > arena.size() - desc.offset) {
            fatal(path, ": section ", tagName(desc.tag),
                  " out of bounds (offset ", desc.offset, ", length ",
                  desc.length, ", file ", arena.size(), " bytes)");
        }
        if (faultChecksum.fire() ||
            fnv1a64(arena.at(desc.offset), desc.length) !=
                desc.checksum) {
            fatal(path, ": section ", tagName(desc.tag),
                  " corrupt (checksum mismatch)");
        }
        sections.push_back(
            {desc.tag, arena.at(desc.offset), desc.length});
    }

    // ---- META.
    const Meta &meta =
        *viewAs<Meta>(path, need(path, sections, kSecMeta), 1);
    const auto node_count = static_cast<size_t>(meta.nodeCount);
    const auto path_count = static_cast<size_t>(meta.pathCount);
    // The minimizer scan shifts by 2(k - 1) and masks 2k bits.
    if (meta.k < 1 || meta.k > 32)
        fatal(path, ": META k = ", meta.k, " is outside [1, 32]");
    if (meta.w < 1)
        fatal(path, ": META w = ", meta.w, " is below 1");
    artifact->k_ = static_cast<int>(meta.k);
    artifact->w_ = static_cast<int>(meta.w);

    // ---- Graph (single bulk copy per section).
    {
        const auto &seq = need(path, sections, kSecGraphSeq);
        const uint64_t *seq_offsets = viewAs<uint64_t>(
            path, need(path, sections, kSecGraphSeqOffsets),
            node_count + 1);
        if (node_count > 0 && seq_offsets[node_count] != seq.length)
            fatal(path, ": GSEQ/GSOF sections disagree");
        std::vector<seq::Sequence> node_seqs;
        node_seqs.reserve(node_count);
        for (size_t node = 0; node < node_count; ++node) {
            const uint64_t lo = seq_offsets[node];
            const uint64_t hi = seq_offsets[node + 1];
            if (lo > hi || hi > seq.length)
                fatal(path, ": GSOF offsets are not monotone");
            node_seqs.emplace_back(std::vector<uint8_t>(
                seq.data + lo, seq.data + hi));
        }

        const auto &adj = need(path, sections, kSecGraphAdj);
        const uint64_t *adj_offsets = viewAs<uint64_t>(
            path, need(path, sections, kSecGraphAdjOffsets),
            node_count * 2 + 1);
        const uint32_t *adj_data =
            viewAs<uint32_t>(path, adj,
                             adj.length / sizeof(uint32_t));
        if (adj_offsets[node_count * 2] !=
            adj.length / sizeof(uint32_t))
            fatal(path, ": GADJ/GAOF sections disagree");
        std::vector<std::vector<graph::Handle>> adjacency(
            node_count * 2);
        for (size_t h = 0; h < node_count * 2; ++h) {
            const uint64_t lo = adj_offsets[h];
            const uint64_t hi = adj_offsets[h + 1];
            if (lo > hi)
                fatal(path, ": GAOF offsets are not monotone");
            adjacency[h].reserve(hi - lo);
            for (uint64_t i = lo; i < hi; ++i) {
                const uint32_t packed = adj_data[i];
                if (packed >= node_count * 2)
                    fatal(path, ": GADJ references node ",
                          packed >> 1, " of ", node_count);
                adjacency[h].push_back(
                    graph::Handle::fromPacked(packed));
            }
        }

        const auto &steps = need(path, sections, kSecPathSteps);
        const uint64_t *step_offsets = viewAs<uint64_t>(
            path, need(path, sections, kSecPathStepOffsets),
            path_count + 1);
        const uint32_t *step_data = viewAs<uint32_t>(
            path, steps, steps.length / sizeof(uint32_t));
        if (step_offsets[path_count] != steps.length / sizeof(uint32_t))
            fatal(path, ": PSTP/PSOF sections disagree");
        std::vector<std::vector<graph::Handle>> paths(path_count);
        for (size_t p = 0; p < path_count; ++p) {
            const uint64_t lo = step_offsets[p];
            const uint64_t hi = step_offsets[p + 1];
            if (lo > hi)
                fatal(path, ": PSOF offsets are not monotone");
            paths[p].reserve(hi - lo);
            for (uint64_t i = lo; i < hi; ++i) {
                const uint32_t packed = step_data[i];
                if (packed >= node_count * 2)
                    fatal(path, ": path step references node ",
                          packed >> 1, " of ", node_count);
                paths[p].push_back(graph::Handle::fromPacked(packed));
            }
        }

        const auto &names = need(path, sections, kSecPathNames);
        std::vector<std::string> path_names;
        path_names.reserve(path_count);
        size_t at = 0;
        for (size_t p = 0; p < path_count; ++p) {
            const auto *begin = names.data + at;
            const auto *end = static_cast<const uint8_t *>(
                std::memchr(begin, '\0', names.length - at));
            if (end == nullptr)
                fatal(path, ": PNAM section is not NUL-terminated");
            path_names.emplace_back(
                reinterpret_cast<const char *>(begin),
                static_cast<size_t>(end - begin));
            at += path_names.back().size() + 1;
        }

        artifact->graph_ = graph::PanGraph::restore(
            std::move(node_seqs), std::move(adjacency),
            static_cast<size_t>(meta.edgeCount), std::move(paths),
            std::move(path_names));
    }

    // ---- Minimizer index: zero-copy spans over the mapping, and the
    // hash directory derived in the pass that checks them.
    {
        const auto &table_sec = need(path, sections, kSecMinimizerTable);
        const auto &hits_sec = need(path, sections, kSecMinimizerHits);
        const size_t entry_count =
            table_sec.length / sizeof(index::MinimizerIndex::TableEntry);
        const size_t hit_count =
            hits_sec.length / sizeof(index::GraphSeedHit);
        const auto *entries =
            viewAs<index::MinimizerIndex::TableEntry>(path, table_sec,
                                                      entry_count);
        const auto *hits =
            viewAs<index::GraphSeedHit>(path, hits_sec, hit_count);
        if (entry_count > UINT32_MAX)
            fatal(path, ": MTAB holds ", entry_count,
                  " entries, more than 2^32 - 1");
        const uint64_t hash_mask =
            meta.k < 32 ? (1ull << (2 * meta.k)) - 1 : ~0ull;
        index::HashDirectory directory(artifact->k_, entry_count);
        for (size_t e = 0; e < entry_count; ++e) {
            if (entries[e].begin > entries[e].end ||
                entries[e].end > hit_count)
                fatal(path, ": MTAB entry ", e,
                      " points outside MHIT");
            if (e > 0 && entries[e - 1].hash >= entries[e].hash)
                fatal(path, ": MTAB is not sorted by hash");
            if (entries[e].hash > hash_mask)
                fatal(path, ": MTAB entry ", e, " hash exceeds ",
                      2 * meta.k, " bits");
            directory.add(static_cast<uint32_t>(e), entries[e].hash);
        }
        artifact->minimizers_ =
            std::make_unique<index::MinimizerIndex>(
                artifact->k_, artifact->w_,
                std::span<const index::MinimizerIndex::TableEntry>(
                    entries, entry_count),
                std::span<const index::GraphSeedHit>(hits, hit_count),
                std::move(directory));
    }

    // ---- GBWT: a zero-copy span over BWRD, and the record starts
    // derived in the pass that checks it.
    if ((meta.flags & kFlagHasGbwt) != 0) {
        const bool rle = (meta.flags & kFlagGbwtRle) != 0;
        const auto &words_sec = need(path, sections, kSecGbwtWords);
        const std::span<const uint32_t> words(
            viewAs<uint32_t>(path, words_sec,
                             words_sec.length / sizeof(uint32_t)),
            words_sec.length / sizeof(uint32_t));
        auto starts = checkGbwtWords(path, words, rle, node_count * 2 + 1);
        artifact->gbwt_ = std::make_unique<index::GbwtIndex>(
            rle, words, std::move(starts));
    }

    // ---- FM-index: zero-copy spans over the mapping. Checksums have
    // already passed, so these checks target internal inconsistency:
    // a symbol outside the alphabet would misindex the derived C/rank
    // structures.
    if ((meta.flags & kFlagHasFmIndex) != 0) {
        const FmMeta &fm_meta =
            *viewAs<FmMeta>(path, need(path, sections, kSecFmMeta), 1);
        if (fm_meta.sampleRate == 0)
            fatal(path, ": FMET sample rate is zero");
        const auto n = static_cast<size_t>(fm_meta.textLength);
        const uint8_t *bwt =
            viewAs<uint8_t>(path, need(path, sections, kSecFmBwt), n);
        for (size_t r = 0; r < n; ++r)
            if (bwt[r] >= index::FmIndex::kAlphabet)
                fatal(path, ": FBWT holds symbol ", bwt[r],
                      " outside the FM alphabet");

        const uint64_t *marks = viewAs<uint64_t>(
            path, need(path, sections, kSecFmMarks), (n + 63) / 64);
        uint64_t marked = 0;
        for (size_t w = 0; w < (n + 63) / 64; ++w)
            marked += static_cast<uint64_t>(
                __builtin_popcountll(marks[w]));
        if (n % 64 != 0 && n > 0 &&
            (marks[(n - 1) / 64] >> (n % 64)) != 0)
            fatal(path, ": FMRK has mark bits past the text end");
        const uint32_t *samples = viewAs<uint32_t>(
            path, need(path, sections, kSecFmSamples),
            static_cast<size_t>(marked));
        for (uint64_t s = 0; s < marked; ++s)
            if (samples[s] >= n)
                fatal(path, ": FSSA sample ", s,
                      " points past the text end");

        const uint64_t *fm_offsets = viewAs<uint64_t>(
            path, need(path, sections, kSecFmPathOffsets),
            path_count + 1);
        if (path_count == 0)
            fatal(path, ": FM-index artifact has no embedded paths");
        if (fm_offsets[0] != 0 ||
            fm_offsets[path_count] != fm_meta.textLength)
            fatal(path, ": FPOF does not span the FM text");
        for (size_t p = 0; p < path_count; ++p) {
            if (fm_offsets[p + 1] <= fm_offsets[p])
                fatal(path, ": FPOF offsets are not monotone");
            if (fm_offsets[p + 1] - fm_offsets[p] !=
                artifact->graph_.pathLength(
                    static_cast<graph::PathId>(p)) + 1)
                fatal(path, ": FPOF disagrees with the graph's paths");
        }

        artifact->fm_ = std::make_unique<index::FmIndex>(
            fm_meta.sampleRate,
            std::span<const uint8_t>(bwt, n),
            std::span<const uint32_t>(samples,
                                      static_cast<size_t>(marked)),
            std::span<const uint64_t>(marks, (n + 63) / 64),
            std::span<const uint64_t>(fm_offsets, path_count + 1));
    }

    // ---- Shard projection (optional): zero-copy spans. A shard
    // carries both sections or neither; each maps one record per node.
    {
        const LoadedSection *nodes_sec = maybe(sections, kSecShardNodes);
        const LoadedSection *linear_sec =
            maybe(sections, kSecShardLinear);
        if ((nodes_sec == nullptr) != (linear_sec == nullptr))
            fatal(path, ": artifact holds only one of SNOD/SLIN");
        if (nodes_sec != nullptr) {
            if (node_count == 0)
                fatal(path, ": SNOD present in an empty graph");
            const uint32_t *orig = viewAs<uint32_t>(path, *nodes_sec,
                                                    node_count);
            const uint64_t *linear = viewAs<uint64_t>(
                path, *linear_sec, node_count);
            for (size_t i = 1; i < node_count; ++i) {
                if (orig[i - 1] >= orig[i])
                    fatal(path, ": SNOD global ids are not strictly "
                                "increasing");
            }
            artifact->origNodes_ =
                std::span<const uint32_t>(orig, node_count);
            artifact->linearBases_ =
                std::span<const uint64_t>(linear, node_count);
        }
    }

    obsLoads.add();
    obsBytesLoaded.add(arena.size());
    return artifact;
}

uint64_t
readTableChecksum(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        fatal(path, ": cannot open: ", std::strerror(errno));
    Header header;
    const size_t got = std::fread(&header, 1, sizeof(header), file);
    std::fclose(file);
    if (got != sizeof(header))
        fatal(path, ": truncated artifact (", got,
              " bytes, header needs ", sizeof(Header), ")");
    if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0)
        fatal(path, ": not a .pgbi artifact (bad magic)");
    return header.tableChecksum;
}

} // namespace pgb::store
