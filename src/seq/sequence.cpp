#include "seq/sequence.hpp"

#include <cstddef>

namespace pgb::seq {

Sequence::Sequence(std::string name, const std::string &bases)
    : name_(std::move(name)), codes_(encodeString(bases))
{
}

void
Sequence::append(const Sequence &other)
{
    codes_.insert(codes_.end(), other.codes_.begin(), other.codes_.end());
}

Sequence
Sequence::slice(size_t start, size_t length) const
{
    const size_t end = std::min(start + length, codes_.size());
    Sequence out;
    if (start < end) {
        out.codes_.assign(codes_.begin() + static_cast<ptrdiff_t>(start),
                          codes_.begin() + static_cast<ptrdiff_t>(end));
    }
    return out;
}

Sequence
Sequence::reverseComplement() const
{
    Sequence out;
    out.codes_.resize(codes_.size());
    reverseComplementInto(codes_, out.codes_);
    return out;
}

void
reverseComplementInto(std::span<const uint8_t> codes,
                      std::span<uint8_t> out)
{
    for (size_t i = 0; i < codes.size(); ++i)
        out[i] = complementBase(codes[codes.size() - 1 - i]);
}

std::string
Sequence::toString() const
{
    return decodeString(codes_);
}

std::vector<uint8_t>
encodeString(const std::string &bases)
{
    std::vector<uint8_t> codes;
    codes.reserve(bases.size());
    for (char c : bases)
        codes.push_back(encodeBase(c));
    return codes;
}

std::string
decodeString(const std::vector<uint8_t> &codes)
{
    std::string out;
    out.reserve(codes.size());
    for (uint8_t code : codes)
        out.push_back(decodeBase(code));
    return out;
}

} // namespace pgb::seq
