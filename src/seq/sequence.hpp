/**
 * @file
 * Named DNA sequence value type.
 *
 * Sequences store 1-byte base codes (see alphabet.hpp) rather than
 * ASCII so alignment kernels can index scoring tables without
 * re-encoding in inner loops.
 */

#ifndef PGB_SEQ_SEQUENCE_HPP
#define PGB_SEQ_SEQUENCE_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "seq/alphabet.hpp"

namespace pgb::seq {

/** A named DNA sequence of encoded bases. */
class Sequence
{
  public:
    Sequence() = default;

    /** Construct from a name and an ASCII base string. */
    Sequence(std::string name, const std::string &bases);

    /** Construct unnamed from encoded codes. */
    explicit Sequence(std::vector<uint8_t> codes)
        : codes_(std::move(codes))
    {
    }

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    size_t size() const { return codes_.size(); }
    bool empty() const { return codes_.empty(); }

    /** Base code at position @p index. */
    uint8_t at(size_t index) const { return codes_[index]; }
    uint8_t operator[](size_t index) const { return codes_[index]; }

    const std::vector<uint8_t> &codes() const { return codes_; }
    std::vector<uint8_t> &codes() { return codes_; }

    /** Append one base code. */
    void push(uint8_t code) { codes_.push_back(code); }

    /** Append all bases of @p other. */
    void append(const Sequence &other);

    /** Subsequence [start, start+length) as a new unnamed Sequence. */
    Sequence slice(size_t start, size_t length) const;

    /** Reverse complement as a new unnamed Sequence. */
    Sequence reverseComplement() const;

    /** ASCII rendering. */
    std::string toString() const;

    bool
    operator==(const Sequence &other) const
    {
        return codes_ == other.codes_;
    }

  private:
    std::string name_;
    std::vector<uint8_t> codes_;
};

/**
 * Write the reverse complement of @p codes into @p out, which must
 * hold exactly codes.size() bases and must not overlap @p codes.
 */
void reverseComplementInto(std::span<const uint8_t> codes,
                           std::span<uint8_t> out);

/** Encode an ASCII string into base codes. */
std::vector<uint8_t> encodeString(const std::string &bases);

/** Decode base codes into an ASCII string. */
std::string decodeString(const std::vector<uint8_t> &codes);

} // namespace pgb::seq

#endif // PGB_SEQ_SEQUENCE_HPP
