/**
 * @file
 * DNA alphabet: 2-bit base codes, complement, and character conversion.
 *
 * Bases are encoded A=0, C=1, G=2, T=3 so that complement is code ^ 3
 * and codes index packed tables directly. Unknown characters map to N
 * (code 4), which alignment kernels treat as a universal mismatch.
 */

#ifndef PGB_SEQ_ALPHABET_HPP
#define PGB_SEQ_ALPHABET_HPP

#include <array>
#include <cstdint>

namespace pgb::seq {

/** Number of concrete bases (A, C, G, T). */
constexpr int kNumBases = 4;

/** Code reserved for ambiguous/unknown characters. */
constexpr uint8_t kBaseN = 4;

/** Encode an ASCII nucleotide character (case-insensitive) to a code. */
constexpr uint8_t
encodeBase(char c)
{
    switch (c) {
      case 'A': case 'a': return 0;
      case 'C': case 'c': return 1;
      case 'G': case 'g': return 2;
      case 'T': case 't': return 3;
      default: return kBaseN;
    }
}

/** Decode a base code back to an uppercase ASCII character. */
constexpr char
decodeBase(uint8_t code)
{
    constexpr std::array<char, 5> table = {'A', 'C', 'G', 'T', 'N'};
    return table[code <= kBaseN ? code : kBaseN];
}

/** Complement of a base code (N maps to N). */
constexpr uint8_t
complementBase(uint8_t code)
{
    return code < kNumBases ? static_cast<uint8_t>(code ^ 3) : kBaseN;
}

/** Complement of an ASCII nucleotide character. */
constexpr char
complementChar(char c)
{
    return decodeBase(complementBase(encodeBase(c)));
}

} // namespace pgb::seq

#endif // PGB_SEQ_ALPHABET_HPP
