// Codes of SubTreePrepare's packed windows (the paper's R buffer).
//
// R holds, for every active leaf, the next `range` symbols of its suffix.
// Stored one byte per symbol, R wastes most of its bits: DNA needs 3 bits
// for its four symbols plus the terminal. WindowCode gives every symbol a
// code of b = bit_width(sigma + 1) bits, so the same bytes hold 8 / b times
// the symbols:
//   * symbol i of the alphabet (byte order) gets code i + 1;
//   * the terminal gets sigma + 1;
//   * 0 means "past the window's end".
// Code order is byte order, and a window that ends early sorts before a
// longer one with the same symbols, as a zero-padded byte compare would.
// b is 2 for a binary alphabet, 3 for DNA, 5 for protein and English, and
// 7 for the largest alphabet Alphabet::Create accepts.
//
// These are not Alphabet::bits_per_symbol() (the paper's terminal-free
// figure) nor EncodedString's layout (least-significant bit first, no code
// for the terminal or for the end of a window).

#ifndef ERA_ALPHABET_WINDOW_CODE_H_
#define ERA_ALPHABET_WINDOW_CODE_H_

#include <array>
#include <bit>
#include <cstdint>

#include "alphabet/alphabet.h"

namespace era {

class WindowCode {
 public:
  explicit WindowCode(const Alphabet& alphabet)
      : bits_(static_cast<uint32_t>(
            std::bit_width(static_cast<unsigned>(alphabet.size() + 1)))) {
    code_.fill(0);
    symbol_.fill(0);
    for (int i = 0; i <= alphabet.size(); ++i) {
      const char c = alphabet.Symbol(i);  // i == size() is the terminal
      code_[static_cast<uint8_t>(c)] = static_cast<uint8_t>(i + 1);
      symbol_[static_cast<std::size_t>(i + 1)] = c;
    }
  }

  /// Bits per code: bit_width(sigma + 1).
  uint32_t bits() const { return bits_; }
  /// Codes in one 64-bit word: 21 for DNA, 12 for protein and English.
  uint32_t symbols_per_word() const { return 64 / bits_; }

  /// The code of byte `c`, or 0 if it is neither a symbol nor the
  /// terminal: a packer must refuse it, since 0 marks a window's end.
  uint8_t Code(char c) const { return code_[static_cast<uint8_t>(c)]; }
  /// The byte of a nonzero code.
  char Symbol(uint64_t code) const { return symbol_[code]; }

 private:
  uint32_t bits_;
  std::array<uint8_t, 256> code_;
  std::array<char, 128> symbol_;
};

}  // namespace era

#endif  // ERA_ALPHABET_WINDOW_CODE_H_
