// A circuit is an ordered gate list over `num_qubits` wires. The order is a
// valid topological order of whichever dependency relation produced it; the
// scheduler (scheduler.hpp) turns it into parallel layers / weighted depth.
//
// Gate (gate.hpp) is the 16-byte value type of the API; the store keeps each
// gate as one 8-byte packed word instead, because the mappers emit Θ(n²)
// gates and every materialized result is as large as its store (QFT-8192 on
// the lattice is a 68.4M-gate, ~547 MB stream). `append` encodes, and
// `operator[]` and iteration decode, so callers still see Gate values. Word
// layout, low bit first:
//
//   kind:4 | q0:20 | q1:20 (all-ones = kInvalidQubit) | angle code:20
//
// The angle code holds ±0.0 and every ±ldexp(π, −k) for 0 <= k < 2048
// bit-exactly: every value qft_angle returns (its subnormal and underflowed
// ones included) and their negations. A gate that does not fit — a qubit
// index >= 2^20 − 1, or any other angle (an arbitrary rz, NaN, ±inf) — is
// stored whole in a per-circuit side table, and its word holds the table
// index under the reserved kind kEscapeKind: 24 B for that gate. Every bit
// pattern of every field round-trips either way.
//
// The word block is one flat, manually-grown block rather than std::vector:
// the emit hot path appends tens of millions of gates at device scale, and
// the vector's per-push end-pointer write-back plus its value-initializing
// resize measurably throttled emission. With size_ kept in a register across
// the emitter's loop, an append compiles down to a few predictable branches,
// the encode arithmetic and one 8-byte store. A block of 1 MiB or more is a
// mapping of its own, grown by remapping its pages (no memcpy, never two
// resident copies of the gate stream) and returned to the kernel when freed;
// smaller blocks come from malloc (see circuit.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "circuit/gate.hpp"

namespace qfto {

static_assert(std::is_trivially_copyable_v<Gate> &&
                  std::is_trivially_default_constructible_v<Gate>,
              "Circuit's side table and decode rely on Gate staying trivial");

namespace gate_word {

inline constexpr std::uint64_t kQubitMask = (1u << 20) - 1;  // also q1's "invalid"
inline constexpr std::uint64_t kKindMask = 0xF;
/// The kind value that marks a word as a side-table index.
inline constexpr std::uint64_t kEscapeKind = 0xF;
static_assert(kGateKindCount <= kEscapeKind, "kEscapeKind must stay unused");
/// Angle code: bits 0-11 index kAngleBits, bit 12 is the sign.
inline constexpr std::uint32_t kAngleSign = 1u << 12;
inline constexpr std::uint32_t kNoAngleCode = ~0u;
inline constexpr int kAngleScales = 2048;  // k in [0, 2048)

/// kAngleBits.bits[0] is +0.0 and bits[k + 1] the bit pattern of
/// std::ldexp(M_PI, -k): π's significand under exponent 1024 − k while that
/// is normal (k <= 1023), then shifted into the subnormal range with
/// round-half-even, as ldexp rounds. test_circuit checks every entry
/// against ldexp.
struct AngleTable {
  std::uint64_t bits[kAngleScales + 1];
};

constexpr AngleTable make_angle_table() {
  constexpr std::uint64_t kPiBits = 0x400921FB54442D18ull;  // M_PI
  constexpr std::uint64_t kFraction = kPiBits & ((std::uint64_t{1} << 52) - 1);
  constexpr std::uint64_t kSignificand = kFraction | std::uint64_t{1} << 52;
  AngleTable t{};
  for (int k = 0; k < kAngleScales; ++k) {
    std::uint64_t v = 0;
    if (k <= 1023) {
      v = static_cast<std::uint64_t>(1024 - k) << 52 | kFraction;
    } else if (k - 1023 <= 54) {
      const int s = k - 1023;
      const std::uint64_t rest = kSignificand & ((std::uint64_t{1} << s) - 1);
      const std::uint64_t half = std::uint64_t{1} << (s - 1);
      v = kSignificand >> s;
      if (rest > half || (rest == half && (v & 1) != 0)) ++v;
    }
    t.bits[k + 1] = v;
  }
  return t;
}

inline constexpr AngleTable kAngleBits = make_angle_table();

/// angle_code's slow path (out of line: only QFT gaps 1024..1077 produce a
/// subnormal angle): the code of a subnormal ±π·2^-k, or kNoAngleCode.
std::uint32_t subnormal_angle_code(std::uint64_t bits);

/// The 13-bit code of `angle`, or kNoAngleCode if it needs the side table.
inline std::uint32_t angle_code(double angle) {
  constexpr std::uint64_t kFractionMask = (std::uint64_t{1} << 52) - 1;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &angle, sizeof(bits));
  const auto sign = static_cast<std::uint32_t>(bits >> 63) << 12;
  const std::uint64_t magnitude = bits & ~(std::uint64_t{1} << 63);
  // ±0.0, or a normal π·2^-k (k <= 1023): π's fraction under exponent
  // 1024 − k. Tested without branching on which, because SWAP and H (angle
  // 0) interleave with CPHASE in an emitted stream.
  const std::uint64_t exponent = magnitude >> 52;
  const bool zero = magnitude == 0;
  const bool pi_scale =
      (magnitude & kFractionMask) == (kAngleBits.bits[1] & kFractionMask) &&
      exponent - 1 < 1024;
  if (__builtin_expect(zero | pi_scale, true)) {
    return sign | (pi_scale ? static_cast<std::uint32_t>(1025 - exponent) : 0u);
  }
  return exponent == 0 ? subnormal_angle_code(bits) : kNoAngleCode;
}

inline double angle_of(std::uint32_t code) {
  const std::uint64_t bits = kAngleBits.bits[code & (kAngleSign - 1)] |
                             static_cast<std::uint64_t>(code >> 12) << 63;
  double angle = 0.0;
  std::memcpy(&angle, &bits, sizeof(angle));
  return angle;
}

/// Decodes a word that is not an escape.
inline Gate unpack(std::uint64_t w) {
  const auto q1 = static_cast<std::int32_t>(w >> 24 & kQubitMask);
  return Gate{static_cast<GateKind>(w & kKindMask),
              static_cast<std::int32_t>(w >> 4 & kQubitMask),
              q1 == static_cast<std::int32_t>(kQubitMask) ? kInvalidQubit : q1,
              angle_of(static_cast<std::uint32_t>(w >> 44))};
}

}  // namespace gate_word

class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(std::int32_t num_qubits);

  ~Circuit();
  Circuit(const Circuit& other) { *this = other; }
  Circuit& operator=(const Circuit& other);
  Circuit(Circuit&& other) noexcept { *this = std::move(other); }
  Circuit& operator=(Circuit&& other) noexcept;

  std::int32_t num_qubits() const { return num_qubits_; }

  /// Appends a gate; validates qubit indices are in range and distinct.
  /// Inline: this is the emit hot path (one call per mapped gate, tens of
  /// millions at device scale), and its guards are branch-predictable.
  void append(const Gate& g) {
    require(g.q0 >= 0 && g.q0 < num_qubits_,
            "Circuit::append: q0 out of range");
    if (g.two_qubit()) {
      require(g.q1 >= 0 && g.q1 < num_qubits_,
              "Circuit::append: q1 out of range");
      require(g.q0 != g.q1,
              "Circuit::append: two-qubit gate on a single wire");
    }
    // Encoded before the growth check, so the gate's fields need not stay
    // live across the (rare) grow call: that kept the emitters' loops in
    // registers.
    const std::uint64_t word = encode(g);
    if (size_ == capacity_) grow(size_ + 1);
    words_[size_++] = word;
  }

  /// Pre-sizes the word block. Emitters with a good a-priori gate-count
  /// estimate call this once. Large reservations are also prefaulted in one
  /// batched pass (see circuit.cpp), which beats taking soft page faults
  /// interleaved with the emit loop.
  void reserve(std::size_t gate_count);
  std::size_t capacity() const { return capacity_; }

  /// Releases the unused tails of the word block and the side table
  /// (capacity() becomes size()), so a finished circuit holds no slack.
  void shrink_to_fit();

  /// Appends every gate of `other` (qubit counts must match).
  void extend(const Circuit& other);

  /// Bytes the store holds: the word block's capacity plus the side
  /// table's. 8 per gate when every gate packs, 24 per escaped gate.
  std::size_t store_bytes() const {
    return capacity_ * sizeof(std::uint64_t) + escapes_.capacity() * sizeof(Gate);
  }

  /// The packed word block (for identity checks; not a Gate array).
  const std::uint64_t* data() const { return words_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Gate operator[](std::size_t i) const {
    return decode(words_[i], escapes_.data());
  }

  /// Decoding iterator: yields Gate values, not references.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Gate;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Gate;

    const_iterator(const std::uint64_t* word, const Gate* escapes)
        : word_(word), escapes_(escapes) {}
    Gate operator*() const { return decode(*word_, escapes_); }
    const_iterator& operator++() {
      ++word_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++word_;
      return before;
    }
    bool operator==(const const_iterator& o) const { return word_ == o.word_; }
    bool operator!=(const const_iterator& o) const { return word_ != o.word_; }

   private:
    const std::uint64_t* word_;
    const Gate* escapes_;
  };

  const_iterator begin() const { return {words_, escapes_.data()}; }
  const_iterator end() const {
    return {words_ + size_, escapes_.data()};
  }

  /// Multi-line dump, one gate per line (debugging / golden tests).
  std::string to_string() const;

  /// Order-sensitive 64-bit content fingerprint over (num_qubits, every
  /// gate's kind/qubits/angle bit pattern), computed from decoded fields so
  /// the store layout never moves it. This is what keys general circuits in
  /// the ResultCache, so two different circuits of the same size and
  /// options never collide on a cache entry (up to 64-bit hash collisions).
  std::uint64_t fingerprint() const;

 private:
  static Gate decode(std::uint64_t w, const Gate* escapes) {
    if ((w & gate_word::kKindMask) == gate_word::kEscapeKind) {
      return escapes[w >> 4];
    }
    return gate_word::unpack(w);
  }

  std::uint64_t encode(const Gate& g) {
    using namespace gate_word;
    const auto kind = static_cast<std::uint64_t>(g.kind);
    const auto q0 = static_cast<std::uint32_t>(g.q0);
    const auto q1 = static_cast<std::uint32_t>(g.q1);
    const std::uint32_t code = angle_code(g.angle);
    if (__builtin_expect(kind != kEscapeKind && q0 < kQubitMask &&
                             q1 + 1u <= kQubitMask && code != kNoAngleCode,
                         true)) {
      return kind | std::uint64_t{q0} << 4 | (q1 & kQubitMask) << 24 |
             std::uint64_t{code} << 44;
    }
    return escape(g);
  }

  /// Stores `g` in the side table; returns its escape word.
  std::uint64_t escape(const Gate& g);

  /// Resizes the block to exactly `cap` words, keeping the first size_.
  void reallocate(std::size_t cap);
  void grow(std::size_t need);

  std::int32_t num_qubits_ = 0;
  std::uint64_t* words_ = nullptr;  // allocated and freed in circuit.cpp
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::vector<Gate> escapes_;  // gates whose fields do not fit a word
};

}  // namespace qfto
