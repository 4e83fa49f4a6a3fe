// A circuit is an ordered gate list over `num_qubits` wires. The order is a
// valid topological order of whichever dependency relation produced it; the
// scheduler (scheduler.hpp) turns it into parallel layers / weighted depth.
//
// Storage is one flat, manually-grown block of 16-byte Gates rather than
// std::vector: the emit hot path appends tens of millions of gates at device
// scale, and the vector's per-push end-pointer write-back plus its
// value-initializing resize measurably throttled emission (QFT-8192 produces
// a 68.4M-gate, ~1.1 GB stream). With a trivial Gate and an explicit size_
// kept in a register across the emitter's loop, an append compiles down to
// one bounds-predictable branch and one 16-byte store. The block comes from
// malloc and grows by realloc, so a large store (which glibc maps on its
// own) grows by remapping its pages: no memcpy, and never two resident
// copies of the gate stream.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <type_traits>

#include "circuit/gate.hpp"

namespace qfto {

static_assert(std::is_trivially_copyable_v<Gate> &&
                  std::is_trivially_default_constructible_v<Gate>,
              "Circuit's flat store relies on Gate staying trivial");

class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(std::int32_t num_qubits);

  Circuit(const Circuit& other) { *this = other; }
  Circuit& operator=(const Circuit& other);
  Circuit(Circuit&& other) noexcept { *this = std::move(other); }
  Circuit& operator=(Circuit&& other) noexcept;

  std::int32_t num_qubits() const { return num_qubits_; }

  /// Appends a gate; validates qubit indices are in range and distinct.
  /// Inline: this is the emit hot path (one call per mapped gate, tens of
  /// millions at device scale), and the three guards are branch-predictable.
  void append(const Gate& g) {
    require(g.q0 >= 0 && g.q0 < num_qubits_,
            "Circuit::append: q0 out of range");
    if (g.two_qubit()) {
      require(g.q1 >= 0 && g.q1 < num_qubits_,
              "Circuit::append: q1 out of range");
      require(g.q0 != g.q1,
              "Circuit::append: two-qubit gate on a single wire");
    }
    if (size_ == capacity_) grow(size_ + 1);
    store_.get()[size_++] = g;
  }

  /// Pre-sizes the gate store. Emitters with a good a-priori gate-count
  /// estimate call this once. Large reservations are also prefaulted in one
  /// batched pass (see circuit.cpp), which beats taking soft page faults
  /// interleaved with the emit loop.
  void reserve(std::size_t gate_count);
  std::size_t capacity() const { return capacity_; }

  /// Releases the store's unused tail (capacity() becomes size()), so a
  /// finished circuit holds no reserved slack.
  void shrink_to_fit();

  /// Appends every gate of `other` (qubit counts must match).
  void extend(const Circuit& other);

  const Gate* data() const { return store_.get(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Gate& operator[](std::size_t i) const { return store_.get()[i]; }

  const Gate* begin() const { return store_.get(); }
  const Gate* end() const { return store_.get() + size_; }

  /// Multi-line dump, one gate per line (debugging / golden tests).
  std::string to_string() const;

  /// Order-sensitive 64-bit content fingerprint over (num_qubits, every
  /// gate's kind/qubits/angle bit pattern). This is what keys general
  /// circuits in the ResultCache, so two different circuits of the same size
  /// and options never collide on a cache entry (up to 64-bit hash
  /// collisions).
  std::uint64_t fingerprint() const;

 private:
  /// Resizes the block to exactly `cap` gates, keeping the first size_.
  void reallocate(std::size_t cap);
  void grow(std::size_t need);

  struct FreeStore {
    void operator()(Gate* p) const { std::free(p); }
  };

  std::int32_t num_qubits_ = 0;
  std::unique_ptr<Gate, FreeStore> store_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace qfto
