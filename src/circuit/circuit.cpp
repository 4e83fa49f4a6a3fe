#include "circuit/circuit.hpp"

#include <cstdint>
#include <cstring>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "common/prng.hpp"

namespace qfto {

namespace {

/// Hash-combine via the shared SplitMix64 (full-avalanche finalizer).
std::uint64_t mix64(std::uint64_t x) { return SplitMix64(x).next(); }

}  // namespace

Circuit::Circuit(std::int32_t num_qubits) : num_qubits_(num_qubits) {
  require(num_qubits >= 0, "Circuit: negative qubit count");
  require(num_qubits <= kMaxQubits, "Circuit: qubit count exceeds 2^27 - 1");
}

Circuit& Circuit::operator=(const Circuit& other) {
  if (this == &other) return *this;
  num_qubits_ = other.num_qubits_;
  size_ = 0;
  reallocate(0);            // drop the old gates rather than move them
  reallocate(other.size_);  // copies are exact-sized, not reservation-sized
  if (other.size_ > 0) {
    std::memcpy(store_.get(), other.store_.get(), other.size_ * sizeof(Gate));
  }
  size_ = other.size_;
  return *this;
}

Circuit& Circuit::operator=(Circuit&& other) noexcept {
  num_qubits_ = other.num_qubits_;
  store_ = std::move(other.store_);
  size_ = other.size_;
  capacity_ = other.capacity_;
  other.size_ = 0;
  other.capacity_ = 0;
  return *this;
}

void Circuit::reallocate(std::size_t cap) {
  if (cap == 0) {
    store_.reset();
    capacity_ = 0;
    return;
  }
  require(cap <= static_cast<std::size_t>(PTRDIFF_MAX) / sizeof(Gate),
          "Circuit: gate store too large");
  // Gate is trivially copyable, so realloc may move it bytewise. glibc
  // serves large blocks from their own mapping and grows those by mremap:
  // the pages move, their contents are never copied, and the old and new
  // block are never resident at once. The grown tail stays uninitialized —
  // no zero/fill pass over what can be a multi-GB block.
  void* p = std::realloc(store_.get(), cap * sizeof(Gate));
  if (p == nullptr) throw std::bad_alloc();
  static_cast<void>(store_.release());
  store_.reset(static_cast<Gate*>(p));
  capacity_ = cap;
}

void Circuit::grow(std::size_t need) {
  std::size_t cap = capacity_ == 0 ? 16 : capacity_ * 2;
  if (cap < need) cap = need;
  reallocate(cap);
}

void Circuit::shrink_to_fit() {
  if (capacity_ > size_) reallocate(size_);
}

void Circuit::reserve(std::size_t gate_count) {
  if (gate_count <= capacity_) return;
  grow(gate_count);
#if defined(__linux__) && defined(MADV_POPULATE_WRITE)
  // Batch the soft page faults of a device-scale reservation up front: one
  // kernel pass over the fresh mapping is measurably cheaper than taking the
  // same faults interleaved with the emit loop. Deliberately NOT
  // MADV_HUGEPAGE: with `defrag=madvise` (the common default) huge-page
  // faults run synchronous compaction and can be several times slower per
  // byte than plain 4 KiB population. Best-effort: errors are ignored (the
  // advice flag is 5.14+; pre-populate is an optimization, not a contract).
  constexpr std::uintptr_t kPage = 4096;
  const std::size_t bytes = capacity_ * sizeof(Gate);
  if (bytes >= (std::size_t{16} << 20)) {
    const auto base = reinterpret_cast<std::uintptr_t>(store_.get());
    const std::uintptr_t lo = (base + kPage - 1) & ~(kPage - 1);
    const std::uintptr_t hi = (base + bytes) & ~(kPage - 1);
    if (hi > lo) {
      madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_POPULATE_WRITE);
    }
  }
#endif
}

void Circuit::extend(const Circuit& other) {
  require(other.num_qubits_ == num_qubits_,
          "Circuit::extend: qubit count mismatch");
  if (other.size_ == 0) return;
  if (size_ + other.size_ > capacity_) grow(size_ + other.size_);
  std::memcpy(store_.get() + size_, other.store_.get(),
              other.size_ * sizeof(Gate));
  size_ += other.size_;
}

std::uint64_t Circuit::fingerprint() const {
  std::uint64_t h = mix64(0x51ab5u ^ static_cast<std::uint64_t>(num_qubits_));
  for (const auto& g : *this) {
    std::uint64_t angle_bits = 0;
    std::memcpy(&angle_bits, &g.angle, sizeof(angle_bits));
    h = mix64(h ^ static_cast<std::uint64_t>(g.kind));
    h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(g.q0))
                   << 32 |
                   static_cast<std::uint32_t>(g.q1)));
    h = mix64(h ^ angle_bits);
  }
  return h;
}

std::string Circuit::to_string() const {
  std::string out;
  for (const auto& g : *this) {
    out += g.to_string();
    out += '\n';
  }
  return out;
}

}  // namespace qfto
