#include "circuit/circuit.hpp"

#include <algorithm>
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

constexpr std::size_t kWordBytes = sizeof(std::uint64_t);

#if defined(__linux__)
constexpr std::size_t kPage = 4096;

/// Word blocks of 1 MiB and more are mappings of their own. Left to malloc,
/// a block below glibc's dynamic mmap threshold (which rises to 32 MiB once
/// a block that size is freed) comes from the heap, and a freed gate store
/// there can stay resident under whatever was allocated after it.
bool own_mapping(std::size_t cap) { return cap * kWordBytes >= (1u << 20); }

std::size_t mapping_bytes(std::size_t cap) {
  return (cap * kWordBytes + kPage - 1) & ~(kPage - 1);
}

std::uint64_t* checked(void* p) {
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::uint64_t*>(p);
}
#else
bool own_mapping(std::size_t) { return false; }
#endif

/// A fresh, uninitialized block of `cap` words.
std::uint64_t* allocate_words(std::size_t cap) {
#if defined(__linux__)
  if (own_mapping(cap)) {
    return checked(mmap(nullptr, mapping_bytes(cap), PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0));
  }
#endif
  void* p = std::malloc(cap * kWordBytes);
  if (p == nullptr) throw std::bad_alloc();
  return static_cast<std::uint64_t*>(p);
}

void free_words(std::uint64_t* words, std::size_t cap) {
  if (words == nullptr) return;
#if defined(__linux__)
  if (own_mapping(cap)) {
    munmap(words, mapping_bytes(cap));
    return;
  }
#endif
  std::free(words);
}

}  // namespace

namespace gate_word {

std::uint32_t subnormal_angle_code(std::uint64_t bits) {
  const std::uint64_t magnitude = bits & ~(std::uint64_t{1} << 63);
  // Entries past k = 1023 are subnormal until they underflow to zero.
  for (int i = 1025; i <= kAngleScales && kAngleBits.bits[i] != 0; ++i) {
    if (kAngleBits.bits[i] == magnitude) {
      return static_cast<std::uint32_t>(bits >> 63) << 12 |
             static_cast<std::uint32_t>(i);
    }
  }
  return kNoAngleCode;
}

}  // namespace gate_word

Circuit::Circuit(std::int32_t num_qubits) : num_qubits_(num_qubits) {
  require(num_qubits >= 0, "Circuit: negative qubit count");
  require(num_qubits <= kMaxQubits, "Circuit: qubit count exceeds 2^27 - 1");
}

Circuit::~Circuit() { free_words(words_, capacity_); }

Circuit& Circuit::operator=(const Circuit& other) {
  if (this == &other) return *this;
  num_qubits_ = other.num_qubits_;
  size_ = 0;
  reallocate(0);            // drop the old words rather than move them
  reallocate(other.size_);  // copies are exact-sized, not reservation-sized
  if (other.size_ > 0) {
    std::memcpy(words_, other.words_, other.size_ * kWordBytes);
  }
  size_ = other.size_;
  escapes_ = std::vector<Gate>(other.escapes_);  // exact-sized too
  return *this;
}

Circuit& Circuit::operator=(Circuit&& other) noexcept {
  if (this == &other) return *this;
  free_words(words_, capacity_);
  num_qubits_ = other.num_qubits_;
  words_ = other.words_;
  size_ = other.size_;
  capacity_ = other.capacity_;
  escapes_ = std::move(other.escapes_);
  other.words_ = nullptr;
  other.size_ = 0;
  other.capacity_ = 0;
  other.escapes_.clear();
  return *this;
}

std::uint64_t Circuit::escape(const Gate& g) {
  escapes_.push_back(g);
  return static_cast<std::uint64_t>(escapes_.size() - 1) << 4 |
         gate_word::kEscapeKind;
}

void Circuit::reallocate(std::size_t cap) {
  require(cap <= static_cast<std::size_t>(PTRDIFF_MAX) / kWordBytes,
          "Circuit: gate store too large");
  if (cap == 0) {
    free_words(words_, capacity_);
    words_ = nullptr;
    capacity_ = 0;
    return;
  }
  std::uint64_t* fresh = nullptr;
  if (own_mapping(cap) != own_mapping(capacity_)) {
    // Crossing the 1 MiB line: what is kept is under 1 MiB.
    fresh = allocate_words(cap);
    if (size_ > 0) std::memcpy(fresh, words_, std::min(size_, cap) * kWordBytes);
    free_words(words_, capacity_);
  } else if (!own_mapping(cap)) {
    void* p = std::realloc(words_, cap * kWordBytes);
    if (p == nullptr) throw std::bad_alloc();
    fresh = static_cast<std::uint64_t*>(p);
  } else {
#if defined(__linux__)
    // A mapping grows and shrinks by mremap: the pages move, their contents
    // are never copied, and the old and new block are never resident at
    // once. The grown tail stays uninitialized — no zero/fill pass over
    // what can be a multi-GB block.
    fresh = checked(mremap(words_, mapping_bytes(capacity_), mapping_bytes(cap),
                           MREMAP_MAYMOVE));
#endif
  }
  words_ = fresh;
  capacity_ = cap;
}

void Circuit::grow(std::size_t need) {
  std::size_t cap = capacity_ == 0 ? 16 : capacity_ * 2;
  if (cap < need) cap = need;
  reallocate(cap);
}

void Circuit::shrink_to_fit() {
  if (capacity_ > size_) reallocate(size_);
  escapes_.shrink_to_fit();
}

void Circuit::reserve(std::size_t gate_count) {
  if (gate_count <= capacity_) return;
  grow(gate_count);
#if defined(MADV_POPULATE_WRITE)
  // Batch the soft page faults of a device-scale reservation up front: one
  // kernel pass over the fresh mapping is measurably cheaper than taking the
  // same faults interleaved with the emit loop. Deliberately NOT
  // MADV_HUGEPAGE: with `defrag=madvise` (the common default) huge-page
  // faults run synchronous compaction and can be several times slower per
  // byte than plain 4 KiB population. Best-effort: errors are ignored (the
  // advice flag is 5.14+; pre-populate is an optimization, not a contract).
  const std::size_t bytes = capacity_ * kWordBytes;
  if (bytes >= (std::size_t{16} << 20)) {
    madvise(words_, mapping_bytes(capacity_), MADV_POPULATE_WRITE);
  }
#endif
}

void Circuit::extend(const Circuit& other) {
  require(other.num_qubits_ == num_qubits_,
          "Circuit::extend: qubit count mismatch");
  if (&other == this) {
    const Circuit copy = other;
    extend(copy);
    return;
  }
  if (other.size_ == 0) return;
  if (size_ + other.size_ > capacity_) grow(size_ + other.size_);
  std::uint64_t* out = words_ + size_;
  std::memcpy(out, other.words_, other.size_ * kWordBytes);
  if (!other.escapes_.empty()) {
    // Escape words index other's side table; shift them past ours.
    const std::uint64_t shift = static_cast<std::uint64_t>(escapes_.size())
                                << 4;
    for (std::size_t i = 0; i < other.size_; ++i) {
      if ((out[i] & gate_word::kKindMask) == gate_word::kEscapeKind) {
        out[i] += shift;
      }
    }
    escapes_.insert(escapes_.end(), other.escapes_.begin(),
                    other.escapes_.end());
  }
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
