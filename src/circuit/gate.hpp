// Gate-level IR. The QFT mapping problem only needs a small gate alphabet:
// H, CPHASE (controlled phase), SWAP, CNOT, plus X/RZ for the example apps.
#pragma once

#include <cstddef>
#include <string>

#include "common/types.hpp"

namespace qfto {

enum class GateKind : std::uint8_t {
  kH,       // Hadamard (1q)
  kX,       // Pauli-X (1q)
  kRz,      // Z-rotation by `angle` (1q)
  kCPhase,  // controlled phase by `angle`; diagonal, symmetric in its qubits
  kSwap,    // SWAP (2q)
  kCnot,    // CNOT, q0 = control, q1 = target
};

/// Number of GateKind enumerators (latency tables index on it).
inline constexpr std::size_t kGateKindCount = 6;
static_assert(static_cast<std::size_t>(GateKind::kCnot) + 1 == kGateKindCount,
              "update kGateKindCount when extending GateKind");
static_assert(kGateKindCount <= 16, "Gate::kind is a 4-bit field");

/// Returns true for two-qubit kinds. Inline: the scheduler and verifier ask
/// once per gate.
inline bool is_two_qubit(GateKind kind) {
  return kind == GateKind::kCPhase || kind == GateKind::kSwap ||
         kind == GateKind::kCnot;
}

/// Human-readable mnemonic ("H", "CP", "SWAP", ...).
std::string gate_name(GateKind kind);

/// Largest wire count a Circuit accepts: Gate::q0 is a signed 28-bit field,
/// so every in-range qubit index fits it exactly.
inline constexpr std::int32_t kMaxQubits = (1 << 27) - 1;

/// One gate instance. For 1q gates `q1 == kInvalidQubit`.
/// For CPHASE we keep the (control, target) the producer supplied even though
/// the unitary is symmetric, so checkers can report the paper's G(Qi, Qj)
/// orientation.
///
/// Gate is the API's value type, packed into 16 bytes: `kind` and `q0` share
/// one 32-bit word (4 + 28 bits). Circuit does not store Gates: it encodes
/// each into an 8-byte word on append and decodes it on read (layout in
/// circuit.hpp), keeping a whole Gate only for the rare gate whose fields do
/// not fit a word. Circuit bounds its wire count by kMaxQubits, so q0 never
/// truncates.
///
/// Deliberately no default member initializers: every Gate is built through
/// the factories below (which set all four fields), and keeping the type
/// trivially default-constructible keeps decode and the side table free of
/// an up-front zero/fill pass.
struct Gate {
  GateKind kind : 4;
  std::int32_t q0 : 28;
  std::int32_t q1;
  double angle;

  // Inline: emitters construct tens of millions of gates on the hot path.
  static Gate h(std::int32_t q) {
    return Gate{GateKind::kH, q, kInvalidQubit, 0.0};
  }
  static Gate x(std::int32_t q) {
    return Gate{GateKind::kX, q, kInvalidQubit, 0.0};
  }
  static Gate rz(std::int32_t q, double angle) {
    return Gate{GateKind::kRz, q, kInvalidQubit, angle};
  }
  static Gate cphase(std::int32_t a, std::int32_t b, double angle) {
    return Gate{GateKind::kCPhase, a, b, angle};
  }
  static Gate swap(std::int32_t a, std::int32_t b) {
    return Gate{GateKind::kSwap, a, b, 0.0};
  }
  static Gate cnot(std::int32_t control, std::int32_t target) {
    return Gate{GateKind::kCnot, control, target, 0.0};
  }

  bool two_qubit() const { return is_two_qubit(kind); }

  /// True if the gate acts on qubit q.
  bool touches(std::int32_t q) const { return q0 == q || q1 == q; }

  std::string to_string() const;
};

bool operator==(const Gate& a, const Gate& b);

static_assert(sizeof(Gate) == 16, "Gate must stay packed in 16 bytes");

}  // namespace qfto
