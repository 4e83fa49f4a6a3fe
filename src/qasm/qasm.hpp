// OpenQASM 2.0 interchange: export any qfto circuit (CPHASE -> cu1,
// SWAP -> swap, H/X/RZ/CNOT -> h/x/rz/cx) and import the same subset back.
// This is how a downstream user runs our hardware kernels on their own stack
// (Qiskit, tket, simulators); round-tripping is exact for the gate alphabet
// the mappers emit.
#pragma once

#include <ostream>
#include <string>

#include "circuit/circuit.hpp"
#include "circuit/mapped_circuit.hpp"

namespace qfto {

/// Writes OpenQASM 2.0 text for a circuit over one register q[0..n), a line
/// at a time: the text is never held whole in memory.
void write_qasm(std::ostream& out, const Circuit& c);

/// Adds the initial/final mapping as comments so the file is self-contained.
void write_qasm(std::ostream& out, const MappedCircuit& mc);

/// The same text as a string (small circuits, tests).
std::string to_qasm(const Circuit& c);
std::string to_qasm(const MappedCircuit& mc);

/// Parses the subset emitted by write_qasm (OPENQASM 2.0; qelib1.inc; gates
/// h, x, rz, cu1/cp, swap, cx on a single register; `barrier` with or
/// without an operand list). Throws std::invalid_argument with a line
/// number on malformed input — that is the only exception this parser may
/// escape with, on any byte sequence (enforced by the fuzz harness).
Circuit from_qasm(const std::string& text);

}  // namespace qfto
