#include "qasm/qasm.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace qfto {

namespace {

std::string fmt_angle(double a) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", a);
  return buf;
}

}  // namespace

std::string to_qasm(const Circuit& c) {
  std::string out;
  out += "OPENQASM 2.0;\n";
  out += "include \"qelib1.inc\";\n";
  out += "qreg q[" + std::to_string(c.num_qubits()) + "];\n";
  for (const auto& g : c) {
    switch (g.kind) {
      case GateKind::kH:
        out += "h q[" + std::to_string(g.q0) + "];\n";
        break;
      case GateKind::kX:
        out += "x q[" + std::to_string(g.q0) + "];\n";
        break;
      case GateKind::kRz:
        out += "rz(" + fmt_angle(g.angle) + ") q[" + std::to_string(g.q0) +
               "];\n";
        break;
      case GateKind::kCPhase:
        out += "cu1(" + fmt_angle(g.angle) + ") q[" + std::to_string(g.q0) +
               "],q[" + std::to_string(g.q1) + "];\n";
        break;
      case GateKind::kSwap:
        out += "swap q[" + std::to_string(g.q0) + "],q[" +
               std::to_string(g.q1) + "];\n";
        break;
      case GateKind::kCnot:
        out += "cx q[" + std::to_string(g.q0) + "],q[" +
               std::to_string(g.q1) + "];\n";
        break;
    }
  }
  return out;
}

std::string to_qasm(const MappedCircuit& mc) {
  std::string out = "// qfto mapped circuit\n// initial mapping (logical->physical):";
  for (std::size_t l = 0; l < mc.initial.size(); ++l) {
    out += " " + std::to_string(l) + "->" + std::to_string(mc.initial[l]);
  }
  out += "\n// final mapping (logical->physical):";
  for (std::size_t l = 0; l < mc.final_mapping.size(); ++l) {
    out += " " + std::to_string(l) + "->" + std::to_string(mc.final_mapping[l]);
  }
  out += "\n";
  out += to_qasm(mc.circuit);
  return out;
}

namespace {

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::int32_t line = 1;

  [[noreturn]] void fail(const std::string& msg) const {
    throw std::invalid_argument("qasm parse error at line " +
                                std::to_string(line) + ": " + msg);
  }

  void skip_ws() {
    while (pos < text.size()) {
      const char ch = text[pos];
      if (ch == '\n') {
        ++line;
        ++pos;
      } else if (std::isspace(static_cast<unsigned char>(ch))) {
        ++pos;
      } else if (ch == '/' && pos + 1 < text.size() && text[pos + 1] == '/') {
        while (pos < text.size() && text[pos] != '\n') ++pos;
      } else {
        break;
      }
    }
  }

  bool done() {
    skip_ws();
    return pos >= text.size();
  }

  bool try_literal(const std::string& lit) {
    skip_ws();
    if (text.compare(pos, lit.size(), lit) == 0) {
      pos += lit.size();
      return true;
    }
    return false;
  }

  void expect(const std::string& lit) {
    if (!try_literal(lit)) fail("expected '" + lit + "'");
  }

  std::string ident() {
    skip_ws();
    std::size_t start = pos;
    while (pos < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '_')) {
      ++pos;
    }
    if (pos == start) fail("expected identifier");
    return text.substr(start, pos - start);
  }

  std::int64_t integer() {
    skip_ws();
    std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    if (pos == start) fail("expected integer");
    const std::string tok = text.substr(start, pos - start);
    // std::stoll throws raw std::out_of_range on oversized literals (e.g.
    // qreg q[99999999999999999999]) and raw std::invalid_argument on a lone
    // sign; both must surface as the documented positioned error.
    std::int64_t value = 0;
    try {
      value = std::stoll(tok);
    } catch (const std::out_of_range&) {
      fail("integer out of range '" + tok + "'");
    } catch (const std::invalid_argument&) {
      fail("expected integer");
    }
    return value;
  }

  double real() {
    skip_ws();
    // Accept "pi", "-pi", "pi/4", "k*pi/2^j"-free forms: we only need plain
    // decimals and the pi shorthands common in QASM emitters.
    if (try_literal("-pi")) return pi_tail(-M_PI);
    if (try_literal("pi")) return pi_tail(M_PI);
    std::size_t start = pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == '-' || text[pos] == '+' ||
            text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
    }
    if (pos == start) fail("expected number");
    const std::string tok = text.substr(start, pos - start);
    // The scan above is permissive ('-'/'+'/'.'/'e' anywhere), so std::stod
    // must both not throw raw (1e99999 -> out_of_range, "-" ->
    // invalid_argument) and consume the whole token — otherwise "1.5-2"
    // silently parses as 1.5 and "1e+" as 1.
    double value = 0.0;
    std::size_t used = 0;
    try {
      value = std::stod(tok, &used);
    } catch (const std::out_of_range&) {
      fail("number out of range '" + tok + "'");
    } catch (const std::invalid_argument&) {
      fail("expected number");
    }
    if (used != tok.size()) fail("malformed number '" + tok + "'");
    return value;
  }

  double pi_tail(double value) {
    if (try_literal("/")) {
      const double d = real();
      if (d == 0.0) fail("division by zero in angle");
      return finite_angle(value / d);
    }
    if (try_literal("*")) return finite_angle(value * real());
    return value;
  }

  /// pi/x and pi*x can overflow to infinity even though both operands
  /// parsed (pi*1e308, pi/1e-308); a non-finite angle would emit as
  /// "rz(inf)" and break the parse->emit->reparse round trip.
  double finite_angle(double value) {
    if (!std::isfinite(value)) fail("angle expression out of range");
    return value;
  }

  std::int32_t qubit_ref(const std::string& reg, std::int32_t n) {
    const std::string name = ident();
    if (name != reg) fail("unknown register '" + name + "'");
    expect("[");
    const std::int64_t idx = integer();
    expect("]");
    if (idx < 0 || idx >= n) fail("qubit index out of range");
    return static_cast<std::int32_t>(idx);
  }
};

}  // namespace

Circuit from_qasm(const std::string& text) {
  Parser p{text};
  p.expect("OPENQASM");
  p.expect("2.0");
  p.expect(";");
  if (p.try_literal("include")) {
    p.expect("\"qelib1.inc\"");
    p.expect(";");
  }
  p.expect("qreg");
  const std::string reg = p.ident();
  p.expect("[");
  const std::int64_t n = p.integer();
  p.expect("]");
  p.expect(";");
  if (n <= 0 || n > (1 << 20)) p.fail("bad register size");

  Circuit c(static_cast<std::int32_t>(n));
  while (!p.done()) {
    const std::string op = p.ident();
    if (op == "h" || op == "x") {
      const auto q = p.qubit_ref(reg, c.num_qubits());
      c.append(op == "h" ? Gate::h(q) : Gate::x(q));
    } else if (op == "rz") {
      p.expect("(");
      const double a = p.real();
      p.expect(")");
      const auto q = p.qubit_ref(reg, c.num_qubits());
      c.append(Gate::rz(q, a));
    } else if (op == "cu1" || op == "cp") {
      p.expect("(");
      const double a = p.real();
      p.expect(")");
      const auto q0 = p.qubit_ref(reg, c.num_qubits());
      p.expect(",");
      const auto q1 = p.qubit_ref(reg, c.num_qubits());
      c.append(Gate::cphase(q0, q1, a));
    } else if (op == "swap" || op == "cx") {
      const auto q0 = p.qubit_ref(reg, c.num_qubits());
      p.expect(",");
      const auto q1 = p.qubit_ref(reg, c.num_qubits());
      c.append(op == "swap" ? Gate::swap(q0, q1) : Gate::cnot(q0, q1));
    } else if (op == "barrier") {
      // Operand list is optional: `barrier;` (whole-register barrier) is
      // legal QASM 2.0 alongside `barrier q[0],q[1];`.
      while (!p.try_literal(";")) {
        if (p.done()) p.fail("unterminated barrier");
        p.qubit_ref(reg, c.num_qubits());
        p.try_literal(",");
      }
      continue;
    } else {
      p.fail("unsupported gate '" + op + "'");
    }
    p.expect(";");
  }
  return c;
}

}  // namespace qfto
