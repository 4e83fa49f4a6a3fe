#include "qasm/qasm.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace qfto {

namespace {

/// Appends `v` in decimal, as std::to_string writes it.
char* put_int(char* p, char* end, std::int32_t v) {
  return std::to_chars(p, end, v).ptr;
}

char* put_str(char* p, const char* s) {
  const std::size_t len = std::strlen(s);
  std::memcpy(p, s, len);
  return p + len;
}

/// Appends `a` as "%.17g" writes it: enough digits to re-read it exactly.
char* put_angle(char* p, char* end, double a) {
  const int len = std::snprintf(p, static_cast<std::size_t>(end - p), "%.17g", a);
  return p + len;
}

}  // namespace

void write_qasm(std::ostream& out, const Circuit& c) {
  out << "OPENQASM 2.0;\n"
      << "include \"qelib1.inc\";\n"
      << "qreg q[" << c.num_qubits() << "];\n";
  // One line per gate, formatted into a stack buffer: the text never exists
  // whole in memory, so exporting a device-scale circuit costs its file, not
  // a second copy of it in RAM.
  char line[128];
  char* const end = line + sizeof(line);
  for (const Gate g : c) {
    char* p = line;
    switch (g.kind) {
      case GateKind::kH: p = put_str(p, "h q["); break;
      case GateKind::kX: p = put_str(p, "x q["); break;
      case GateKind::kRz:
        p = put_str(p, "rz(");
        p = put_angle(p, end, g.angle);
        p = put_str(p, ") q[");
        break;
      case GateKind::kCPhase:
        p = put_str(p, "cu1(");
        p = put_angle(p, end, g.angle);
        p = put_str(p, ") q[");
        break;
      case GateKind::kSwap: p = put_str(p, "swap q["); break;
      case GateKind::kCnot: p = put_str(p, "cx q["); break;
    }
    p = put_int(p, end, g.q0);
    if (g.two_qubit()) {
      p = put_str(p, "],q[");
      p = put_int(p, end, g.q1);
    }
    p = put_str(p, "];\n");
    out.write(line, p - line);
  }
}

void write_qasm(std::ostream& out, const MappedCircuit& mc) {
  out << "// qfto mapped circuit\n// initial mapping (logical->physical):";
  for (std::size_t l = 0; l < mc.initial.size(); ++l) {
    out << ' ' << l << "->" << mc.initial[l];
  }
  out << "\n// final mapping (logical->physical):";
  for (std::size_t l = 0; l < mc.final_mapping.size(); ++l) {
    out << ' ' << l << "->" << mc.final_mapping[l];
  }
  out << '\n';
  write_qasm(out, mc.circuit);
}

std::string to_qasm(const Circuit& c) {
  std::ostringstream out;
  write_qasm(out, c);
  return out.str();
}

std::string to_qasm(const MappedCircuit& mc) {
  std::ostringstream out;
  write_qasm(out, mc);
  return out.str();
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
