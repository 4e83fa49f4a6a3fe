// libFuzzer harness over the OpenQASM ingestion surface — the ROADMAP's
// "QASM round-trip fuzzing" item. Properties enforced on every input:
//   1. from_qasm never escapes any exception other than
//      the documented std::invalid_argument (oversized literals, lone signs
//      and trailing garbage once leaked raw std::out_of_range /
//      std::invalid_argument out of std::stoll/std::stod — exactly the
//      defect class this harness exists to catch);
//   2. anything that parses round-trips exactly: to_qasm of the parsed
//      circuit reparses gate-for-gate.
//
// Build modes:
//   * QFTO_FUZZ=ON (clang): linked against libFuzzer (-fsanitize=fuzzer),
//     `./fuzz_qasm fuzz/corpus -max_total_time=30`.
//   * QFTO_FUZZ_REPLAY_MAIN: plain executable that replays corpus files or
//     directories through the same callback — this is the `fuzz_qasm_corpus`
//     ctest entry, so every CI leg (including ASan+UBSan) sweeps the seed
//     corpus per push without needing clang.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "qasm/qasm.hpp"

namespace {

/// Aborts loudly (the fuzzer treats it as a crash) with the violated
/// property named — distinguishable from a sanitizer report.
[[noreturn]] void violate(const char* what) {
  std::fprintf(stderr, "fuzz_qasm: property violated: %s\n", what);
  std::abort();
}

// The round-trip checks run OUTSIDE the parse's catch block: a circuit that
// parsed but then fails to reparse (or reparses differently) is a property
// violation and must crash the harness, never be mistaken for an ordinary
// rejection of the original input.

void check_round_trip(const qfto::Circuit& c) {
  qfto::Circuit back;
  try {
    back = qfto::from_qasm(qfto::to_qasm(c));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz_qasm: reparse threw: %s\n", e.what());
    violate("emitted text of a parsed circuit failed to reparse");
  }
  if (back.num_qubits() != c.num_qubits() || back.size() != c.size()) {
    violate("round trip changed circuit shape");
  }
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (!(back[i] == c[i])) violate("round trip changed a gate");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  bool parsed = false;
  qfto::Circuit circuit;
  try {
    circuit = qfto::from_qasm(text);
    parsed = true;
  } catch (const std::invalid_argument&) {
    // The one documented failure mode: positioned parse error.
  }
  if (parsed) check_round_trip(circuit);
  return 0;
}

#ifdef QFTO_FUZZ_REPLAY_MAIN
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::vector<fs::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const fs::path p(argv[i]);
    if (fs::is_directory(p)) {
      for (const auto& entry : fs::directory_iterator(p)) {
        if (entry.is_regular_file()) inputs.push_back(entry.path());
      }
    } else {
      inputs.push_back(p);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "usage: %s CORPUS_DIR_OR_FILE...\n", argv[0]);
    return 2;
  }
  for (const auto& path : inputs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::string s = text.str();
    LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(s.data()),
                           s.size());
  }
  std::printf("fuzz_qasm: %zu corpus inputs replayed clean\n", inputs.size());
  return 0;
}
#endif  // QFTO_FUZZ_REPLAY_MAIN
