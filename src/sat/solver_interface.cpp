#include "sat/solver_interface.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <stdexcept>

#include "sat/solver.hpp"

namespace qfto::sat {

bool SolverInterface::dump_dimacs(const std::string& path,
                                  const std::vector<Lit>& extra_units) const {
  std::ofstream out(path);
  if (!out) return false;
  dump_dimacs(out, extra_units);
  return static_cast<bool>(out);
}

void write_dimacs(std::ostream& out, const std::string& backend,
                  bool root_unsat, std::int32_t num_vars,
                  const Lit* root_facts, std::size_t num_root_facts,
                  const std::vector<const std::vector<Lit>*>& clauses,
                  const std::vector<Lit>& extra_units) {
  const auto emit_lit = [&out](Lit l) {
    out << (l.sign() ? -(l.var() + 1) : (l.var() + 1)) << ' ';
  };
  out << "c qfto " << backend
      << " instance (original clauses + root-level facts)\n";
  if (root_unsat) {
    // A root contradiction was reached while adding clauses; the original
    // clause set is no longer recoverable, so emit a minimal UNSAT core.
    out << "c instance is UNSAT at the root\np cnf 1 2\n1 0\n-1 0\n";
    return;
  }
  out << "p cnf " << std::max<std::int32_t>(1, num_vars) << ' '
      << num_root_facts + clauses.size() + extra_units.size() << '\n';
  for (std::size_t i = 0; i < num_root_facts; ++i) {
    emit_lit(root_facts[i]);
    out << "0\n";
  }
  for (const std::vector<Lit>* clause : clauses) {
    for (const Lit l : *clause) emit_lit(l);
    out << "0\n";
  }
  for (const Lit l : extra_units) {
    emit_lit(l);
    out << "0\n";
  }
}

namespace {

struct Registry {
  Registry() {
    factories["cdcl"] = [] {
      return std::unique_ptr<SolverInterface>(std::make_unique<Solver>());
    };
  }

  std::mutex mutex;
  std::map<std::string, SolverFactory> factories;
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

void register_solver_backend(const std::string& name, SolverFactory factory) {
  if (name.empty()) throw std::invalid_argument("sat: empty backend name");
  if (!factory) throw std::invalid_argument("sat: null backend factory");
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.factories[name] = std::move(factory);
}

std::vector<std::string> solver_backend_names() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<std::string> names;
  names.reserve(r.factories.size());
  for (const auto& [key, factory] : r.factories) names.push_back(key);
  return names;  // std::map iteration order is already sorted
}

bool has_solver_backend(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.factories.count(name) != 0;
}

std::unique_ptr<SolverInterface> make_solver(const std::string& name) {
  SolverFactory factory;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    const auto it = r.factories.find(name);
    if (it != r.factories.end()) factory = it->second;
  }
  if (!factory) {
    std::string known;
    for (const auto& key : solver_backend_names()) {
      if (!known.empty()) known += ", ";
      known += key;
    }
    throw std::invalid_argument("sat: unknown solver backend '" + name +
                                "' (known: " + known + ")");
  }
  return factory();
}

}  // namespace qfto::sat
