// Internal to SATMAP (not a public API): the time-expanded encoding and
// model extraction behind satmap_route, in a header so a re-encode-per-probe
// reference can be built on the identical step encoding outside the library.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "arch/coupling_graph.hpp"
#include "circuit/circuit.hpp"
#include "circuit/dag.hpp"
#include "circuit/mapped_circuit.hpp"
#include "common/types.hpp"
#include "sat/cardinality.hpp"
#include "sat/solver_interface.hpp"

namespace qfto::satmap_detail {

using sat::Lit;
using sat::SolverInterface;

/// Depth lower bound where deepening starts: the critical path of the
/// strict DAG.
inline std::int32_t depth_lower_bound(const Dag& dag) {
  std::vector<std::int32_t> cp(dag.size(), 1);
  const auto topo = dag.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    for (auto succ : dag.succ[*it]) cp[*it] = std::max(cp[*it], cp[succ] + 1);
  }
  std::int32_t lower = 1;
  for (auto c : cp) lower = std::max(lower, c);
  return lower;
}

// SATMAP's per-step constraint machinery: map_var[t][l][p], exec_var[t][i],
// sched_var[t][i] (prefix of exec), grown one time step at a time. The
// horizon-completion constraint ("every gate executes by T") rides an
// activation literal and the SWAP bound a sequential counter whose outputs
// are assumed, so one solver instance serves every probe of a run.
class Encoder {
 public:
  /// `dag` is the strict DAG of `logical`.
  Encoder(SolverInterface& s, const Circuit& logical, const CouplingGraph& g,
          const Dag& dag)
      : s_(s),
        logical_(logical),
        g_(g),
        n_(logical.num_qubits()),
        np_(g.num_qubits()),
        ng_(static_cast<std::int32_t>(logical.size())) {
    for (std::size_t i = 0; i < dag.size(); ++i) {
      for (auto j : dag.succ[i]) {
        dep_edges_.emplace_back(static_cast<std::int32_t>(i), j);
      }
    }
    touching_.resize(n_);
    for (std::int32_t l = 0; l < n_; ++l) {
      for (std::int32_t i = 0; i < ng_; ++i) {
        if (logical_[i].touches(l)) touching_[l].push_back(i);
      }
    }
  }

  /// Encodes time steps 0..layers (idempotent for layers already covered).
  void extend_to(std::int32_t layers) {
    while (static_cast<std::int32_t>(exec_var_.size()) <= layers) {
      add_step(static_cast<std::int32_t>(exec_var_.size()));
    }
  }

  /// Horizon: a fresh activation literal `a` with
  /// a -> (gate i executes within 0..layers) for every gate. Solve under
  /// the assumption `a`; retire() it before gating the next horizon.
  Lit gate_horizon(std::int32_t layers) {
    const Lit a = Lit::pos(s_.new_var());
    for (std::int32_t i = 0; i < ng_; ++i) {
      std::vector<Lit> clause{~a};
      for (std::int32_t t = 0; t <= layers; ++t) clause.push_back(ex(t, i));
      s_.add_clause(clause);
    }
    return a;
  }

  /// Permanently deactivates a retired horizon's completion clauses (sound:
  /// larger horizons only weaken the constraint).
  void retire(Lit activation) { s_.add_unit(~activation); }

  /// SWAP bound: the cached move indicators feeding a sequential counter
  /// of width `width`, returning the unary output chain s_j = "at least
  /// j+1 SWAPs across the schedule". Assuming ~s_b enforces at-most-b, so
  /// one encoding serves every budget probe at this horizon — and when the
  /// descent drops far below `width`, the caller re-requests a narrower
  /// counter over the same movers (old registers go quiescent: nothing
  /// constrains them once their outputs stop being assumed).
  std::vector<Lit> swap_outputs(std::int32_t layers, std::int32_t width) {
    const auto r = sat::add_sequential_counter(s_, movers(layers), width);
    return r.back();  // "at least j+1 SWAPs across the whole schedule"
  }

  std::int32_t map_var(std::int32_t t, std::int32_t l, std::int32_t p) const {
    return map_var_[t][l][p];
  }
  std::int32_t exec_var(std::int32_t t, std::int32_t i) const {
    return exec_var_[t][i];
  }

  /// Indicator per (transition, undirected edge p<q): some qubit crossed
  /// it. Built once per horizon and cached — counters of different widths
  /// share the same indicators.
  const std::vector<Lit>& movers(std::int32_t layers) {
    require(movers_.empty() || movers_layers_ == layers,
            "movers: horizon changed after counters were built");
    if (!movers_.empty()) return movers_;
    movers_layers_ = layers;
    for (std::int32_t t = 0; t < layers; ++t) {
      for (std::int32_t p = 0; p < np_; ++p) {
        for (PhysicalQubit q : g_.neighbors(p)) {
          if (q < p) continue;
          const Lit v = Lit::pos(s_.new_var());
          movers_.push_back(v);
          for (std::int32_t l = 0; l < n_; ++l) {
            s_.add_ternary(~mp(t, l, p), ~mp(t + 1, l, q), v);
            s_.add_ternary(~mp(t, l, q), ~mp(t + 1, l, p), v);
          }
        }
      }
    }
    return movers_;
  }

 private:
  Lit mp(std::int32_t t, std::int32_t l, std::int32_t p) const {
    return Lit::pos(map_var_[t][l][p]);
  }
  Lit ex(std::int32_t t, std::int32_t i) const {
    return Lit::pos(exec_var_[t][i]);
  }
  Lit sc(std::int32_t t, std::int32_t i) const {
    return Lit::pos(sched_var_[t][i]);
  }

  void add_step(std::int32_t t) {
    auto& row = map_var_.emplace_back();
    row.assign(n_, std::vector<std::int32_t>(np_));
    for (std::int32_t l = 0; l < n_; ++l) {
      for (std::int32_t p = 0; p < np_; ++p) row[l][p] = s_.new_var();
    }
    auto& exec = exec_var_.emplace_back();
    auto& sched = sched_var_.emplace_back();
    exec.resize(ng_);
    sched.resize(ng_);
    for (std::int32_t i = 0; i < ng_; ++i) {
      exec[i] = s_.new_var();
      sched[i] = s_.new_var();
    }

    // Mapping is an injection at this step.
    for (std::int32_t l = 0; l < n_; ++l) {
      std::vector<Lit> lits;
      for (std::int32_t p = 0; p < np_; ++p) lits.push_back(mp(t, l, p));
      sat::add_exactly_one(s_, lits);
    }
    for (std::int32_t p = 0; p < np_; ++p) {
      std::vector<Lit> col;
      for (std::int32_t l = 0; l < n_; ++l) col.push_back(mp(t, l, p));
      sat::add_at_most_one(s_, col);
    }

    // A gate executes at most once across time; prefix variables are
    // monotone and tied to execution. (The at-least-once half is the
    // horizon-completion constraint.)
    for (std::int32_t i = 0; i < ng_; ++i) {
      for (std::int32_t u = 0; u < t; ++u) {
        s_.add_binary(~ex(u, i), ~ex(t, i));
      }
      if (t == 0) {
        s_.add_implication(ex(0, i), sc(0, i));
        s_.add_implication(sc(0, i), ex(0, i));
      } else {
        s_.add_implication(ex(t, i), sc(t, i));
        s_.add_implication(sc(t - 1, i), sc(t, i));
        // sched[t] -> sched[t-1] or exec[t]
        s_.add_ternary(~sc(t, i), sc(t - 1, i), ex(t, i));
      }
    }

    // Strict dependencies: exec[j][t] -> sched[i][t] (shared-qubit gates can
    // never share a layer thanks to the per-qubit exclusion below, so this
    // yields strictly-before).
    for (const auto& [i, j] : dep_edges_) {
      s_.add_implication(ex(t, j), sc(t, i));
    }

    // Per-qubit per-layer exclusion.
    for (std::int32_t l = 0; l < n_; ++l) {
      std::vector<Lit> lits;
      for (auto i : touching_[l]) lits.push_back(ex(t, i));
      sat::add_at_most_one(s_, lits);
    }

    // Adjacency for two-qubit gates.
    for (std::int32_t i = 0; i < ng_; ++i) {
      const Gate& gate = logical_[i];
      if (!gate.two_qubit()) continue;
      for (std::int32_t p = 0; p < np_; ++p) {
        std::vector<Lit> cl{~ex(t, i), ~mp(t, gate.q0, p)};
        for (PhysicalQubit q : g_.neighbors(p)) cl.push_back(mp(t, gate.q1, q));
        s_.add_clause(cl);
      }
    }

    // Movement: between steps a qubit stays or crosses one edge; crossings
    // are swaps (the displaced occupant moves the other way).
    if (t > 0) {
      for (std::int32_t l = 0; l < n_; ++l) {
        for (std::int32_t p = 0; p < np_; ++p) {
          std::vector<Lit> cl{~mp(t - 1, l, p), mp(t, l, p)};
          for (PhysicalQubit q : g_.neighbors(p)) cl.push_back(mp(t, l, q));
          s_.add_clause(cl);
          for (PhysicalQubit q : g_.neighbors(p)) {
            for (std::int32_t l2 = 0; l2 < n_; ++l2) {
              if (l2 == l) continue;
              // l moves p->q and l2 was at q  =>  l2 moves q->p.
              s_.add_clause({~mp(t - 1, l, p), ~mp(t, l, q), ~mp(t - 1, l2, q),
                             mp(t, l2, p)});
            }
          }
        }
      }
    }
  }

  SolverInterface& s_;
  const Circuit& logical_;
  const CouplingGraph& g_;
  std::int32_t n_, np_, ng_;
  std::vector<std::pair<std::int32_t, std::int32_t>> dep_edges_;
  std::vector<std::vector<std::int32_t>> touching_;
  std::vector<std::vector<std::vector<std::int32_t>>> map_var_;
  std::vector<std::vector<std::int32_t>> exec_var_;
  std::vector<std::vector<std::int32_t>> sched_var_;
  std::vector<Lit> movers_;
  std::int32_t movers_layers_ = -1;
};

struct Extracted {
  MappedCircuit mapped;
  std::int64_t swaps = 0;
};

inline Extracted extract(const SolverInterface& s, const Encoder& e,
                         const Circuit& logical, const CouplingGraph& g,
                         std::int32_t layers) {
  const std::int32_t n = logical.num_qubits();
  const std::int32_t np = g.num_qubits();
  auto mapping_at = [&](std::int32_t t) {
    std::vector<PhysicalQubit> m(n, -1);
    for (std::int32_t l = 0; l < n; ++l) {
      for (std::int32_t p = 0; p < np; ++p) {
        if (s.value(e.map_var(t, l, p))) m[l] = p;
      }
    }
    return m;
  };

  Extracted out;
  out.mapped.circuit = Circuit(np);
  out.mapped.initial = mapping_at(0);
  std::vector<std::int32_t> occupant(np, -1);  // physical -> logical at t
  for (std::int32_t t = 0; t <= layers; ++t) {
    const auto now = mapping_at(t);
    for (std::size_t i = 0; i < logical.size(); ++i) {
      if (!s.value(e.exec_var(t, static_cast<std::int32_t>(i)))) continue;
      Gate hw = logical[i];
      hw.q0 = now[logical[i].q0];
      if (hw.two_qubit()) hw.q1 = now[logical[i].q1];
      out.mapped.circuit.append(hw);
    }
    if (t == layers) break;
    const auto next = mapping_at(t + 1);
    // The movement constraints admit exactly two kinds of move: a paired
    // exchange (the displaced occupant crosses back) and a slide into an
    // *empty* cell (n < np). Emit one SWAP per exchange (from the smaller
    // physical id) and one per slide — dropping slides would teleport the
    // qubit out from under the checker's occupancy tracking.
    std::fill(occupant.begin(), occupant.end(), -1);
    for (std::int32_t l = 0; l < n; ++l) occupant[now[l]] = l;
    for (std::int32_t l = 0; l < n; ++l) {
      if (next[l] == now[l]) continue;
      const std::int32_t partner = occupant[next[l]];
      if (partner >= 0 && now[l] > next[l]) continue;  // the pair's other half
      out.mapped.circuit.append(Gate::swap(now[l], next[l]));
      ++out.swaps;
    }
  }
  out.mapped.final_mapping = mapping_at(layers);
  out.mapped.circuit.shrink_to_fit();  // results carry no growth slack
  return out;
}

}  // namespace qfto::satmap_detail
