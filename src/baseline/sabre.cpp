#include "baseline/sabre.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "arch/device_model.hpp"
#include "circuit/dag.hpp"
#include "circuit/scheduler.hpp"
#include "circuit/stats.hpp"
#include "common/prng.hpp"
#include "verify/fidelity.hpp"
#include "verify/mapping_tracker.hpp"

namespace qfto {

namespace {

/// Every edge a SWAP can use, listed under each endpoint in ascending
/// neighbour order and built once per route, so a blocked step emits its
/// candidates already sorted. Each directed edge (a, b) has a slot; the
/// step state caches candidate deltas by slot.
///
/// Each edge carries its penalty for the fidelity objective: the calibrated
/// -log10(1-e2) of the edge, normalized to (0, 1] by the device's worst
/// edge, then scaled by fidelity_weight. The scoring loop multiplies this by
/// a per-step tie scale that sits strictly below the smallest distance-score
/// quantum, so the penalty steers among distance-equal swaps but can never
/// outvote progress toward the front — a penalty that rivals the distance
/// terms livelocks the router on low-error edges (zero-progress swaps win
/// forever; the decay mechanism resets every few swaps and cannot catch up).
/// Inactive (zero penalties, no device probes) unless the objective is on
/// and a device is bound, so the depth path computes exactly what it always
/// did.
class SwapEdges {
 public:
  struct Edge {
    PhysicalQubit a;
    PhysicalQubit b;
    double penalty;
  };

  SwapEdges(const SabreOptions& opts, const CouplingGraph& g) {
    double inv_worst = 0.0;
    if (opts.fidelity_objective && opts.device != nullptr) {
      double worst = 0.0;
      for (const DeviceEdge& e : opts.device->edges()) {
        worst = std::max(worst, -std::log10(1.0 - e.error_2q));
      }
      if (worst > 0.0) {
        device_ = opts.device;
        inv_worst = 1.0 / worst;
      }
    }
    offset_.reserve(static_cast<std::size_t>(g.num_qubits()) + 1);
    for (PhysicalQubit a = 0; a < g.num_qubits(); ++a) {
      offset_.push_back(static_cast<std::int32_t>(edges_.size()));
      for (PhysicalQubit b : g.neighbors(a)) {
        const double penalty =
            penalized() ? opts.fidelity_weight *
                              -std::log10(1.0 - device_->edge_error(a, b)) *
                              inv_worst
                        : 0.0;
        edges_.push_back({a, b, penalty});
      }
      std::sort(edges_.begin() + offset_.back(), edges_.end(),
                [](const Edge& x, const Edge& y) { return x.b < y.b; });
    }
    offset_.push_back(static_cast<std::int32_t>(edges_.size()));
  }

  bool penalized() const { return device_ != nullptr; }

  const Edge* begin(PhysicalQubit a) const {
    return edges_.data() + offset_[a];
  }
  const Edge* end(PhysicalQubit a) const {
    return edges_.data() + offset_[a + 1];
  }

  std::size_t num_slots() const { return edges_.size(); }
  std::size_t slot(const Edge* e) const {
    return static_cast<std::size_t>(e - edges_.data());
  }

 private:
  const DeviceModel* device_ = nullptr;
  std::vector<std::int32_t> offset_;  // num_qubits + 1
  std::vector<Edge> edges_;
};

/// Pass-scoped view over the DistanceOracle: pins row handles on first
/// touch so the scoring inner loop is a plain array load per query — no
/// oracle mutex, no closed-form dispatch. Pinned handles survive the
/// oracle's LRU eviction; the pin set itself is flushed when it would grow
/// past the oracle's own budget, keeping memory in rows-touched, not n².
/// A flush invalidates every row pointer handed out, so callers hold a
/// distance, never a row.
class DistView {
 public:
  explicit DistView(const CouplingGraph& g)
      : oracle_(&g.distances()),
        rowptr_(static_cast<std::size_t>(g.num_qubits()), nullptr),
        limit_(std::max<std::size_t>(64, oracle_->row_budget())) {}

  const std::int32_t* row(PhysicalQubit a) {
    const std::int32_t* r = rowptr_[a];
    if (r == nullptr) {
      if (pinned_.size() >= limit_) {
        pinned_.clear();
        std::fill(rowptr_.begin(), rowptr_.end(), nullptr);
      }
      pinned_.push_back(oracle_->row(a));
      r = pinned_.back()->data();
      rowptr_[a] = r;
    }
    return r;
  }

 private:
  const DistanceOracle* oracle_;
  std::vector<const std::int32_t*> rowptr_;
  std::vector<DistanceOracle::RowPtr> pinned_;
  std::size_t limit_;
};

/// The blocked step's front and extended pairs, indexed under both of their
/// logical endpoints. A SWAP (sa, sb) moves only the pairs that touch sa or
/// sb, so a candidate is scored by walking those two endpoint lists instead
/// of every pair. A pair is a two-qubit gate of the DAG, keyed by its gate
/// index: a front gate with weight 1, or an extended gate with the number
/// of times the extended-set walk lists it (the walk can reach a gate along
/// several paths, and each listing counts). Each logical qubit keeps one
/// list, its front entries first, and pairs come and go one at a time, so
/// the index follows the front layer and the extended set as they change.
/// Logical keys never change under a SWAP: follow_swap() re-points and
/// re-measures the moved pairs in place.
class EndpointIndex {
 public:
  struct Entry {
    PhysicalQubit partner;  // where the pair's other endpoint sits now
    std::int32_t dist;      // the pair's distance under the current mapping
    std::int32_t weight;    // the pair's multiplicity
    std::int32_t gate;      // the pair's gate index
    LogicalQubit other;     // the pair's other endpoint
    std::int32_t twin;      // the same pair's entry in other's list
  };
  struct Range {
    const Entry* first;
    const Entry* last;
  };

  EndpointIndex(std::int32_t num_logical, std::size_t num_gates)
      : qubits_(static_cast<std::size_t>(num_logical)), slots_(num_gates) {}

  /// Drops every pair.
  void clear() {
    for (Qubit& q : qubits_) {
      for (const Entry& e : q.entries) slots_[e.gate].set = kNone;
      q.entries.clear();
      q.num_front = 0;
    }
    sum_[kFront] = sum_[kExtended] = 0;
  }

  bool has(std::int32_t gate) const { return slots_[gate].set != kNone; }
  bool is_extended(std::int32_t gate) const {
    return slots_[gate].set == kExtended;
  }
  std::int32_t weight(std::int32_t gate) const { return entry(gate).weight; }

  /// Adds gate's pair to the front or the extended set: logical a on
  /// physical pa, b on pb, at distance dist. The gate must not be indexed.
  void add(std::int32_t gate, bool front, LogicalQubit a, PhysicalQubit pa,
           LogicalQubit b, PhysicalQubit pb, std::int32_t dist,
           std::int32_t weight) {
    const std::int8_t set = front ? kFront : kExtended;
    const std::int32_t ia = insert(a, front, {pb, dist, weight, gate, b, -1});
    const std::int32_t ib = insert(b, front, {pa, dist, weight, gate, a, ia});
    qubits_[a].entries[ia].twin = ib;
    slots_[gate] = {a, ia, set};
    sum_[set] += static_cast<std::int64_t>(weight) * dist;
  }

  /// Removes an indexed gate's pair.
  void remove(std::int32_t gate) {
    Slot& s = slots_[gate];
    const Entry e = entry(gate);
    sum_[s.set] -= static_cast<std::int64_t>(e.weight) * e.dist;
    erase(s.a, s.ia, s.set == kFront);
    erase(e.other, e.twin, s.set == kFront);
    s.set = kNone;
  }

  /// Sets an indexed pair's multiplicity.
  void reweight(std::int32_t gate, std::int32_t weight) {
    const Slot& s = slots_[gate];
    Entry& e = qubits_[s.a].entries[s.ia];
    sum_[s.set] += static_cast<std::int64_t>(weight - e.weight) * e.dist;
    e.weight = twin(e).weight = weight;
  }

  /// Distance sums over all front / extended pairs, each times its weight.
  std::int64_t front_sum() const { return sum_[kFront]; }
  std::int64_t extended_sum() const { return sum_[kExtended]; }

  /// False for kInvalidQubit (an empty physical slot).
  bool in_front(LogicalQubit l) const {
    return l != kInvalidQubit && qubits_[l].num_front != 0;
  }

  /// Entries of the front / extended / all pairs with an endpoint at l.
  Range front(LogicalQubit l) const {
    const Qubit& q = qubits_[l];
    return {q.entries.data(), q.entries.data() + q.num_front};
  }
  Range extended(LogicalQubit l) const {
    const Qubit& q = qubits_[l];
    return {q.entries.data() + q.num_front,
            q.entries.data() + q.entries.size()};
  }
  Range all(LogicalQubit l) const {
    const Qubit& q = qubits_[l];
    return {q.entries.data(), q.entries.data() + q.entries.size()};
  }

  /// Follows a SWAP that left logical `a` at physical `pa` and `b` at `pb`
  /// (either may be kInvalidQubit): the twins of their entries learn the new
  /// positions, then every pair at a or b takes its new distance, on both of
  /// its entries and in the sums. `dist(x, y)` is the hop distance.
  template <typename DistFn>
  void follow_swap(LogicalQubit a, PhysicalQubit pa, LogicalQubit b,
                   PhysicalQubit pb, DistFn&& dist) {
    const LogicalQubit moved[2] = {a, b};
    const PhysicalQubit to[2] = {pa, pb};
    for (int k = 0; k < 2; ++k) {
      if (moved[k] == kInvalidQubit) continue;
      for (const Entry& e : qubits_[moved[k]].entries) twin(e).partner = to[k];
    }
    // The pair (a, b) itself is visited from both ends; its distance is
    // symmetric in the swap, so both visits add zero.
    for (int k = 0; k < 2; ++k) {
      if (moved[k] == kInvalidQubit) continue;
      Qubit& q = qubits_[moved[k]];
      for (std::int32_t i = 0; i < static_cast<std::int32_t>(q.entries.size());
           ++i) {
        Entry& e = q.entries[i];
        const std::int32_t d = dist(e.partner, to[k]);
        sum_[i < q.num_front ? kFront : kExtended] +=
            static_cast<std::int64_t>(e.weight) * (d - e.dist);
        e.dist = twin(e).dist = d;
      }
    }
  }

 private:
  static constexpr std::int8_t kFront = 0;
  static constexpr std::int8_t kExtended = 1;
  static constexpr std::int8_t kNone = 2;

  struct Qubit {
    std::vector<Entry> entries;  // [0, num_front): front; the rest: extended
    std::int32_t num_front = 0;
  };
  /// Where a gate's pair sits: its entry in endpoint a's list, and its set.
  struct Slot {
    LogicalQubit a = 0;
    std::int32_t ia = 0;
    std::int8_t set = kNone;
  };

  const Entry& entry(std::int32_t gate) const {
    const Slot& s = slots_[gate];
    return qubits_[s.a].entries[s.ia];
  }
  Entry& twin(const Entry& e) { return qubits_[e.other].entries[e.twin]; }

  /// Points the twin and the slot of l's entry i at i, after a move.
  void relink(LogicalQubit l, std::int32_t i) {
    const Entry& e = qubits_[l].entries[i];
    twin(e).twin = i;
    Slot& s = slots_[e.gate];
    if (s.a == l) s.ia = i;
  }

  /// Puts e into l's list, a front entry at the end of the front part (the
  /// extended entry there moves to the end); returns its index.
  std::int32_t insert(LogicalQubit l, bool front, const Entry& e) {
    Qubit& q = qubits_[l];
    auto i = static_cast<std::int32_t>(q.entries.size());
    q.entries.push_back(e);
    if (front) {
      const std::int32_t f = q.num_front++;
      if (f != i) {
        q.entries[i] = q.entries[f];
        relink(l, i);
        q.entries[f] = e;
        i = f;
      }
    }
    return i;
  }

  /// Removes l's entry i: a front hole takes the last front entry, and the
  /// hole left at the end of the front part takes the last entry.
  void erase(LogicalQubit l, std::int32_t i, bool front) {
    Qubit& q = qubits_[l];
    if (front) {
      const std::int32_t f = --q.num_front;
      if (i != f) {
        q.entries[i] = q.entries[f];
        relink(l, i);
      }
      i = f;
    }
    const auto last = static_cast<std::int32_t>(q.entries.size()) - 1;
    if (i != last) {
      q.entries[i] = q.entries[last];
      relink(l, i);
    }
    q.entries.pop_back();
  }

  std::vector<Qubit> qubits_;  // by logical qubit
  std::vector<Slot> slots_;    // by gate index
  std::int64_t sum_[2] = {0, 0};
};

/// How the distance sum over an index range changes when the qubit it is
/// listed under moves to `to`: each pair goes from its stored distance to
/// d(partner, to), except the pair with `to` itself — the swap's own pair,
/// which keeps its distance. Rows are read by partner, a front or extended
/// endpoint, so the view pins only those rows, not one per candidate
/// neighbour.
std::int64_t moved(DistView& dist, EndpointIndex::Range r, PhysicalQubit to) {
  std::int64_t delta = 0;
  for (const EndpointIndex::Entry* e = r.first; e != r.last; ++e) {
    if (e->partner != to) {
      delta += static_cast<std::int64_t>(e->weight) *
               (dist.row(e->partner)[to] - e->dist);
    }
  }
  return delta;
}

// One full routing pass. When `emit` is false only the final mapping is
// produced (used by the bidirectional initial-mapping refinement).
struct PassResult {
  Circuit circuit;
  std::vector<PhysicalQubit> final_mapping;
  std::int64_t swaps = 0;
};

Circuit reversed(const Circuit& c) {
  Circuit r(c.num_qubits());
  for (std::size_t i = c.size(); i-- > 0;) r.append(c[i]);
  return r;
}

Dag build_dag(const Circuit& c, const SabreOptions& opts) {
  return opts.use_relaxed_dag ? build_relaxed_dag(c) : build_strict_dag(c);
}

std::vector<PhysicalQubit> random_injection(std::int32_t n, std::int32_t p,
                                            Xoshiro256ss& rng) {
  std::vector<PhysicalQubit> nodes(p);
  std::iota(nodes.begin(), nodes.end(), 0);
  for (std::int32_t i = p - 1; i > 0; --i) {
    std::swap(nodes[i], nodes[rng.uniform(static_cast<std::uint64_t>(i) + 1)]);
  }
  nodes.resize(n);
  return nodes;
}

/// One sabre_route call: the forward and reversed circuits with their DAGs
/// and the SWAP edge table are built once and shared by every trial and
/// pass, and so are the step-state buffers.
class Router {
 public:
  Router(const Circuit& logical, const CouplingGraph& g,
         const SabreOptions& opts)
      : logical_(logical),
        g_(g),
        opts_(opts),
        dag_(build_dag(logical, opts)),
        edges_(opts, g),
        pairs_(logical.num_qubits(), dag_.size()),
        deltas_(edges_.num_slots()),
        priced_at_(edges_.num_slots(), 0),
        changed_at_(static_cast<std::size_t>(g.num_qubits()), 0),
        listed_(static_cast<std::size_t>(g.num_qubits()), 0),
        best_set_(edges_.num_slots()),
        pos_(dag_.size(), -1),
        walk_count_(dag_.size(), 0),
        stats_(opts.stats_out != nullptr ? opts.stats_out : &own_stats_) {
    require(logical.num_qubits() <= g.num_qubits(),
            "sabre: more logical qubits than physical");
    require(g.connected(), "sabre: coupling graph must be connected");
    if (opts.bidirectional_passes > 0) {
      rev_ = reversed(logical);
      rev_dag_ = build_dag(rev_, opts);
    }
    *stats_ = SabreStats{};
  }

  /// One seeded trial: random initial mapping, the refinement sweeps, then
  /// the emitting pass. `steered` adds the fidelity objective's edge
  /// penalties, when the edge table has them.
  MappedCircuit trial(std::uint64_t seed, bool steered) {
    Xoshiro256ss rng(seed);
    std::vector<PhysicalQubit> initial =
        random_injection(logical_.num_qubits(), g_.num_qubits(), rng);
    for (std::int32_t pass = 0; pass < opts_.bidirectional_passes; ++pass) {
      initial = route_pass(logical_, dag_, initial, rng, steered, false)
                    .final_mapping;
      initial = route_pass(rev_, rev_dag_, initial, rng, steered, false)
                    .final_mapping;
    }
    PassResult res = route_pass(logical_, dag_, initial, rng, steered, true);
    MappedCircuit mc;
    mc.circuit = std::move(res.circuit);
    mc.initial = std::move(initial);
    mc.final_mapping = std::move(res.final_mapping);
    return mc;
  }

  /// Records the returned route in the stats and trims its gate store.
  MappedCircuit finish(MappedCircuit winner) {
    stats_->swaps = count_gates(winner.circuit).swap;
    winner.circuit.shrink_to_fit();
    return winner;
  }

 private:
  struct Delta {
    std::int64_t front;
    std::int64_t ext;
  };

  PassResult route_pass(const Circuit& logical, const Dag& dag,
                        const std::vector<PhysicalQubit>& initial,
                        Xoshiro256ss& rng, bool steered, bool emit);

  /// Drops the cached deltas of every candidate with an endpoint at p.
  void invalidate_at(PhysicalQubit p) { changed_at_[p] = step_; }

  /// Whether the delta cached for slot s, an edge (sa, sb), still holds:
  /// it was priced no earlier than the last change at either endpoint.
  bool priced(std::size_t s, PhysicalQubit sa, PhysicalQubit sb) const {
    return priced_at_[s] >= changed_at_[sa] && priced_at_[s] >= changed_at_[sb];
  }

  /// Drops every cached delta.
  void invalidate_all() {
    ++step_;
    std::fill(changed_at_.begin(), changed_at_.end(), step_);
  }

  const Circuit& logical_;
  const CouplingGraph& g_;
  const SabreOptions& opts_;
  const Dag dag_;
  Circuit rev_;
  Dag rev_dag_;
  const SwapEdges edges_;

  // Step state, reused by every pass.
  EndpointIndex pairs_;
  // A candidate's delta depends only on the pairs at its two endpoints, so
  // the cache is validated per physical qubit: a patch that changes the
  // pairs at a qubit, or which logical qubit sits there, stamps it with the
  // upcoming step, and a delta priced before that stamp is stale.
  std::vector<Delta> deltas_;           // by SwapEdges slot
  std::vector<std::uint64_t> priced_at_;   // by slot: the step that priced it
  std::vector<std::uint64_t> changed_at_;  // by physical qubit
  std::uint64_t step_ = 0;                 // the upcoming scoring step
  std::vector<std::uint8_t> listed_;  // by physical qubit: in front_qubits_
  std::vector<std::int32_t> extended_;
  std::vector<std::int32_t> walked_;  // the previous step's extended set
  std::vector<std::int32_t> queue_;
  std::vector<PhysicalQubit> front_qubits_;
  std::vector<const SwapEdges::Edge*> best_set_;  // one per slot; a prefix
                                                 // holds the tie set
  std::vector<std::int32_t> pos_;         // by gate: index in the front layer
  std::vector<std::int32_t> walk_count_;  // by gate; zero between steps
  std::vector<std::int32_t> ready_;       // front positions of runnable gates
  std::vector<std::int32_t> entered_;     // gates that joined the front
  std::vector<LogicalQubit> front_moved_;  // qubits whose front pairs changed

  SabreStats own_stats_;
  SabreStats* stats_;
};

PassResult Router::route_pass(const Circuit& logical, const Dag& dag,
                              const std::vector<PhysicalQubit>& initial,
                              Xoshiro256ss& rng, bool steered, bool emit) {
  ++stats_->passes;
  const CouplingGraph& g = g_;
  const SabreOptions& opts = opts_;
  const std::int32_t n = logical.num_qubits();
  const bool penalized = steered && edges_.penalized();
  DistView dist(g);
  MappingTracker map(initial, g.num_qubits());

  std::vector<std::int32_t> indeg(dag.size(), 0);
  for (const auto& ss : dag.succ) {
    for (auto s : ss) ++indeg[s];
  }
  std::vector<std::int32_t> front;

  PassResult out;
  out.circuit = Circuit(g.num_qubits());
  std::vector<double> decay(n, 1.0);
  std::int32_t swaps_since_reset = 0;

  const auto runnable = [&](std::int32_t gi) {
    const Gate& gate = logical[gi];
    return !gate.two_qubit() ||
           g.adjacent(map.physical_of(gate.q0), map.physical_of(gate.q1));
  };
  const auto join_front = [&](std::int32_t gi) {
    pos_[gi] = static_cast<std::int32_t>(front.size());
    if (runnable(gi)) ready_.push_back(pos_[gi]);
    front.push_back(gi);
    entered_.push_back(gi);
  };

  // The step state — the extended set, the endpoint index with its base
  // sums, the sorted front qubits, the cached candidate deltas and the score
  // scales — is a function of the front layer and the mapping. Invariant:
  // at every blocked step, every part of it, and every cached delta that
  // priced() accepts, equals what a rebuild from the current front and
  // mapping would produce. It is patched, never rebuilt: a SWAP moves only
  // the pairs at its two logical qubits, and a gate that runs or joins the
  // front moves only its own pair and the extended-set pairs the re-walk
  // finds changed. Each patch invalidates the deltas of the candidates it
  // can have changed. The state holds distances, never DistView row
  // pointers, so a pin-set flush cannot leave it dangling.
  pairs_.clear();
  extended_.clear();
  for (const PhysicalQubit p : front_qubits_) listed_[p] = 0;
  front_qubits_.clear();
  ready_.clear();
  entered_.clear();
  front_moved_.clear();
  invalidate_all();
  for (std::size_t i = 0; i < dag.size(); ++i) {
    if (indeg[i] == 0) join_front(static_cast<std::int32_t>(i));
  }

  // A changed pair invalidates the candidates on its endpoints' qubits.
  const auto drop_pair = [&](std::int32_t gi) {
    const Gate& gate = logical[gi];
    if (!pairs_.is_extended(gi)) {
      front_moved_.push_back(gate.q0);
      front_moved_.push_back(gate.q1);
    }
    pairs_.remove(gi);
    invalidate_at(map.physical_of(gate.q0));
    invalidate_at(map.physical_of(gate.q1));
  };
  const auto add_pair = [&](std::int32_t gi, bool in_front,
                            std::int32_t weight) {
    const LogicalQubit la = logical[gi].q0, lb = logical[gi].q1;
    const PhysicalQubit a = map.physical_of(la);
    const PhysicalQubit b = map.physical_of(lb);
    pairs_.add(gi, in_front, la, a, lb, b, dist.row(a)[b], weight);
    invalidate_at(a);
    invalidate_at(b);
    if (in_front) {
      front_moved_.push_back(la);
      front_moved_.push_back(lb);
    }
  };

  // Runs the gates at the ready front positions, and every gate they let
  // join the front that can run too. The front sweep this replaces visited
  // positions in ascending order, giving a run gate's position to the last
  // gate; taking the smallest ready position each time with the same
  // swap-and-pop leaves the front in the same order. Runnability does not
  // change while no SWAP is applied, so each gate is tested once, on
  // joining the front or when a SWAP brings its endpoints together.
  const auto run_ready = [&] {
    while (!ready_.empty()) {
      const auto it = std::min_element(ready_.begin(), ready_.end());
      const std::int32_t p = *it;
      *it = ready_.back();
      ready_.pop_back();
      const std::int32_t gi = front[p];
      const Gate& gate = logical[gi];
      if (emit) {
        Gate hw = gate;
        hw.q0 = map.physical_of(gate.q0);
        if (gate.two_qubit()) hw.q1 = map.physical_of(gate.q1);
        out.circuit.append(hw);
      }
      if (pairs_.has(gi)) drop_pair(gi);
      pos_[gi] = -1;
      const auto last = static_cast<std::int32_t>(front.size()) - 1;
      if (p != last) {
        front[p] = front[last];
        pos_[front[p]] = p;
        std::replace(ready_.begin(), ready_.end(), last, p);
      }
      front.pop_back();
      for (auto s : dag.succ[gi]) {
        if (--indeg[s] == 0) join_front(s);
      }
    }
  };

  double front_size = 0.0, ext_size = 0.0, tie_scale = 0.0;

  // Brings the state up to date with a front layer that gates have left or
  // joined. Every gate left in the front is a two-qubit gate whose
  // endpoints are not adjacent.
  const auto patch_front = [&] {
    for (const std::int32_t gi : entered_) {
      if (pos_[gi] < 0) continue;  // ran already
      if (pairs_.has(gi)) drop_pair(gi);  // was an extended pair
      add_pair(gi, true, 1);
    }
    entered_.clear();

    // Extended set: the next few two-qubit gates past the front layer,
    // walked from the front in its order exactly as a rebuild would. Only
    // the pairs whose multiplicity differs from the last walk change.
    std::swap(extended_, walked_);
    extended_.clear();
    queue_ = front;
    for (std::size_t head = 0;
         head < queue_.size() &&
         static_cast<std::int32_t>(extended_.size()) < opts.extended_size;
         ++head) {
      for (auto s : dag.succ[queue_[head]]) {
        if (logical[s].two_qubit()) extended_.push_back(s);
        queue_.push_back(s);
        if (static_cast<std::int32_t>(extended_.size()) >=
            opts.extended_size)
          break;
      }
    }
    for (const std::int32_t gi : extended_) ++walk_count_[gi];
    for (const std::int32_t gi : walked_) {
      if (walk_count_[gi] == 0 && pairs_.is_extended(gi)) drop_pair(gi);
    }
    for (const std::int32_t gi : extended_) {
      const std::int32_t count = walk_count_[gi];
      if (count == 0) continue;  // a repeat, handled at its first listing
      walk_count_[gi] = 0;
      if (!pairs_.has(gi)) {
        add_pair(gi, false, count);
      } else if (pairs_.weight(gi) != count) {
        pairs_.reweight(gi, count);
        invalidate_at(map.physical_of(logical[gi].q0));
        invalidate_at(map.physical_of(logical[gi].q1));
      }
    }

    // Candidates touch a front-layer qubit. They come out in (a, b) order
    // — distinct front qubits ascending, each one's neighbours ascending —
    // which is the order the tie set, and so the RNG draw, indexes.
    for (const LogicalQubit l : front_moved_) {
      const PhysicalQubit p = map.physical_of(l);
      const bool want = pairs_.in_front(l);
      if (want == (listed_[p] != 0)) continue;
      listed_[p] = want;
      const auto it =
          std::lower_bound(front_qubits_.begin(), front_qubits_.end(), p);
      if (want) {
        front_qubits_.insert(it, p);
      } else {
        front_qubits_.erase(it);
      }
    }
    front_moved_.clear();

    front_size = static_cast<double>(front.size());
    ext_size = static_cast<double>(extended_.size());

    // Distance scores move in quanta of 1/|front| (and W/|ext| for the
    // lookahead term); keeping the penalty below half the smallest
    // quantum guarantees any swap that shortens a front pair beats any
    // that does not, whatever the calibration says — convergence is the
    // depth path's.
    tie_scale = 0.0;
    if (penalized) {
      const double fq = 1.0 / front_size;
      const double eq = (!extended_.empty() && opts.extended_weight > 0.0)
                            ? opts.extended_weight / ext_size
                            : fq;
      tie_scale = 0.5 * std::min(fq, eq);
    }
  };

  const std::int64_t swap_cap =
      1000 + 64 * static_cast<std::int64_t>(dag.size()) *
                 std::max<std::int32_t>(1, g.num_qubits() / 8);

  // The first step patches the empty state for the whole initial front.
  bool front_changed = true;
  while (true) {
    if (front_changed) {
      run_ready();
      if (front.empty()) break;
      ++stats_->rebuilt_steps;
      patch_front();
    }
    ++stats_->blocked_steps;

    // Score = max decay * (sum_F dist / |F| + W * sum_E dist / |E|) under
    // the hypothetical swap. A swap (sa, sb) changes only the pairs with an
    // endpoint at sa or sb: an entry (sa, q) with q != sb goes from dist to
    // d(q, sb), and symmetrically under sb; the pair (sa, sb) itself keeps
    // its distance. Hop distances are symmetric, so whichever endpoint's row
    // supplies a distance, it is the same integer. Each candidate's delta
    // over its two endpoint lists is cached by edge slot and kept until a
    // patch touches those lists. The sums are exact integers — the same
    // integers the full rescore adds up — and the divisions by |F| and |E|
    // are unchanged, so every score is the same double bit for bit: the
    // same tie set, the same RNG draw.
    const std::int64_t front_base = pairs_.front_sum();
    const std::int64_t ext_base = pairs_.extended_sum();
    const bool has_ext = !extended_.empty();
    double best = 1e300;
    std::size_t num_best = 0;
    for (PhysicalQubit sa : front_qubits_) {
      const LogicalQubit la = map.logical_at(sa);  // a front qubit: indexed
      const double da = decay[la];
      for (const auto* e = edges_.begin(sa); e != edges_.end(sa); ++e) {
        const PhysicalQubit sb = e->b;
        const LogicalQubit lb = map.logical_at(sb);
        const std::size_t s = edges_.slot(e);
        if (!priced(s, sa, sb)) {
          Delta d{moved(dist, pairs_.front(la), sb),
                  moved(dist, pairs_.extended(la), sb)};
          if (lb != kInvalidQubit) {
            d.front += moved(dist, pairs_.front(lb), sa);
            d.ext += moved(dist, pairs_.extended(lb), sa);
          }
          deltas_[s] = d;
          priced_at_[s] = step_;
          ++stats_->deltas_computed;
        }
        const std::int64_t front_sum = front_base + deltas_[s].front;
        const std::int64_t ext_sum = ext_base + deltas_[s].ext;
        const double basic = static_cast<double>(front_sum) / front_size;
        const double ext =
            has_ext ? static_cast<double>(ext_sum) / ext_size : 0.0;
        const double db = lb == kInvalidQubit ? 1.0 : decay[lb];
        double score = std::max(da, db) * (basic + opts.extended_weight * ext);
        if (penalized) score += tie_scale * e->penalty;
        // A score more than 1e-12 below the best so far starts a new tie
        // set; one within 1e-12 of it joins the set. Written with selects
        // rather than branches (measured ~5% faster on QFT-96 line): which
        // way a step's ties fall is data, not a pattern.
        const bool better = score < best - 1e-12;
        const bool tied = !better && score <= best + 1e-12;
        num_best = better ? 0 : num_best;
        best = better ? score : best;
        best_set_[num_best] = e;
        num_best += better || tied;
      }
    }
    require(num_best > 0, "sabre: no swap candidates on connected graph");
    const SwapEdges::Edge chosen = *best_set_[rng.uniform(num_best)];
    ++step_;

    if (emit) out.circuit.append(Gate::swap(chosen.a, chosen.b));
    const LogicalQubit la = map.logical_at(chosen.a);
    const LogicalQubit lb = map.logical_at(chosen.b);
    map.apply_swap(chosen.a, chosen.b);
    if (la != kInvalidQubit) decay[la] += opts.decay_delta;
    if (lb != kInvalidQubit) decay[lb] += opts.decay_delta;
    if (++swaps_since_reset >= opts.decay_reset) {
      std::fill(decay.begin(), decay.end(), 1.0);
      swaps_since_reset = 0;
    }
    if (++out.swaps > swap_cap) {
      throw std::logic_error("sabre: swap cap exceeded — routing diverged");
    }

    // Patch the state for the swap. la now sits at chosen.b and lb at
    // chosen.a. Only the pairs at la or lb changed distance, and only the
    // candidates with an endpoint on the qubits of la, lb or their partners
    // saw their delta change. The candidate set changes only if exactly one
    // of la and lb is in the front.
    pairs_.follow_swap(la, chosen.b, lb, chosen.a,
                       [&dist](PhysicalQubit x, PhysicalQubit y) {
                         return dist.row(x)[y];
                       });
    invalidate_at(chosen.a);
    invalidate_at(chosen.b);
    for (const LogicalQubit l : {la, lb}) {
      if (l == kInvalidQubit) continue;
      const EndpointIndex::Range all = pairs_.all(l);
      for (const EndpointIndex::Entry* e = all.first; e != all.last; ++e) {
        invalidate_at(e->partner);
      }
    }
    if (pairs_.in_front(la) != pairs_.in_front(lb)) {
      const bool a_front = pairs_.in_front(la);
      const PhysicalQubit from = a_front ? chosen.a : chosen.b;
      const PhysicalQubit to = a_front ? chosen.b : chosen.a;
      listed_[from] = 0;
      listed_[to] = 1;
      front_qubits_.erase(std::lower_bound(front_qubits_.begin(),
                                           front_qubits_.end(), from));
      front_qubits_.insert(std::lower_bound(front_qubits_.begin(),
                                            front_qubits_.end(), to),
                           to);
    }

    // A front gate can have become runnable only if it is on la or lb, and
    // then its pair is now at distance 1. A front pair is never adjacent at
    // a blocked step, so no front pair joins la and lb, and each runnable
    // gate is found once.
    for (const LogicalQubit l : {la, lb}) {
      if (l == kInvalidQubit) continue;
      const EndpointIndex::Range fr = pairs_.front(l);
      for (const EndpointIndex::Entry* e = fr.first; e != fr.last; ++e) {
        if (e->dist == 1) ready_.push_back(pos_[e->gate]);
      }
    }
    front_changed = !ready_.empty();
  }

  out.final_mapping = map.logical_to_physical();
  return out;
}

}  // namespace

MappedCircuit sabre_route_single(const Circuit& logical, const CouplingGraph& g,
                                 std::uint64_t seed,
                                 const SabreOptions& opts) {
  Router router(logical, g, opts);
  return router.finish(router.trial(seed, opts.fidelity_objective));
}

MappedCircuit sabre_route(const Circuit& logical, const CouplingGraph& g,
                          const SabreOptions& opts) {
  require(opts.trials >= 1, "sabre: trials >= 1");
  Router router(logical, g, opts);
  if (opts.fidelity_objective) {
    // Fidelity objective: the trial winner is the route with the best
    // expected log-success under the calibration (ties break on swap
    // count). The device's cycle table drives the decoherence depth.
    const LatencyModel lat = opts.device != nullptr
                                 ? opts.device->latency_model(g)
                                 : LatencyModel::unit();
    std::optional<MappedCircuit> best;
    double best_fid = 0.0;
    std::int64_t best_swaps = 0;
    const auto consider = [&](MappedCircuit mc) {
      const double fid =
          opts.device != nullptr
              ? log10_fidelity(mc.circuit, *opts.device, lat)
              : log10_fidelity(mc.circuit, NoiseModel{}, lat);
      const std::int64_t swaps = count_gates(mc.circuit).swap;
      if (!best || fid > best_fid + 1e-12 ||
          (fid > best_fid - 1e-12 && swaps < best_swaps)) {
        best = std::move(mc);
        best_fid = fid;
        best_swaps = swaps;
      }
    };
    // Each trial contributes two routes: the unsteered one (exactly what
    // the depth path would produce for this seed) and its penalty-steered
    // twin. The winner pool therefore contains every route the depth
    // objective considers, so the fidelity objective can never lose to it
    // on expected log-success — steering only wins when the calibration
    // says it actually helped.
    for (std::int32_t t = 0; t < opts.trials; ++t) {
      consider(router.trial(opts.seed + 7919ull * t, false));
      try {
        consider(router.trial(opts.seed + 7919ull * t, true));
      } catch (const std::logic_error&) {
        // A steered trial that trips the swap cap is dropped; its unsteered
        // twin above already covers the trial.
      }
    }
    return router.finish(std::move(*best));
  }
  std::optional<MappedCircuit> best;
  Cycle best_depth = 0;
  std::int64_t best_swaps = 0;
  for (std::int32_t t = 0; t < opts.trials; ++t) {
    MappedCircuit mc = router.trial(opts.seed + 7919ull * t, false);
    const Cycle depth = circuit_depth(mc.circuit);
    const std::int64_t swaps = count_gates(mc.circuit).swap;
    if (!best || depth < best_depth ||
        (depth == best_depth && swaps < best_swaps)) {
      best = std::move(mc);
      best_depth = depth;
      best_swaps = swaps;
    }
  }
  return router.finish(std::move(*best));
}

}  // namespace qfto
