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
    reverse_.resize(edges_.size());
    for (std::size_t s = 0; s < edges_.size(); ++s) {
      const Edge* first = begin(edges_[s].b);
      const Edge* last = end(edges_[s].b);
      reverse_[s] = slot(std::lower_bound(
          first, last, edges_[s].a,
          [](const Edge& e, PhysicalQubit a) { return e.b < a; }));
    }
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
  /// Slot of (b, a) for the slot of (a, b).
  std::size_t reverse(std::size_t s) const { return reverse_[s]; }

 private:
  const DeviceModel* device_ = nullptr;
  std::vector<std::int32_t> offset_;  // num_qubits + 1
  std::vector<Edge> edges_;
  std::vector<std::size_t> reverse_;
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
/// of every pair. Logical keys never change under a SWAP, so the index
/// outlives one: follow_swap() re-points and re-measures the moved pairs in
/// place. Built by a counting sort over the touched qubits; a stamp per
/// logical qubit marks the ones touched this build, so nothing is cleared
/// between builds. Each qubit's list holds its front entries, then its
/// extended ones. A pair listed twice (the extended-set walk can reach a
/// gate along two paths) is indexed twice and counts twice.
class EndpointIndex {
 public:
  struct Entry {
    PhysicalQubit partner;  // where the pair's other endpoint sits now
    std::int32_t dist;      // the pair's distance under the current mapping
    std::int32_t twin;      // the same pair's entry under the other endpoint
  };
  struct Range {
    const Entry* first;
    const Entry* last;
  };

  explicit EndpointIndex(std::int32_t num_logical)
      : stamp_(static_cast<std::size_t>(num_logical), 0),
        begin_(static_cast<std::size_t>(num_logical), 0),
        mid_(static_cast<std::size_t>(num_logical), 0),
        end_(static_cast<std::size_t>(num_logical), 0) {}

  /// Starts a new build: every qubit reads as untouched.
  void clear() {
    if (++epoch_ == 0) {  // wrapped: stale stamps could alias the new epoch
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    touched_.clear();
    for (auto& set : pairs_) set.clear();
    sum_[kFront] = sum_[kExtended] = 0;
  }

  /// Adds a front or extended pair: logical a on physical pa, b on pb.
  void add(bool front, LogicalQubit a, PhysicalQubit pa, LogicalQubit b,
           PhysicalQubit pb, std::int32_t dist) {
    const int set = front ? kFront : kExtended;
    pairs_[set].push_back({a, pa, b, pb, dist});
    sum_[set] += dist;
    count(a);
    count(b);
  }

  /// Lays the added pairs out by endpoint. Call once, after the last add.
  void build() {
    std::int32_t offset = 0;
    for (LogicalQubit l : touched_) {
      begin_[l] = offset;
      offset += end_[l];
      end_[l] = begin_[l];  // fill cursor; ends at the range's end
    }
    entries_.resize(static_cast<std::size_t>(offset));
    fill(pairs_[kFront]);
    for (LogicalQubit l : touched_) mid_[l] = end_[l];
    fill(pairs_[kExtended]);
  }

  /// Distance sums over all front / extended pairs.
  std::int64_t front_sum() const { return sum_[kFront]; }
  std::int64_t extended_sum() const { return sum_[kExtended]; }

  /// False for kInvalidQubit (an empty physical slot).
  bool touched(LogicalQubit l) const {
    return l != kInvalidQubit && stamp_[l] == epoch_;
  }
  bool in_front(LogicalQubit l) const {
    return touched(l) && mid_[l] != begin_[l];
  }

  /// Entries of the front / extended pairs with an endpoint at a touched l.
  Range front(LogicalQubit l) const {
    return {entries_.data() + begin_[l], entries_.data() + mid_[l]};
  }
  Range extended(LogicalQubit l) const {
    return {entries_.data() + mid_[l], entries_.data() + end_[l]};
  }
  Range all(LogicalQubit l) const {
    return {entries_.data() + begin_[l], entries_.data() + end_[l]};
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
      if (!touched(moved[k])) continue;
      for (std::int32_t i = begin_[moved[k]]; i != end_[moved[k]]; ++i) {
        entries_[entries_[i].twin].partner = to[k];
      }
    }
    // The pair (a, b) itself is visited from both ends; its distance is
    // symmetric in the swap, so both visits add zero.
    for (int k = 0; k < 2; ++k) {
      if (!touched(moved[k])) continue;
      const LogicalQubit l = moved[k];
      for (std::int32_t i = begin_[l]; i != end_[l]; ++i) {
        Entry& e = entries_[i];
        const std::int32_t d = dist(e.partner, to[k]);
        sum_[i < mid_[l] ? kFront : kExtended] += d - e.dist;
        e.dist = entries_[e.twin].dist = d;
      }
    }
  }

 private:
  static constexpr int kFront = 0;
  static constexpr int kExtended = 1;

  struct Pair {
    LogicalQubit a;
    PhysicalQubit pa;
    LogicalQubit b;
    PhysicalQubit pb;
    std::int32_t dist;
  };

  void count(LogicalQubit l) {
    if (stamp_[l] != epoch_) {
      stamp_[l] = epoch_;
      end_[l] = 0;
      touched_.push_back(l);
    }
    ++end_[l];
  }

  void fill(const std::vector<Pair>& pairs) {
    for (const Pair& pr : pairs) {
      const std::int32_t ia = end_[pr.a]++;
      const std::int32_t ib = end_[pr.b]++;
      entries_[ia] = {pr.pb, pr.dist, ib};
      entries_[ib] = {pr.pa, pr.dist, ia};
    }
  }

  std::vector<std::uint32_t> stamp_;
  std::vector<std::int32_t> begin_;
  std::vector<std::int32_t> mid_;  // end of the front entries
  std::vector<std::int32_t> end_;  // a count until build(), then range end
  std::vector<LogicalQubit> touched_;
  std::vector<Pair> pairs_[2];
  std::int64_t sum_[2] = {0, 0};
  std::vector<Entry> entries_;
  std::uint32_t epoch_ = 0;
};

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
        pairs_(logical.num_qubits()),
        deltas_(edges_.num_slots()),
        delta_stamp_(edges_.num_slots(), 0),
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

  /// Records the returned route in the stats.
  MappedCircuit finish(MappedCircuit winner) {
    stats_->swaps = count_gates(winner.circuit).swap;
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
  void invalidate_at(PhysicalQubit p) {
    for (const auto* e = edges_.begin(p); e != edges_.end(p); ++e) {
      const std::size_t s = edges_.slot(e);
      delta_stamp_[s] = 0;
      delta_stamp_[edges_.reverse(s)] = 0;
    }
  }

  /// Drops every cached delta.
  void invalidate_all() {
    if (++delta_epoch_ == 0) {
      std::fill(delta_stamp_.begin(), delta_stamp_.end(), 0);
      delta_epoch_ = 1;
    }
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
  std::vector<Delta> deltas_;  // by SwapEdges slot
  std::vector<std::uint32_t> delta_stamp_;
  std::uint32_t delta_epoch_ = 0;
  std::vector<std::int32_t> extended_;
  std::vector<std::int32_t> queue_;
  std::vector<PhysicalQubit> front_qubits_;
  std::vector<const SwapEdges::Edge*> best_set_;

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
  for (std::size_t i = 0; i < dag.size(); ++i) {
    if (indeg[i] == 0) front.push_back(static_cast<std::int32_t>(i));
  }

  PassResult out;
  out.circuit = Circuit(g.num_qubits());
  std::vector<double> decay(n, 1.0);
  std::int32_t swaps_since_reset = 0;
  std::size_t executed = 0;

  auto resolve = [&](std::int32_t gi) {
    for (auto s : dag.succ[gi]) {
      if (--indeg[s] == 0) front.push_back(s);
    }
  };

  // How the distance sum over an index range changes when the qubit it is
  // listed under moves to `to`: each pair goes from its stored distance to
  // d(partner, to), except the pair with `to` itself — the swap's own pair,
  // which keeps its distance. Rows are read by partner, a front or extended
  // endpoint, so the view pins only those rows, not one per candidate
  // neighbour.
  const auto moved = [&dist](EndpointIndex::Range r, PhysicalQubit to) {
    std::int64_t delta = 0;
    for (const EndpointIndex::Entry* e = r.first; e != r.last; ++e) {
      if (e->partner != to) delta += dist.row(e->partner)[to] - e->dist;
    }
    return delta;
  };

  const std::int64_t swap_cap =
      1000 + 64 * static_cast<std::int64_t>(dag.size()) *
                 std::max<std::int32_t>(1, g.num_qubits() / 8);

  // The step state — the extended set, the endpoint index with its base
  // sums, the sorted front qubits, the cached candidate deltas and the score
  // scales — is a function of the front layer and the mapping. Invariant:
  // while `fresh`, every part of it (each cached delta included) equals what
  // a rebuild from the current front and mapping would produce. Only an
  // executed gate changes the front, so the state is rebuilt after one; a
  // SWAP that lets no gate run moves only the pairs at its two logical
  // qubits, and the end of the loop patches the state for it. The state
  // holds distances, never DistView row pointers, so a pin-set flush cannot
  // leave it dangling.
  bool fresh = false;
  double front_size = 0.0, ext_size = 0.0, tie_scale = 0.0;

  while (executed < dag.size()) {
    if (!fresh) {
      // Execute everything executable in the front layer.
      bool progress = true;
      while (progress) {
        progress = false;
        for (std::size_t fi = 0; fi < front.size();) {
          const std::int32_t gi = front[fi];
          const Gate& gate = logical[gi];
          const bool runnable =
              !gate.two_qubit() ||
              g.adjacent(map.physical_of(gate.q0), map.physical_of(gate.q1));
          if (runnable) {
            if (emit) {
              Gate hw = gate;
              hw.q0 = map.physical_of(gate.q0);
              if (gate.two_qubit()) hw.q1 = map.physical_of(gate.q1);
              out.circuit.append(hw);
            }
            front[fi] = front.back();
            front.pop_back();
            resolve(gi);
            ++executed;
            progress = true;
          } else {
            ++fi;
          }
        }
      }
      if (front.empty()) break;

      // Blocked: rebuild the step state. Every gate left in the front layer
      // is a two-qubit gate whose endpoints are not adjacent.
      ++stats_->rebuilt_steps;

      // Extended set: the next few two-qubit gates past the front layer.
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

      pairs_.clear();
      front_qubits_.clear();
      const auto add_pair = [&](std::int32_t gi, bool in_front) {
        const LogicalQubit la = logical[gi].q0, lb = logical[gi].q1;
        const PhysicalQubit a = map.physical_of(la);
        const PhysicalQubit b = map.physical_of(lb);
        pairs_.add(in_front, la, a, lb, b, dist.row(a)[b]);
      };
      for (auto gi : front) {
        add_pair(gi, true);
        front_qubits_.push_back(map.physical_of(logical[gi].q0));
        front_qubits_.push_back(map.physical_of(logical[gi].q1));
      }
      for (auto gi : extended_) add_pair(gi, false);
      pairs_.build();
      invalidate_all();

      // Candidates touch a front-layer qubit. They come out in (a, b) order
      // — distinct front qubits ascending, each one's neighbours ascending —
      // which is the order the tie set, and so the RNG draw, indexes.
      std::sort(front_qubits_.begin(), front_qubits_.end());
      front_qubits_.erase(
          std::unique(front_qubits_.begin(), front_qubits_.end()),
          front_qubits_.end());

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
    }
    ++stats_->blocked_steps;

    // Score = max decay * (sum_F dist / |F| + W * sum_E dist / |E|) under
    // the hypothetical swap. A swap (sa, sb) changes only the pairs with an
    // endpoint at sa or sb: an entry (sa, q) with q != sb goes from dist to
    // d(q, sb), and symmetrically under sb; the pair (sa, sb) itself keeps
    // its distance. Hop distances are symmetric, so whichever endpoint's row
    // supplies a distance, it is the same integer. Each candidate's delta
    // over its two endpoint lists is cached by edge slot and kept until a
    // SWAP touches those lists. The sums are exact integers — the same
    // integers the full rescore adds up — and the divisions by |F| and |E|
    // are unchanged, so every score is the same double bit for bit: the
    // same tie set, the same RNG draw.
    double best = 1e300;
    best_set_.clear();
    for (PhysicalQubit sa : front_qubits_) {
      const LogicalQubit la = map.logical_at(sa);  // a front qubit: indexed
      const double da = decay[la];
      for (const auto* e = edges_.begin(sa); e != edges_.end(sa); ++e) {
        const PhysicalQubit sb = e->b;
        const LogicalQubit lb = map.logical_at(sb);
        const std::size_t s = edges_.slot(e);
        if (delta_stamp_[s] != delta_epoch_) {
          Delta d{moved(pairs_.front(la), sb), moved(pairs_.extended(la), sb)};
          if (pairs_.touched(lb)) {
            d.front += moved(pairs_.front(lb), sa);
            d.ext += moved(pairs_.extended(lb), sa);
          }
          deltas_[s] = d;
          delta_stamp_[s] = delta_epoch_;
        }
        const std::int64_t front_sum = pairs_.front_sum() + deltas_[s].front;
        const std::int64_t ext_sum = pairs_.extended_sum() + deltas_[s].ext;
        const double basic = static_cast<double>(front_sum) / front_size;
        const double ext = extended_.empty()
                               ? 0.0
                               : static_cast<double>(ext_sum) / ext_size;
        const double db = lb == kInvalidQubit ? 1.0 : decay[lb];
        double score = std::max(da, db) * (basic + opts.extended_weight * ext);
        if (penalized) score += tie_scale * e->penalty;
        if (score < best - 1e-12) {
          best = score;
          best_set_.assign(1, e);
        } else if (score <= best + 1e-12) {
          best_set_.push_back(e);
        }
      }
    }
    require(!best_set_.empty(),
            "sabre: no swap candidates on connected graph");
    const SwapEdges::Edge chosen = *best_set_[rng.uniform(best_set_.size())];

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

    // A front gate can have become runnable only if it is on la or lb. If
    // one did, the next iteration executes it and rebuilds the state. A
    // front pair is never adjacent at a blocked step, so no front entry of
    // la or lb has the other as its partner, and their partners' qubits are
    // the ones stored.
    fresh = true;
    for (const LogicalQubit l : {la, lb}) {
      if (!pairs_.touched(l)) continue;
      const EndpointIndex::Range fr = pairs_.front(l);
      for (const EndpointIndex::Entry* e = fr.first; e != fr.last; ++e) {
        if (g.adjacent(map.physical_of(l), e->partner)) fresh = false;
      }
    }
    if (!fresh) continue;

    // No gate runs: patch the state for the swap. la now sits at chosen.b
    // and lb at chosen.a. Only the pairs at la or lb changed distance, and
    // only the candidates with an endpoint on the qubits of la, lb or their
    // partners saw their delta change. The front and the extended set are
    // unchanged; the candidate set changes only if exactly one of la and lb
    // is in the front.
    pairs_.follow_swap(la, chosen.b, lb, chosen.a,
                       [&dist](PhysicalQubit x, PhysicalQubit y) {
                         return dist.row(x)[y];
                       });
    invalidate_at(chosen.a);
    invalidate_at(chosen.b);
    for (const LogicalQubit l : {la, lb}) {
      if (!pairs_.touched(l)) continue;
      const EndpointIndex::Range all = pairs_.all(l);
      for (const EndpointIndex::Entry* e = all.first; e != all.last; ++e) {
        invalidate_at(e->partner);
      }
    }
    if (pairs_.in_front(la) != pairs_.in_front(lb)) {
      const bool a_front = pairs_.in_front(la);
      const PhysicalQubit from = a_front ? chosen.a : chosen.b;
      const PhysicalQubit to = a_front ? chosen.b : chosen.a;
      front_qubits_.erase(std::lower_bound(front_qubits_.begin(),
                                           front_qubits_.end(), from));
      front_qubits_.insert(std::lower_bound(front_qubits_.begin(),
                                            front_qubits_.end(), to),
                           to);
    }
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
