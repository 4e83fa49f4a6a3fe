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
/// neighbour order and built once per pass, so a blocked step emits its
/// candidates already sorted.
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
        edges_.push_back({b, penalty});
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

 private:
  const DeviceModel* device_ = nullptr;
  std::vector<std::int32_t> offset_;  // num_qubits + 1
  std::vector<Edge> edges_;
};

struct SwapCandidate {
  PhysicalQubit a;
  PhysicalQubit b;
  double penalty;  // SwapEdges penalty of (a, b)
};

/// Pass-scoped view over the DistanceOracle: pins row handles on first
/// touch so the scoring inner loop is a plain array load per query — no
/// oracle mutex, no closed-form dispatch. Pinned handles survive the
/// oracle's LRU eviction; the pin set itself is flushed when it would grow
/// past the oracle's own budget, keeping memory in rows-touched, not n².
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
/// physical endpoints. A SWAP (sa, sb) moves only the pairs that touch sa or
/// sb, so a candidate is scored by walking those two endpoint lists instead
/// of every pair. Built by a counting sort over the touched qubits; a stamp
/// per physical qubit marks the ones touched this step, so nothing is
/// cleared between steps. Each qubit's list holds its front entries, then
/// its extended ones. A pair listed twice (the extended-set walk can reach a
/// gate along two paths) is indexed twice and counts twice.
class EndpointIndex {
 public:
  struct Entry {
    PhysicalQubit partner;
    std::int32_t dist;  // the pair's distance under the current mapping
  };
  struct Range {
    const Entry* first;
    const Entry* last;
  };

  explicit EndpointIndex(std::int32_t num_physical)
      : stamp_(static_cast<std::size_t>(num_physical), 0),
        begin_(static_cast<std::size_t>(num_physical), 0),
        mid_(static_cast<std::size_t>(num_physical), 0),
        end_(static_cast<std::size_t>(num_physical), 0) {}

  /// Starts a new step: every qubit reads as untouched.
  void clear() {
    if (++epoch_ == 0) {  // wrapped: stale stamps could alias the new epoch
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    touched_.clear();
    for (auto& set : pairs_) set.clear();
    sum_[kFront] = sum_[kExtended] = 0;
  }

  void add_front(PhysicalQubit a, PhysicalQubit b, std::int32_t dist) {
    add(kFront, a, b, dist);
  }
  void add_extended(PhysicalQubit a, PhysicalQubit b, std::int32_t dist) {
    add(kExtended, a, b, dist);
  }

  /// Lays the added pairs out by endpoint. Call once, after the last add.
  void build() {
    std::int32_t offset = 0;
    for (PhysicalQubit p : touched_) {
      begin_[p] = offset;
      offset += end_[p];
      end_[p] = begin_[p];  // fill cursor; ends at the range's end
    }
    entries_.resize(static_cast<std::size_t>(offset));
    fill(pairs_[kFront]);
    for (PhysicalQubit p : touched_) mid_[p] = end_[p];
    fill(pairs_[kExtended]);
  }

  /// Distance sums over all front / extended pairs.
  std::int64_t front_sum() const { return sum_[kFront]; }
  std::int64_t extended_sum() const { return sum_[kExtended]; }

  bool touched(PhysicalQubit p) const { return stamp_[p] == epoch_; }

  /// Entries of the front / extended pairs with an endpoint at a touched p.
  Range front(PhysicalQubit p) const {
    return {entries_.data() + begin_[p], entries_.data() + mid_[p]};
  }
  Range extended(PhysicalQubit p) const {
    return {entries_.data() + mid_[p], entries_.data() + end_[p]};
  }

 private:
  static constexpr int kFront = 0;
  static constexpr int kExtended = 1;

  struct Pair {
    PhysicalQubit a;
    PhysicalQubit b;
    std::int32_t dist;
  };

  void add(int set, PhysicalQubit a, PhysicalQubit b, std::int32_t dist) {
    pairs_[set].push_back({a, b, dist});
    sum_[set] += dist;
    count(a);
    count(b);
  }

  void count(PhysicalQubit p) {
    if (stamp_[p] != epoch_) {
      stamp_[p] = epoch_;
      end_[p] = 0;
      touched_.push_back(p);
    }
    ++end_[p];
  }

  void fill(const std::vector<Pair>& pairs) {
    for (const Pair& pr : pairs) {
      entries_[end_[pr.a]++] = {pr.b, pr.dist};
      entries_[end_[pr.b]++] = {pr.a, pr.dist};
    }
  }

  std::vector<std::uint32_t> stamp_;
  std::vector<std::int32_t> begin_;
  std::vector<std::int32_t> mid_;  // end of the front entries
  std::vector<std::int32_t> end_;  // a count until build(), then range end
  std::vector<PhysicalQubit> touched_;
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

PassResult route_pass(const Circuit& logical, const Dag& dag,
                      const CouplingGraph& g,
                      const std::vector<PhysicalQubit>& initial,
                      Xoshiro256ss& rng, const SabreOptions& opts, bool emit) {
  const std::int32_t n = logical.num_qubits();
  DistView dist(g);
  const SwapEdges edges(opts, g);
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

  // Round-scoped scratch, hoisted so the blocked-step loop never allocates
  // once capacities have warmed up.
  std::vector<SwapCandidate> cands;
  std::vector<std::int32_t> extended;
  std::vector<std::int32_t> queue;
  std::vector<PhysicalQubit> front_qubits;
  EndpointIndex pairs(g.num_qubits());
  std::vector<std::size_t> best_set;

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

  while (executed < dag.size()) {
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

    // Blocked: choose a SWAP. Every gate left in the front layer is a
    // two-qubit gate whose endpoints are not adjacent.

    // Extended set: the next few two-qubit gates past the front layer.
    extended.clear();
    queue = front;
    for (std::size_t head = 0;
         head < queue.size() &&
         static_cast<std::int32_t>(extended.size()) < opts.extended_size;
         ++head) {
      for (auto s : dag.succ[queue[head]]) {
        if (logical[s].two_qubit()) extended.push_back(s);
        queue.push_back(s);
        if (static_cast<std::int32_t>(extended.size()) >= opts.extended_size)
          break;
      }
    }

    // Score = max decay * (sum_F dist / |F| + W * sum_E dist / |E|) under
    // the hypothetical swap. A swap (sa, sb) changes only the pairs with an
    // endpoint at sa or sb: an entry (sa, q) with q != sb goes from dist to
    // d(q, sb), and symmetrically under sb; the pair (sa, sb) itself keeps
    // its distance. Hop distances are symmetric, so whichever endpoint's row
    // supplies a distance, it is the same integer. The base sums are taken
    // once per step and each candidate adds the deltas over its two endpoint
    // lists in the index. The sums are exact integers — the same integers
    // the full rescore adds up — and the divisions by |F| and |E| are
    // unchanged, so every score is the same double bit for bit: the same
    // tie set, the same RNG draw.
    pairs.clear();
    front_qubits.clear();
    for (auto gi : front) {
      const PhysicalQubit a = map.physical_of(logical[gi].q0);
      const PhysicalQubit b = map.physical_of(logical[gi].q1);
      pairs.add_front(a, b, dist.row(a)[b]);
      front_qubits.push_back(a);
      front_qubits.push_back(b);
    }
    for (auto gi : extended) {
      const PhysicalQubit a = map.physical_of(logical[gi].q0);
      const PhysicalQubit b = map.physical_of(logical[gi].q1);
      pairs.add_extended(a, b, dist.row(a)[b]);
    }
    pairs.build();

    // Candidates touch a front-layer qubit. They come out already in (a, b)
    // order — distinct front qubits ascending, each one's neighbours
    // ascending — which is the order the tie set, and so the RNG draw,
    // indexes.
    std::sort(front_qubits.begin(), front_qubits.end());
    front_qubits.erase(std::unique(front_qubits.begin(), front_qubits.end()),
                       front_qubits.end());
    cands.clear();
    for (PhysicalQubit p : front_qubits) {
      for (const auto* e = edges.begin(p); e != edges.end(p); ++e) {
        cands.push_back({p, e->b, e->penalty});
      }
    }

    const auto front_size = static_cast<double>(front.size());
    const auto ext_size = static_cast<double>(extended.size());

    // Distance scores move in quanta of 1/|front| (and W/|ext| for the
    // lookahead term); keeping the penalty below half the smallest quantum
    // guarantees any swap that shortens a front pair beats any that does
    // not, whatever the calibration says — convergence is the depth path's.
    double tie_scale = 0.0;
    if (edges.penalized()) {
      const double fq = 1.0 / front_size;
      const double eq = (!extended.empty() && opts.extended_weight > 0.0)
                            ? opts.extended_weight / ext_size
                            : fq;
      tie_scale = 0.5 * std::min(fq, eq);
    }

    double best = 1e300;
    best_set.clear();
    for (std::size_t ci = 0; ci < cands.size(); ++ci) {
      const SwapCandidate& cand = cands[ci];
      const PhysicalQubit sa = cand.a, sb = cand.b;
      // sa is a front qubit, so it is always indexed.
      std::int64_t front_sum = pairs.front_sum() + moved(pairs.front(sa), sb);
      std::int64_t ext_sum =
          pairs.extended_sum() + moved(pairs.extended(sa), sb);
      if (pairs.touched(sb)) {
        front_sum += moved(pairs.front(sb), sa);
        ext_sum += moved(pairs.extended(sb), sa);
      }
      const double basic = static_cast<double>(front_sum) / front_size;
      const double ext = extended.empty()
                             ? 0.0
                             : static_cast<double>(ext_sum) / ext_size;
      const LogicalQubit la = map.logical_at(sa);
      const LogicalQubit lb = map.logical_at(sb);
      const double da = la == kInvalidQubit ? 1.0 : decay[la];
      const double db = lb == kInvalidQubit ? 1.0 : decay[lb];
      double score = std::max(da, db) * (basic + opts.extended_weight * ext);
      if (edges.penalized()) score += tie_scale * cand.penalty;
      if (score < best - 1e-12) {
        best = score;
        best_set.assign(1, ci);
      } else if (score <= best + 1e-12) {
        best_set.push_back(ci);
      }
    }
    require(!best_set.empty(), "sabre: no swap candidates on connected graph");
    const SwapCandidate chosen = cands[best_set[rng.uniform(best_set.size())]];

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
  }

  out.final_mapping = map.logical_to_physical();
  return out;
}

Circuit reversed(const Circuit& c) {
  Circuit r(c.num_qubits());
  for (std::size_t i = c.size(); i-- > 0;) r.append(c[i]);
  return r;
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

}  // namespace

MappedCircuit sabre_route_single(const Circuit& logical, const CouplingGraph& g,
                                 std::uint64_t seed,
                                 const SabreOptions& opts) {
  require(logical.num_qubits() <= g.num_qubits(),
          "sabre: more logical qubits than physical");
  require(g.connected(), "sabre: coupling graph must be connected");
  const Dag dag =
      opts.use_relaxed_dag ? build_relaxed_dag(logical) : build_strict_dag(logical);
  Xoshiro256ss rng(seed);
  std::vector<PhysicalQubit> initial =
      random_injection(logical.num_qubits(), g.num_qubits(), rng);

  const Circuit rev = reversed(logical);
  const Dag rev_dag =
      opts.use_relaxed_dag ? build_relaxed_dag(rev) : build_strict_dag(rev);
  for (std::int32_t pass = 0; pass < opts.bidirectional_passes; ++pass) {
    initial = route_pass(logical, dag, g, initial, rng, opts, false).final_mapping;
    initial = route_pass(rev, rev_dag, g, initial, rng, opts, false).final_mapping;
  }

  PassResult res = route_pass(logical, dag, g, initial, rng, opts, true);
  MappedCircuit mc;
  mc.circuit = std::move(res.circuit);
  mc.initial = std::move(initial);
  mc.final_mapping = std::move(res.final_mapping);
  return mc;
}

MappedCircuit sabre_route(const Circuit& logical, const CouplingGraph& g,
                          const SabreOptions& opts) {
  require(opts.trials >= 1, "sabre: trials >= 1");
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
    SabreOptions plain = opts;
    plain.fidelity_objective = false;
    for (std::int32_t t = 0; t < opts.trials; ++t) {
      consider(sabre_route_single(logical, g, opts.seed + 7919ull * t, plain));
      try {
        consider(sabre_route_single(logical, g, opts.seed + 7919ull * t, opts));
      } catch (const std::logic_error&) {
        // A steered trial that trips the swap cap is dropped; its unsteered
        // twin above already covers the trial.
      }
    }
    return std::move(*best);
  }
  std::optional<MappedCircuit> best;
  Cycle best_depth = 0;
  std::int64_t best_swaps = 0;
  for (std::int32_t t = 0; t < opts.trials; ++t) {
    MappedCircuit mc =
        sabre_route_single(logical, g, opts.seed + 7919ull * t, opts);
    const Cycle depth = circuit_depth(mc.circuit);
    const std::int64_t swaps = count_gates(mc.circuit).swap;
    if (!best || depth < best_depth ||
        (depth == best_depth && swaps < best_swaps)) {
      best = std::move(mc);
      best_depth = depth;
      best_swaps = swaps;
    }
  }
  return std::move(*best);
}

}  // namespace qfto
