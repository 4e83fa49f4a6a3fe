#include "mapper/line_engine.hpp"

#include <stdexcept>

namespace qfto {

namespace {

LogicalQubit occ(const LayerEmitter& em, PhysicalQubit p) {
  return em.tracker().logical_at(p);
}

}  // namespace

std::int32_t line_interaction_layer(LayerEmitter& em, const Line& line) {
  std::int32_t emitted = 0;
  for (std::size_t i = 0; i + 1 < line.size(); ++i) {
    if (em.try_cphase(line.edge(i))) ++emitted;
  }
  for (PhysicalQubit p : line.nodes()) {
    if (em.try_h(p)) ++emitted;
  }
  return emitted;
}

std::int32_t line_movement_layer(LayerEmitter& em, const Line& line,
                                 bool ascending) {
  return line_movement_layer(em, line, ascending,
                             [](PhysicalQubit) { return false; });
}

bool line_monotone(const LayerEmitter& em, const Line& line, bool ascending) {
  for (std::size_t i = 0; i + 1 < line.size(); ++i) {
    const LogicalQubit a = occ(em, line[i]), b = occ(em, line[i + 1]);
    if (ascending ? (a > b) : (a < b)) return false;
  }
  return true;
}

void line_presort_ascending(LayerEmitter& em, const Line& line) {
  while (!line_monotone(em, line, /*ascending=*/true)) {
    em.next_layer();
    for (std::size_t i = 0; i + 1 < line.size(); ++i) {
      const LogicalQubit a = occ(em, line[i]), b = occ(em, line[i + 1]);
      if (a != kInvalidQubit && b != kInvalidQubit && a > b) {
        em.try_swap(line.edge(i));
      }
    }
  }
}

void run_line_qft(LayerEmitter& em, const Line& line) {
  if (line.empty()) return;
  const bool asc_ok = line_monotone(em, line, true);
  const bool desc_ok = line_monotone(em, line, false);
  if (!asc_ok && !desc_ok) line_presort_ascending(em, line);
  const bool ascending = line_monotone(em, line, true);

  // Count the interactions still owed among this line's occupants.
  std::int64_t pending = 0;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const LogicalQubit a = occ(em, line[i]);
    if (!em.state().self_done(a)) ++pending;
    for (std::size_t j = i + 1; j < line.size(); ++j) {
      const LogicalQubit b = occ(em, line[j]);
      if (!em.state().pair_done(a, b)) ++pending;
    }
  }

  std::int32_t idle_rounds = 0;
  while (pending > 0) {
    em.next_layer();
    const std::int32_t interacted = line_interaction_layer(em, line);
    pending -= interacted;
    std::int32_t moved = 0;
    if (pending > 0) {
      em.next_layer();
      moved = line_movement_layer(em, line, ascending);
    }
    if (interacted == 0 && moved == 0) {
      if (++idle_rounds > 2) {
        throw std::logic_error("run_line_qft: stalled — line occupants "
                               "cannot complete their QFT locally");
      }
    } else {
      idle_rounds = 0;
    }
  }
}

}  // namespace qfto
