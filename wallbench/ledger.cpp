#include "ledger.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace wallbench {
namespace {

bool is_interval(const hs::obs::Span& s) {
  return s.clock == hs::obs::Clock::kWall && s.end > s.start;
}

/// Seconds of [start, end] covered by the union of `children`.
double covered(double start, double end,
               std::vector<std::pair<double, double>> children) {
  std::sort(children.begin(), children.end());
  double total = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [lo, hi] : children) {
    lo = std::max(lo, start);
    hi = std::min(hi, end);
    if (hi <= lo) continue;
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

/// Ledger row a library span's self time is charged to.
std::string ledger_row(const hs::obs::Span& s) {
  if (s.category == "CpuSort") return "cpu.radix";
  if (s.category == "Merge") return "cpu.merge";
  if (s.category == "Memcpy") return "cpu.memcpy";
  if (s.category == "Pool") return "cpu.pool";
  if (s.category == "Planner") return "core.plan";
  if (s.category == "Service") return "service.job";
  if (s.category == "ExternalSort") {
    if (s.name == "run-formation") return "io.run_formation";
    if (s.name == "merge") return "io.merge";
    if (s.name == "revalidate-runs") return "io.revalidate";
    return "io.external_sort";
  }
  return "other." + s.category;
}

}  // namespace

Ledger build_ledger(const std::vector<hs::obs::Span>& spans, double basis) {
  const std::size_t n = spans.size();
  // A span is opened before any of its children, so a parent's index is
  // always below its child's and one forward pass resolves every root.
  std::vector<std::size_t> root(n);
  std::vector<std::vector<std::pair<double, double>>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t p = spans[i].parent;
    const bool nested = is_interval(spans[i]) && p != hs::obs::kNoParent &&
                        p < i && is_interval(spans[p]);
    root[i] = nested ? root[p] : i;
    if (nested) children[p].emplace_back(spans[i].start, spans[i].end);
  }

  Ledger led;
  led.basis = basis;
  for (std::size_t i = 0; i < n; ++i) {
    const hs::obs::Span& s = spans[i];
    if (!is_interval(s)) continue;
    const double dur = s.end - s.start;
    if (s.category == kBenchCategory) {
      led.bench[s.name] += dur;
      continue;
    }
    const std::string& root_cat = spans[root[i]].category;
    if (root_cat == kBenchCategory || root_cat == "Service") {
      const double self = dur - covered(s.start, s.end, children[i]);
      led.self[ledger_row(s)] += self;
      led.attributed += self;
    } else if (root[i] == i && s.category == "Pool") {
      led.helper_busy += dur;
    }
  }
  led.unattributed = led.basis - led.attributed;
  return led;
}

}  // namespace wallbench
