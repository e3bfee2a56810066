// Per-layer wall-clock ledger built from one traced unit's spans.
//
// The library's own span sites (CpuSort, Merge, Memcpy, Planner,
// ExternalSort, Service, Pool) mark its layers; the benchmark adds "Bench"
// spans around each public call it makes. A span's self time is its
// duration minus the part of it that its child spans cover. Spans nest per
// thread, so a library span counts toward the ledger when its root is a
// Bench span (work on the calling thread) or a Service job span (work on a
// service worker). Pool tasks run by helper threads for a caller that is
// itself busy are not on the blocking path; their busy time is reported
// apart and never attributed.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/span.h"

namespace wallbench {

inline constexpr const char* kBenchCategory = "Bench";

struct Ledger {
  /// Ledger row ("cpu.radix", "io.merge", ...) -> summed self seconds.
  std::map<std::string, double> self;
  /// Seconds the rows account for: the unit's wall, times the number of
  /// lanes that run it (service workers on a burst, else 1).
  double basis = 0;
  double attributed = 0;    // sum of `self`
  double unattributed = 0;  // basis - attributed
  double helper_busy = 0;   // pool-task seconds off the blocking path
  /// Bench span name -> summed duration (the benchmark's own boundaries).
  std::map<std::string, double> bench;

  double row(const std::string& name) const {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  }
  double bench_total(const std::string& name) const {
    const auto it = bench.find(name);
    return it == bench.end() ? 0.0 : it->second;
  }
};

Ledger build_ledger(const std::vector<hs::obs::Span>& spans, double basis);

}  // namespace wallbench
