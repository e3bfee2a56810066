// The benchmark's four workloads, each driving one public entry point:
//
//   inmem-f64           core::HeterogeneousSorter::sort_bytes, 2e7 f64, one batch
//   inmem-kv64-batched  the same call on 1e7 kv64 records in 1e6-record batches
//   sortfile-16run      io::external_sort_file, 1e7 doubles in 16 runs
//   serve-burst         service::JobScheduler, 128 jobs of 1e6 doubles at t0
//
// A workload makes its inputs from the seed, constructs its entry point,
// and runs units: one sort call (closed loop, one caller) or one burst (open
// loop, every job due at t0). Every unit's output is checked.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "host.h"

namespace wallbench {

inline constexpr const char* kWorkloadNames[] = {
    "inmem-f64", "inmem-kv64-batched", "sortfile-16run", "serve-burst"};

/// One timed call, or one burst.
struct Unit {
  double wall = 0;          // seconds: the call, or the burst's makespan
  double elements = 0;      // elements the unit sorted
  std::uint64_t attempted = 0;  // operations checked (calls or jobs)
  std::uint64_t failed = 0;     // failed, wrong or rejected operations
  std::vector<double> latency;  // per operation, from when it was due
  std::vector<double> run;      // per operation, its own run time
  /// Per-layer values read from Report, ExternalSortStats or JobOutcome.
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Input sizes, and the LLC straddle guard where the workload has one.
  virtual void describe(std::ostream& os, const HostInfo& host) const = 0;

  /// Builds the inputs from the seed. Benchmark fixture: never timed as
  /// set-up, and the program sees only its result.
  virtual void make_inputs() = 0;

  /// Constructs the entry point afresh (sorter, scheduler, or sort config
  /// and temp dir) and primes it with one small checked call, so both
  /// construction work and lazy first-use work show. The unit's wall is the
  /// set-up time; the benchmark's input generation is not part of it.
  virtual Unit set_up() = 0;

  /// First unit after set-up: lets lazy initialisation and caches settle.
  /// Checked and counted like any unit, but not timed.
  virtual Unit warm_up() { return run_unit(); }

  /// Runs one unit and checks its output.
  virtual Unit run_unit() = 0;

  /// Lanes that run a unit in parallel: the ledger's basis is wall × lanes.
  virtual unsigned lanes() const { return 1; }

  /// Minimum timed units per run, so a median exists.
  virtual std::size_t min_units() const { return 3; }

  /// Per-layer values measured once per run (fixture and model timings).
  virtual std::map<std::string, double> run_layer() const { return {}; }

  /// Thread and worker counts the workload uses, for the host block.
  virtual std::map<std::string, unsigned> threads() const = 0;
};

/// Null for an unknown name. `smoke` selects tiny inputs that run in
/// seconds; `work_dir` holds every file the workload writes.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke,
                                        const std::string& work_dir);

}  // namespace wallbench
