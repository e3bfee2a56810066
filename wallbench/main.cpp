// wallbench — wall-clock benchmark of hetsort's three public entry points.
//
//   wallbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--commit SHA] [--work-dir DIR]
//
// --trace 0 times units with no span recorder installed and reports the
// end-to-end metrics. --trace 1 alternates untraced and traced units: the
// traced ones give the per-layer ledger and metrics, and the gap between
// the two medians is the tracing overhead. Every unit's output is checked.
// The last line of stdout is one JSON object with the keys "correct",
// "attempted", "failed" and "metrics". See README.md in this directory.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "checker.h"
#include "host.h"
#include "ledger.h"
#include "obs/counters.h"
#include "obs/span.h"
#include "stats.h"
#include "workloads.h"

namespace wallbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"melem_s", "Melem/s"},         {"jobs_per_s", "jobs/s"},
    {"job_latency_p50_s", "s"},     {"job_latency_p90_s", "s"},
    {"job_run_p50_s", "s"},         {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"cpu.radix_s", "s"},
    {"cpu.radix_melem_s", "Melem/s"},
    {"cpu.radix_passes", "count"},
    {"cpu.radix_passes_skipped", "count"},
    {"cpu.merge_s", "s"},
    {"cpu.merge_elems", "count"},
    {"cpu.merge_deferred_elems", "count"},
    {"cpu.staged_bytes", "B"},
    {"cpu.pool_tasks", "count"},
    {"core.sort_s", "s"},
    {"core.virtual_s", "s"},
    {"core.wall_over_virtual", "ratio"},
    {"core.unattributed_s", "s"},
    {"core.batches", "count"},
    {"core.pair_merges", "count"},
    {"core.governor_spills", "1/job"},
    {"core.governor_ps_shrinks", "1/job"},
    {"vgpu.pcie_bytes", "B"},
    {"vgpu.pinned_alloc_bytes", "B"},
    {"sim.simulate_s", "s"},
    {"io.sort_s", "s"},
    {"io.run_formation_s", "s"},
    {"io.merge_s", "s"},
    {"io.merge_melem_s", "Melem/s"},
    {"io.runs", "count"},
    {"io.retries", "count"},
    {"io.write_input_s", "s"},
    {"io.read_output_s", "s"},
    {"data.verify_s", "s"},
    {"service.submit_s", "s"},
    {"service.queue_wait_p50_s", "s"},
    {"service.queue_wait_p90_s", "s"},
    {"service.run_p90_s", "s"},
    {"service.extsort_p50_s", "s"},
    {"service.job_overhead_p50_s", "s"},
    {"service.degraded_frac", "fraction"},
    {"service.attempts_per_job", "1/job"},
    {"service.rejected", "count"},
    {"service.peak_reserved_mib", "MiB"},
    {"service.run_over_estimate_p50", "ratio"},
    {"error_rate", "fraction"},
    {"trace.overhead_s", "s"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string commit = "unknown";
  std::string work_dir = ".bench_work";
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "wallbench: " << error
            << "\nusage: wallbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--commit SHA] [--work-dir DIR]\n"
               "workloads:";
  for (const char* w : kWorkloadNames) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v, &used);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v, &used);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--commit") {
        a.commit = v;
      } else if (flag == "--work-dir") {
        a.work_dir = v;
      } else {
        usage("unknown flag " + flag);
      }
      if (used != 0 && used != v.size()) usage("bad number for " + flag);
    } catch (const std::logic_error&) {
      usage("bad number for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

/// Per-layer values of one traced unit: spans, counters, and what the
/// workload read from the entry point's own report.
std::map<std::string, double> layer_values(const Unit& u, const Ledger& led,
                                           const hs::obs::CounterSnapshot& d) {
  using hs::obs::Counter;
  const auto count = [&](Counter c) { return static_cast<double>(d.value(c)); };
  const double melem = u.elements / 1e6;
  const double jobs = static_cast<double>(u.attempted);
  std::map<std::string, double> m = u.layer;
  m["cpu.radix_s"] = led.row("cpu.radix");
  m["cpu.radix_melem_s"] = ratio(melem, led.row("cpu.radix"));
  m["cpu.radix_passes"] = count(Counter::kRadixPassesExecuted);
  m["cpu.radix_passes_skipped"] = count(Counter::kRadixPassesSkipped);
  m["cpu.merge_s"] = led.row("cpu.merge");
  m["cpu.merge_elems"] = count(Counter::kMergeElements);
  m["cpu.merge_deferred_elems"] = count(Counter::kMergeDeferredElements);
  m["cpu.staged_bytes"] =
      count(Counter::kBytesStageIn) + count(Counter::kBytesStageOut);
  m["cpu.pool_tasks"] = count(Counter::kPoolTasks);
  m["core.sort_s"] = led.bench_total("core.sort_bytes");
  m["core.unattributed_s"] = led.unattributed;
  m["core.governor_spills"] = ratio(count(Counter::kGovernorSpills), jobs);
  m["core.governor_ps_shrinks"] = ratio(count(Counter::kGovernorPsShrinks), jobs);
  m["vgpu.pcie_bytes"] = static_cast<double>(d.pcie_round_trip_bytes());
  m["vgpu.pinned_alloc_bytes"] = count(Counter::kBytesPinnedAlloc);
  m["io.sort_s"] = led.bench_total("io.external_sort_file");
  m["io.run_formation_s"] = led.row("io.run_formation");
  m["io.merge_s"] = led.row("io.merge");
  m["io.merge_melem_s"] = ratio(melem, led.row("io.merge"));
  m["io.read_output_s"] = led.bench_total("io.read_output");
  m["data.verify_s"] = led.bench_total("data.verify");
  m["service.submit_s"] = led.bench_total("service.submit");
  return m;
}

/// Median of each key over `samples`.
std::map<std::string, double> medians(
    const std::vector<std::map<std::string, double>>& samples) {
  std::map<std::string, std::vector<double>> by_key;
  for (const auto& s : samples) {
    for (const auto& [k, v] : s) by_key[k].push_back(v);
  }
  std::map<std::string, double> out;
  for (const auto& [k, v] : by_key) out[k] = median(v);
  return out;
}

struct Value {
  double value = 0;
  std::size_t samples = 0;
};
using Values = std::map<std::string, Value>;

void print_table(const char* title, std::span<const MetricDef> defs,
                 const Values& values) {
  std::printf("%s\n", title);
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    const Value v = it == values.end() ? Value{} : it->second;
    std::printf("  %-32s %16.6f %-9s n=%zu\n", d.name, v.value, d.unit,
                v.samples);
  }
}

/// Everything one run measured.
struct Measured {
  std::vector<double> setups;
  std::vector<Unit> untraced, traced;
  std::vector<Ledger> ledgers;  // one per traced unit
  std::vector<std::map<std::string, double>> traced_layers;
  std::uint64_t attempted = 0, failed = 0;

  void tally(const Unit& u) {
    attempted += u.attempted;
    failed += u.failed;
  }
  double error_rate() const {
    return ratio(static_cast<double>(failed), static_cast<double>(attempted));
  }
};

std::vector<double> walls(const std::vector<Unit>& units) {
  std::vector<double> w;
  for (const Unit& u : units) w.push_back(u.wall);
  return w;
}

/// Set-up several times, one warm-up unit, then timed units until the next
/// one would overrun `seconds`. With `trace`, every untraced unit is paired
/// with a traced one.
Measured measure(Workload& w, double seconds, bool trace) {
  Measured m;
  for (int k = 0; k < 7; ++k) {  // the last construction serves the units
    const Unit s = w.set_up();
    m.tally(s);
    m.setups.push_back(s.wall);
  }
  std::printf("set-up: median %.6f s over %zu (min %.6f, max %.6f)\n",
              median(m.setups), m.setups.size(),
              *std::min_element(m.setups.begin(), m.setups.end()),
              *std::max_element(m.setups.begin(), m.setups.end()));
  const Unit warm = w.warm_up();
  m.tally(warm);
  std::printf("warm-up unit: %.6f s\n", warm.wall);

  const auto start = Clock::now();
  const std::size_t min_iters = trace ? 1 : w.min_units();
  for (std::size_t iters = 0;; ++iters) {
    if (iters >= min_iters) {
      const double elapsed = seconds_since(start);
      if (elapsed + elapsed / static_cast<double>(iters) > seconds) break;
    }
    m.untraced.push_back(w.run_unit());
    m.tally(m.untraced.back());
    std::printf("unit %zu: %.6f s\n", iters, m.untraced.back().wall);
    if (!trace) continue;

    hs::obs::SpanRecorder rec;
    hs::obs::install(&rec);
    const hs::obs::CounterSnapshot c0 = hs::obs::counters().snapshot();
    Unit u = w.run_unit();
    const hs::obs::CounterSnapshot delta = hs::obs::counters().snapshot() - c0;
    hs::obs::install(nullptr);
    m.tally(u);
    std::printf("unit %zu traced: %.6f s\n", iters, u.wall);
    m.ledgers.push_back(build_ledger(rec.snapshot(), u.wall * w.lanes()));
    m.traced_layers.push_back(layer_values(u, m.ledgers.back(), delta));
    m.traced.push_back(std::move(u));
  }
  return m;
}

Values end_to_end(const Measured& m) {
  std::vector<double> rates, latency, run_times;
  double ops = 0;
  for (const Unit& u : m.untraced) {
    rates.push_back(ratio(u.elements / 1e6, u.wall));
    latency.insert(latency.end(), u.latency.begin(), u.latency.end());
    run_times.insert(run_times.end(), u.run.begin(), u.run.end());
    ops += static_cast<double>(u.attempted - u.failed);
  }
  Values v;
  v["melem_s"] = {median(rates), rates.size()};
  v["jobs_per_s"] = {ratio(ops, sum(walls(m.untraced))),
                     static_cast<std::size_t>(ops)};
  v["job_latency_p50_s"] = {quantile(latency, 0.5), latency.size()};
  v["job_latency_p90_s"] = {quantile(latency, 0.9), latency.size()};
  v["job_run_p50_s"] = {quantile(run_times, 0.5), run_times.size()};
  v["setup_s"] = {median(m.setups), m.setups.size()};
  v["peak_rss_mib"] = {peak_rss_mib(), 1};
  return v;
}

double tracing_overhead(const Measured& m) {
  return median(walls(m.traced)) - median(walls(m.untraced));
}

Values per_layer(const Measured& m, const Workload& w) {
  Values v;
  for (const auto& [k, x] : medians(m.traced_layers)) {
    v[k] = {x, m.traced.size()};
  }
  for (const auto& [k, x] : w.run_layer()) v[k] = {x, 1};
  v["trace.overhead_s"] = {tracing_overhead(m), m.traced.size()};
  v["error_rate"] = {m.error_rate(), static_cast<std::size_t>(m.attempted)};
  return v;
}

/// The ledger: median self time per row over the traced units.
void print_ledger(const Measured& m, unsigned lanes) {
  std::vector<std::map<std::string, double>> self;
  std::vector<double> unattributed, basis, helper_busy;
  for (const Ledger& led : m.ledgers) {
    self.push_back(led.self);
    unattributed.push_back(led.unattributed);
    basis.push_back(led.basis);
    helper_busy.push_back(led.helper_busy);
  }
  const double base = median(basis);
  std::printf("per-layer ledger (median over %zu traced units; basis = unit "
              "wall x %u lane%s):\n",
              m.traced.size(), lanes, lanes == 1 ? "" : "s");
  const auto row = [base](const char* name, double seconds) {
    std::printf("  %-24s %12.6f s %6.1f%%\n", name, seconds,
                100.0 * ratio(seconds, base));
  };
  for (const auto& [name, seconds] : medians(self)) row(name.c_str(), seconds);
  row("unattributed", median(unattributed));
  std::printf("  %-24s %12.6f s\n", "basis", base);
  std::printf("  helper threads busy off the blocking path: %.6f s\n",
              median(helper_busy));
  std::printf("  tracing overhead: %+.6f s per unit (traced median %.6f s, "
              "untraced median %.6f s)\n",
              tracing_overhead(m), median(walls(m.traced)),
              median(walls(m.untraced)));
}

void print_host(const HostInfo& host, std::uint64_t seed, const Workload& w) {
  std::printf("host: {\"cores\": %u, \"cpu_model\": %s, \"llc_bytes\": %llu, "
              "\"avx512\": %s, \"compiler\": %s, \"flags\": %s, "
              "\"build_type\": %s, \"commit\": %s, \"seed\": %llu",
              host.cores, json_string(host.cpu_model).c_str(),
              static_cast<unsigned long long>(host.llc_bytes),
              host.avx512 ? "true" : "false", json_string(host.compiler).c_str(),
              json_string(host.flags).c_str(),
              json_string(host.build_type).c_str(),
              json_string(host.commit).c_str(),
              static_cast<unsigned long long>(seed));
  for (const auto& [k, v] : w.threads()) std::printf(", \"%s\": %u", k.c_str(), v);
  std::printf("}\n");
}

/// The last line of stdout: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(bool correct, const Measured& m,
                        std::span<const MetricDef> defs, const Values& values) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(m.attempted) +
                     ", \"failed\": " + std::to_string(m.failed) +
                     ", \"metrics\": {";
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (&d != defs.data()) line += ", ";
    line += json_string(d.name) + ": {\"value\": " +
            num(it == values.end() ? 0.0 : it->second.value) +
            ", \"unit\": " + json_string(d.unit) + "}";
  }
  return line + "}}";
}

int run(const Args& args) {
  std::unique_ptr<Workload> w =
      make_workload(args.workload, args.seed, args.smoke, args.work_dir);
  if (!w) usage("unknown workload " + args.workload);
  std::filesystem::create_directories(args.work_dir);
  const HostInfo host = host_info(args.commit);

  std::printf("== wallbench %s seed=%llu seconds=%g trace=%d%s ==\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  const int caught = checker_self_test();
  std::printf("checker self-test: caught %d of 2 planted bad outputs%s\n",
              caught, caught == 2 ? "" : " -> CHECKER BROKEN");
  std::ostringstream desc;
  w->describe(desc, host);
  std::printf("%s", desc.str().c_str());
  std::fflush(stdout);

  const auto phase = Clock::now();
  w->make_inputs();
  std::printf("inputs made in %.3f s\n", seconds_since(phase));

  const Measured m = measure(*w, args.seconds, args.trace);
  const Values e2e = end_to_end(m);
  const bool correct = m.failed == 0 && caught == 2;

  print_host(host, args.seed, *w);
  std::printf("units: %zu untraced, %zu traced (+1 warm-up); operations "
              "checked %llu, failed %llu, error_rate %.6f\n",
              m.untraced.size(), m.traced.size(),
              static_cast<unsigned long long>(m.attempted),
              static_cast<unsigned long long>(m.failed), m.error_rate());
  print_table("end-to-end (untraced units):", kEndToEnd, e2e);
  if (!args.trace) {
    std::printf("%s\n", result_line(correct, m, kEndToEnd, e2e).c_str());
    return 0;
  }
  const Values layers = per_layer(m, *w);
  print_ledger(m, w->lanes());
  print_table("per-layer metrics (traced units):", kPerLayer, layers);
  std::printf("%s\n", result_line(correct, m, kPerLayer, layers).c_str());
  return 0;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) {
  try {
    const wallbench::Args args = wallbench::parse(argc, argv);
    return wallbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "wallbench: " << e.what() << "\n";
    return 1;
  }
}
