#include "workloads.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "checker.h"
#include "common/error.h"
#include "core/het_sorter.h"
#include "cpu/thread_pool.h"
#include "data/generators.h"
#include "io/external_sort.h"
#include "io/run_file.h"
#include "ledger.h"
#include "obs/span.h"
#include "service/scheduler.h"
#include "stats.h"

namespace wallbench {
namespace {

namespace fs = std::filesystem;
using hs::obs::ScopedSpan;

constexpr hs::data::Distribution kUniform = hs::data::Distribution::kUniform;

/// Elements in the call that primes a freshly constructed sorter or
/// external sort: large enough that the sort itself, not allocator or
/// file-metadata latency, sets the set-up time.
constexpr std::uint64_t kPrimeElems = 1 << 20;

const hs::cpu::ElementOps& f64_ops() {
  static const hs::cpu::ElementOps ops = hs::cpu::element_ops<double>();
  return ops;
}

std::span<const std::byte> bytes_of(const std::vector<double>& v) {
  return std::as_bytes(std::span(v));
}

/// Counts a failed check into `u` and says why on stderr.
void record_check(Unit& u, const std::string& why) {
  if (why.empty()) return;
  ++u.failed;
  std::cerr << "check failed: " << why << "\n";
}

/// Reads a sorted raw-doubles file, checks it against the input's
/// fingerprint, and removes it.
std::string check_output_file(const std::string& path, std::uint64_t input_fp) {
  std::vector<double> out;
  {
    const ScopedSpan span("io.read_output", kBenchCategory);
    out = hs::io::read_doubles(path);
  }
  std::string why;
  {
    const ScopedSpan span("data.verify", kBenchCategory);
    why = check_sorted_permutation(bytes_of(out), input_fp, f64_ops());
  }
  fs::remove(path);
  return why.empty() ? why : path + ": " + why;
}

/// Writes a fixture input and returns the seconds write_doubles took. Then
/// flushes the file to the device, so the kernel's write-back of fixture
/// pages does not compete with the timed units.
double write_input(const std::string& path, const std::vector<double>& v) {
  const auto t0 = Clock::now();
  hs::io::write_doubles(path, v);
  const double seconds = seconds_since(t0);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot flush input file " + path);
  }
  ::close(fd);
  return seconds;
}

void print_guard(std::ostream& os, const char* what, std::uint64_t bytes,
                 const HostInfo& host, bool must_exceed) {
  const bool ok = (bytes > host.llc_bytes) == must_exceed;
  os << "llc-guard: " << what << " = " << bytes << " B vs LLC "
     << host.llc_bytes << " B -> " << (ok ? "ok" : "FLAGGED") << " ("
     << (must_exceed ? "must exceed" : "must fit in") << " the LLC)\n";
}

// --- inmem-f64, inmem-kv64-batched -----------------------------------------

class InMemory final : public Workload {
 public:
  InMemory(std::string lane, std::uint64_t n, std::uint64_t batch_size,
           std::uint64_t seed)
      : lane_(std::move(lane)),
        n_(n),
        seed_(seed),
        ops_(*hs::cpu::element_ops_by_name(lane_)) {
    cfg_.batch_size = batch_size;
  }

  void describe(std::ostream& os, const HostInfo& host) const override {
    os << "inputs: " << n_ << " uniform " << lane_ << " ("
       << n_ * ops_.elem_size << " B) through sort_bytes, batch size "
       << (cfg_.batch_size == 0 ? std::string("auto")
                                : std::to_string(cfg_.batch_size))
       << "; closed loop, one caller\n";
    if (cfg_.batch_size == 0) {
      print_guard(os, "radix working set 2*n*elem", 2 * n_ * ops_.elem_size,
                  host, /*must_exceed=*/true);
    } else {
      print_guard(os, "per-batch working set 2*bs*elem",
                  2 * cfg_.batch_size * ops_.elem_size, host,
                  /*must_exceed=*/false);
    }
  }

  void make_inputs() override {
    prime_ = hs::data::generate_lane(lane_, kUniform, prime_n(), seed_ + 1);
    prime_fp_ = fingerprint(prime_, ops_);
    regenerate();
    input_fp_ = fingerprint(data_, ops_);
  }

  Unit set_up() override {
    std::vector<std::byte> prime = prime_;
    Unit u;
    u.attempted = 1;
    const auto t0 = Clock::now();
    sorter_ = std::make_unique<hs::core::HeterogeneousSorter>(
        hs::model::platform1(), cfg_);
    const hs::core::Report report =
        sorter_->sort_bytes(std::span(prime), prime_n(), ops_);
    u.wall = seconds_since(t0);
    record_check(u, check(prime, prime_fp_, report, prime_n()));

    if (simulate_s_ == 0) {
      // sim layer: the virtual pipeline for the workload's n and config.
      std::vector<double> sims;
      for (int i = 0; i < 5; ++i) {
        const auto s0 = Clock::now();
        (void)sorter_->simulate(n_, ops_);
        sims.push_back(seconds_since(s0));
      }
      simulate_s_ = median(sims);
    }
    return u;
  }

  Unit run_unit() override {
    if (sorted_) regenerate();  // fixture: a fresh unsorted input per unit
    Unit u;
    u.elements = static_cast<double>(n_);
    u.attempted = 1;
    hs::core::Report report;
    const auto t0 = Clock::now();
    {
      const ScopedSpan span("core.sort_bytes", kBenchCategory);
      report = sorter_->sort_bytes(std::span(data_), n_, ops_);
    }
    u.wall = seconds_since(t0);
    sorted_ = true;
    u.latency = {u.wall};
    u.run = {u.wall};
    record_check(u, check(data_, input_fp_, report, n_));

    u.layer["core.virtual_s"] = report.end_to_end;
    u.layer["core.wall_over_virtual"] = ratio(u.wall, report.end_to_end);
    u.layer["core.batches"] = static_cast<double>(report.num_batches);
    u.layer["core.pair_merges"] = static_cast<double>(report.pair_merges);
    return u;
  }

  std::map<std::string, double> run_layer() const override {
    return {{"sim.simulate_s", simulate_s_}};
  }

  std::map<std::string, unsigned> threads() const override {
    return {{"pool_threads", hs::cpu::ThreadPool::global().size()},
            {"memcpy_threads", cfg_.memcpy_threads}};
  }

 private:
  std::uint64_t prime_n() const { return std::min(n_, kPrimeElems); }

  void regenerate() {
    data_ = hs::data::generate_lane(lane_, kUniform, n_, seed_);
    sorted_ = false;
  }

  /// Sorted permutation of the input, and exactly one PCIe round trip of
  /// every record in the virtual-time accounting.
  std::string check(std::span<const std::byte> out, std::uint64_t fp,
                    const hs::core::Report& report, std::uint64_t n) const {
    std::string why;
    {
      const ScopedSpan span("data.verify", kBenchCategory);
      why = check_sorted_permutation(out, fp, ops_);
    }
    const std::uint64_t pcie = report.counters.pcie_round_trip_bytes();
    if (why.empty() && pcie != 2 * n * ops_.elem_size) {
      why = "PCIe accounting moved " + std::to_string(pcie) +
            " B, expected 2*n*elem = " + std::to_string(2 * n * ops_.elem_size);
    }
    return why;
  }

  std::string lane_;
  std::uint64_t n_;
  std::uint64_t seed_;
  hs::cpu::ElementOps ops_;
  hs::core::SortConfig cfg_;
  std::unique_ptr<hs::core::HeterogeneousSorter> sorter_;
  std::vector<std::byte> data_, prime_;
  bool sorted_ = false;
  std::uint64_t input_fp_ = 0, prime_fp_ = 0;
  double simulate_s_ = 0;
};

// --- sortfile-16run ---------------------------------------------------------

class SortFile final : public Workload {
 public:
  SortFile(std::uint64_t n, std::uint64_t budget, std::uint64_t seed,
           const std::string& work_dir)
      : n_(n),
        budget_(budget),
        seed_(seed),
        dir_(work_dir + "/sortfile"),
        temp_(dir_ + "/tmp") {}

  void describe(std::ostream& os, const HostInfo&) const override {
    os << "inputs: " << n_ << " uniform f64 (" << n_ * sizeof(double)
       << " B) raw file through external_sort_file, memory budget "
       << budget_ << " elements (" << (n_ + budget_ - 1) / budget_
       << " runs), journal on; closed loop, one caller\n";
  }

  void make_inputs() override {
    fs::create_directories(dir_);
    const std::vector<double> prime =
        hs::data::generate(kUniform, std::min(n_, kPrimeElems), seed_ + 1);
    prime_fp_ = fingerprint(bytes_of(prime), f64_ops());
    write_input(path("prime.bin"), prime);

    const std::vector<double> v = hs::data::generate(kUniform, n_, seed_);
    input_fp_ = fingerprint(bytes_of(v), f64_ops());
    write_input_s_ = write_input(path("input.bin"), v);
  }

  Unit set_up() override {
    Unit u;
    u.attempted = 1;
    const auto t0 = Clock::now();
    hs::io::ExternalSortConfig cfg;
    cfg.memory_budget_elems = budget_;
    cfg.temp_dir = temp_;
    cfg.journal = true;
    cfg_ = cfg;
    fs::create_directories(temp_);
    hs::io::external_sort_file(path("prime.bin"), path("prime.out"), cfg_);
    u.wall = seconds_since(t0);
    record_check(u, check(path("prime.out"), prime_fp_));
    return u;
  }

  Unit run_unit() override {
    Unit u;
    u.elements = static_cast<double>(n_);
    u.attempted = 1;
    hs::io::ExternalSortStats stats;
    const auto t0 = Clock::now();
    {
      const ScopedSpan span("io.external_sort_file", kBenchCategory);
      stats = hs::io::external_sort_file(path("input.bin"), path("output.bin"),
                                         cfg_);
    }
    u.wall = seconds_since(t0);
    u.latency = {u.wall};
    u.run = {u.wall};
    record_check(u, check(path("output.bin"), input_fp_));

    u.layer["core.virtual_s"] = stats.pipeline_virtual_seconds;
    u.layer["core.wall_over_virtual"] =
        ratio(u.wall, stats.pipeline_virtual_seconds);
    u.layer["io.runs"] = static_cast<double>(stats.num_runs);
    u.layer["io.retries"] = static_cast<double>(stats.io_retries);
    return u;
  }

  std::map<std::string, double> run_layer() const override {
    return {{"io.write_input_s", write_input_s_}};
  }

  std::map<std::string, unsigned> threads() const override {
    return {{"pool_threads", hs::cpu::ThreadPool::global().size()},
            {"memcpy_threads", cfg_.pipeline.memcpy_threads}};
  }

 private:
  std::string path(const char* name) const { return dir_ + "/" + name; }

  /// The output file, plus the documented success guarantee: every
  /// intermediate file is gone from the temp dir.
  std::string check(const std::string& output, std::uint64_t fp) const {
    std::string why = check_output_file(output, fp);
    if (why.empty() && !fs::is_empty(temp_)) {
      why = "temp dir " + temp_ + " is not empty after a successful sort";
    }
    return why;
  }

  std::uint64_t n_, budget_, seed_;
  std::string dir_, temp_;
  hs::io::ExternalSortConfig cfg_;
  std::uint64_t input_fp_ = 0, prime_fp_ = 0;
  double write_input_s_ = 0;
};

// --- serve-burst ------------------------------------------------------------

class ServeBurst final : public Workload {
 public:
  ServeBurst(unsigned jobs, std::uint64_t job_n, std::uint64_t seed,
             const std::string& work_dir)
      : jobs_(jobs),
        job_n_(job_n),
        seed_(seed),
        workers_(std::clamp(std::thread::hardware_concurrency(), 1u, 4u)),
        dir_(work_dir + "/serve") {}

  ~ServeBurst() override { retire(); }

  void describe(std::ostream& os, const HostInfo&) const override {
    os << "inputs: " << jobs_ << " raw files of " << job_n_
       << " uniform f64 with distinct seeds, all submitted at t0 by one "
          "thread to a scheduler with "
       << workers_ << " workers, queue capacity " << jobs_
       << ", default grants; open loop\n";
  }

  void make_inputs() override {
    fs::create_directories(dir_);
    // One fixture thread per worker; thread t makes jobs t, t+workers, ...
    input_fp_.assign(jobs_, 0);
    std::vector<double> write_s(workers_, 0.0);
    std::vector<std::exception_ptr> errors(workers_);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < workers_; ++t) {
      threads.emplace_back([this, t, &write_s, &errors] {
        try {
          for (unsigned j = t; j < jobs_; j += workers_) {
            const std::vector<double> v =
                hs::data::generate(kUniform, job_n_, seed_ * 1'000'003 + j);
            input_fp_[j] = fingerprint(bytes_of(v), f64_ops());
            write_s[t] += write_input(input_path(j), v);
          }
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    write_input_s_ = sum(write_s);
  }

  Unit set_up() override {
    Unit u;
    u.attempted = 1;
    const auto t0 = Clock::now();
    open_scheduler();
    const std::string name = "prime";
    sched_->submit(spec(name, 0, job_n_));
    sched_->drain();
    u.wall = seconds_since(t0);
    record_check(u, check(sched_->outcome(name), input_fp_[0]));
    return u;
  }

  Unit warm_up() override { return burst(workers_); }
  Unit run_unit() override { return burst(jobs_); }

  unsigned lanes() const override { return workers_; }
  /// A burst cannot be cut short, and one burst is too little work to
  /// repeat within a few percent on a shared host: always measure two.
  std::size_t min_units() const override { return 2; }

  std::map<std::string, double> run_layer() const override {
    return {{"io.write_input_s", write_input_s_}};
  }

  std::map<std::string, unsigned> threads() const override {
    return {{"pool_threads", hs::cpu::ThreadPool::global().size()},
            {"service_workers", workers_}};
  }

 private:
  /// Job j's input; the priming job at set-up sorts job 0's.
  std::string input_path(unsigned j) const {
    return dir_ + "/input" + std::to_string(j) + ".bin";
  }

  hs::service::JobSpec spec(const std::string& name, unsigned input,
                            std::uint64_t n) const {
    hs::service::JobSpec s;
    s.name = name;
    s.input_path = input_path(input);
    s.n = n;
    s.output_path = service_dir_ + "/" + name + ".out";
    return s;
  }

  std::string check(const hs::service::JobOutcome& out, std::uint64_t fp) const {
    if (out.state != hs::service::JobState::kCompleted) {
      return out.name + ": " + std::string(hs::service::job_state_name(out.state)) +
             " " + out.error_type + ": " + out.error;
    }
    return check_output_file(service_dir_ + "/" + out.name + ".out", fp);
  }

  /// Replaces the current scheduler with a fresh one in a fresh directory.
  void open_scheduler() {
    retire();
    service_dir_ = dir_ + "/svc" + std::to_string(services_++);
    hs::service::SchedulerConfig cfg;
    cfg.service_dir = service_dir_;
    cfg.workers = workers_;
    cfg.queue_capacity = jobs_;
    sched_ = std::make_unique<hs::service::JobScheduler>(cfg);
  }

  /// Shuts down and removes the current scheduler and its directory.
  void retire() {
    if (!sched_) return;
    sched_->shutdown();
    sched_.reset();
    std::error_code ec;  // best effort: also runs from the destructor
    fs::remove_all(service_dir_, ec);
  }

  /// Submits `count` jobs at t0, drains, and checks every output against
  /// its seed's input. Each burst gets a fresh scheduler, so no burst
  /// inherits another's manifest or finished-job records.
  Unit burst(unsigned count) {
    if (!sched_) open_scheduler();
    const std::string prefix = "b" + std::to_string(bursts_++) + "-j";
    Unit u;
    u.attempted = count;
    std::vector<std::string> names;
    std::vector<double> due_offset;
    std::vector<unsigned> input_of;
    double rejected = 0;

    const auto t0 = Clock::now();
    {
      const ScopedSpan burst_span("service.burst", kBenchCategory);
      for (unsigned j = 0; j < count; ++j) {
        const std::string name = prefix + std::to_string(j);
        const double offset = seconds_since(t0);
        try {
          const ScopedSpan span("service.submit", kBenchCategory);
          sched_->submit(spec(name, j, job_n_));
          names.push_back(name);
          due_offset.push_back(offset);
          input_of.push_back(j);
        } catch (const hs::Error& e) {
          rejected += 1;
          record_check(u, name + " rejected: " + e.what());
        }
      }
      sched_->drain();
    }
    u.wall = seconds_since(t0);

    std::vector<double> wait, extsort, overhead, over_estimate;
    double degraded = 0, attempts = 0, virtual_s = 0, runs = 0, retries = 0;
    for (std::size_t k = 0; k < names.size(); ++k) {
      const hs::service::JobOutcome out = sched_->outcome(names[k]);
      // Latency runs from t0, when every job was due.
      u.latency.push_back(due_offset[k] + out.queue_wait_seconds +
                          out.run_seconds);
      u.run.push_back(out.run_seconds);
      wait.push_back(out.queue_wait_seconds);
      extsort.push_back(out.stats.wall_seconds);
      overhead.push_back(out.run_seconds - out.stats.wall_seconds);
      over_estimate.push_back(ratio(out.run_seconds, out.estimate_seconds));
      degraded += out.degraded ? 1 : 0;
      attempts += out.attempts;
      virtual_s += out.virtual_seconds;
      runs += static_cast<double>(out.stats.num_runs);
      retries += static_cast<double>(out.stats.io_retries);

      const std::string why = check(out, input_fp_[input_of[k]]);
      record_check(u, why);
      if (why.empty()) u.elements += static_cast<double>(job_n_);
    }

    const double admitted = static_cast<double>(names.size());
    u.layer["core.virtual_s"] = virtual_s;
    u.layer["core.wall_over_virtual"] = ratio(sum(u.run), virtual_s);
    u.layer["io.runs"] = runs;
    u.layer["io.retries"] = retries;
    u.layer["service.queue_wait_p50_s"] = quantile(wait, 0.5);
    u.layer["service.queue_wait_p90_s"] = quantile(wait, 0.9);
    u.layer["service.run_p90_s"] = quantile(u.run, 0.9);
    u.layer["service.extsort_p50_s"] = quantile(extsort, 0.5);
    u.layer["service.job_overhead_p50_s"] = quantile(overhead, 0.5);
    u.layer["service.degraded_frac"] = ratio(degraded, admitted);
    u.layer["service.attempts_per_job"] = ratio(attempts, admitted);
    u.layer["service.rejected"] = rejected;
    u.layer["service.peak_reserved_mib"] =
        static_cast<double>(sched_->governor().peak_reserved_bytes()) /
        (1024.0 * 1024.0);
    u.layer["service.run_over_estimate_p50"] = quantile(over_estimate, 0.5);

    retire();
    return u;
  }

  unsigned jobs_;
  std::uint64_t job_n_, seed_;
  unsigned workers_;
  std::string dir_;
  std::string service_dir_;
  std::vector<std::uint64_t> input_fp_;
  double write_input_s_ = 0;
  unsigned services_ = 0;
  unsigned bursts_ = 0;
  std::unique_ptr<hs::service::JobScheduler> sched_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke,
                                        const std::string& work_dir) {
  if (name == "inmem-f64") {
    return std::make_unique<InMemory>("f64", smoke ? 200'000 : 20'000'000, 0,
                                      seed);
  }
  if (name == "inmem-kv64-batched") {
    return std::make_unique<InMemory>("kv64", smoke ? 100'000 : 10'000'000,
                                      smoke ? 10'000 : 1'000'000, seed);
  }
  if (name == "sortfile-16run") {
    return std::make_unique<SortFile>(smoke ? 100'000 : 10'000'000,
                                      smoke ? 6'250 : 625'000, seed, work_dir);
  }
  if (name == "serve-burst") {
    return std::make_unique<ServeBurst>(smoke ? 16 : 128,
                                        smoke ? 20'000 : 1'000'000, seed,
                                        work_dir);
  }
  return nullptr;
}

}  // namespace wallbench
