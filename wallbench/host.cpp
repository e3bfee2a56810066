#include "host.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#ifndef WALLBENCH_COMPILER
#define WALLBENCH_COMPILER "unknown"
#endif
#ifndef WALLBENCH_FLAGS
#define WALLBENCH_FLAGS "unknown"
#endif
#ifndef WALLBENCH_BUILD_TYPE
#define WALLBENCH_BUILD_TYPE "unknown"
#endif

namespace wallbench {
namespace {

std::string read_line(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::string line;
  std::getline(in, line);
  return line;
}

/// "107520K" / "32M" / "65536" -> bytes.
std::uint64_t parse_size(const std::string& s) {
  std::uint64_t v = 0;
  std::size_t i = 0;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    v = v * 10 + static_cast<std::uint64_t>(s[i] - '0');
  }
  if (i < s.size() && (s[i] == 'K' || s[i] == 'k')) v <<= 10;
  if (i < s.size() && (s[i] == 'M' || s[i] == 'm')) v <<= 20;
  return v;
}

/// Size of the highest-level data or unified cache cpu0 sees.
std::uint64_t llc_from_sysfs() {
  const std::filesystem::path dir = "/sys/devices/system/cpu/cpu0/cache";
  std::error_code ec;
  int best_level = 0;
  std::uint64_t best = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().filename().string().rfind("index", 0) != 0) continue;
    if (read_line(e.path() / "type") == "Instruction") continue;
    const int level = std::atoi(read_line(e.path() / "level").c_str());
    if (level > best_level) {
      best_level = level;
      best = parse_size(read_line(e.path() / "size"));
    }
  }
  return best;
}

}  // namespace

HostInfo host_info(const std::string& commit) {
  HostInfo h;
  h.cores = std::thread::hardware_concurrency();
  h.llc_bytes = llc_from_sysfs();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line, flags;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string value = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (h.cpu_model.empty() && line.rfind("model name", 0) == 0) h.cpu_model = value;
    if (flags.empty() && line.rfind("flags", 0) == 0) flags = " " + value + " ";
  }
  h.avx512 = flags.find(" avx512f ") != std::string::npos &&
             flags.find(" avx512cd ") != std::string::npos &&
             flags.find(" avx512_vpopcntdq ") != std::string::npos;
  h.compiler = WALLBENCH_COMPILER;
  h.flags = WALLBENCH_FLAGS;
  h.build_type = WALLBENCH_BUILD_TYPE;
  h.commit = commit;
  return h;
}

}  // namespace wallbench
