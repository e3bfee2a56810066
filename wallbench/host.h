// Host and build block: identifies the machine and build a run measured, so
// two runs are compared only when these match.
#pragma once

#include <cstdint>
#include <string>

namespace wallbench {

struct HostInfo {
  unsigned cores = 0;
  std::string cpu_model;
  std::uint64_t llc_bytes = 0;  // last-level cache, from sysfs
  bool avx512 = false;          // avx512f+cd+vpopcntdq: the radix scatter's set
  std::string compiler;
  std::string flags;
  std::string build_type;
  std::string commit;
};

HostInfo host_info(const std::string& commit);

}  // namespace wallbench
