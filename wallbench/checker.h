// Output checker: every unit's output is checked before it counts.
//
// A sorted output must be (1) in key order under the lane's total order and
// (2) the same multiset of whole records as the input, key and payload bytes
// alike. The second check compares order-independent fingerprints, so it
// costs one streaming pass and no re-sort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "cpu/element_ops.h"

namespace wallbench {

/// Fingerprint of the input, taken before the sort; the output must match.
std::uint64_t fingerprint(std::span<const std::byte> records,
                          const hs::cpu::ElementOps& ops);

/// Empty string when `output` is a key-ordered permutation of the input
/// whose fingerprint is `input_fingerprint`; otherwise what is wrong.
std::string check_sorted_permutation(std::span<const std::byte> output,
                                     std::uint64_t input_fingerprint,
                                     const hs::cpu::ElementOps& ops);

/// Feeds the checker two known-bad outputs — an f64 run with one adjacent
/// pair swapped and a kv64 run with one payload byte flipped — and their
/// good originals. Returns the number of bad outputs caught; a working
/// checker returns 2 (and accepts both originals, else it returns -1).
int checker_self_test();

}  // namespace wallbench
