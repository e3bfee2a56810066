#include "checker.h"

#include <utility>
#include <vector>

#include "common/key_value.h"
#include "data/verify.h"

namespace wallbench {

std::uint64_t fingerprint(std::span<const std::byte> records,
                          const hs::cpu::ElementOps& ops) {
  return hs::data::multiset_fingerprint_bytes(records, ops.elem_size);
}

std::string check_sorted_permutation(std::span<const std::byte> output,
                                     std::uint64_t input_fingerprint,
                                     const hs::cpu::ElementOps& ops) {
  if (output.size() % ops.elem_size != 0) return "output size is not whole records";
  if (!hs::data::is_sorted_by_key(output, ops.elem_size, ops.extract_key)) {
    return "output is not in key order";
  }
  if (fingerprint(output, ops) != input_fingerprint) {
    return "output records differ from the input (fingerprint mismatch)";
  }
  return {};
}

int checker_self_test() {
  // f64: ascending values, then one adjacent pair swapped. Same multiset,
  // wrong order — only the sortedness check can catch it.
  const hs::cpu::ElementOps f64 = hs::cpu::element_ops<double>();
  std::vector<double> values(64);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i) * 0.5 - 7.0;
  }
  const std::uint64_t f64_fp = fingerprint(std::as_bytes(std::span(values)), f64);
  const bool f64_good_ok =
      check_sorted_permutation(std::as_bytes(std::span(values)), f64_fp, f64)
          .empty();
  std::swap(values[20], values[21]);
  const bool swap_caught =
      !check_sorted_permutation(std::as_bytes(std::span(values)), f64_fp, f64)
           .empty();

  // kv64: key-ordered records, then one payload byte flipped. Still in key
  // order — only the whole-record fingerprint can catch it.
  const hs::cpu::ElementOps kv = hs::cpu::element_ops<hs::KeyValue64>();
  std::vector<hs::KeyValue64> recs(64);
  for (std::size_t i = 0; i < recs.size(); ++i) recs[i] = {i * 3, i ^ 0x5a5au};
  const std::uint64_t kv_fp = fingerprint(std::as_bytes(std::span(recs)), kv);
  const bool kv_good_ok =
      check_sorted_permutation(std::as_bytes(std::span(recs)), kv_fp, kv).empty();
  std::byte* payload = reinterpret_cast<std::byte*>(&recs[33].value);
  payload[2] ^= std::byte{0x10};
  const bool flip_caught =
      !check_sorted_permutation(std::as_bytes(std::span(recs)), kv_fp, kv).empty();

  if (!f64_good_ok || !kv_good_ok) return -1;
  return static_cast<int>(swap_caught) + static_cast<int>(flip_caught);
}

}  // namespace wallbench
