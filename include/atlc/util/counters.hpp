#pragma once

// One declaration per counter set. A stats struct (rma::CommStats,
// clampi::CacheStats, serve::HotCacheStats) lists its counters once, in
// `static constexpr auto counters()`, as a tuple of {name, member pointer}
// entries. Field-wise addition (`operator+=`), the JSON record
// (util::to_json in recorder.hpp) and the per-rank-vs-total audit in the
// tests are all derived from that list, and `lists_every_member` turns a
// member left out of it into a build error.

#include <cstddef>
#include <string_view>
#include <tuple>

namespace atlc::util {

/// One named counter of the stats struct `S`.
template <typename S, typename T>
struct Counter {
  std::string_view name;
  T S::*member;
};

/// Call `fn(name, member)` for every counter of `S`, in list order.
template <typename S, typename Fn>
constexpr void for_each_counter(Fn&& fn) {
  std::apply([&](const auto&... c) { (fn(c.name, c.member), ...); },
             S::counters());
}

/// `a += b`, counter by counter.
template <typename S>
constexpr S& add_counters(S& a, const S& b) {
  for_each_counter<S>(
      [&](std::string_view, auto member) { a.*member += b.*member; });
  return a;
}

/// True when the listed counters cover every byte of `S`: a member missing
/// from the list leaves bytes over. (Counters are 8-byte scalars, so no
/// padding can hide one.)
template <typename S>
constexpr bool lists_every_member() {
  std::size_t bytes = 0;
  for_each_counter<S>([&]<typename T>(std::string_view, T S::*) {
    bytes += sizeof(T);
  });
  return bytes == sizeof(S);
}

}  // namespace atlc::util
