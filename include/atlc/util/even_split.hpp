#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

namespace atlc::util {

/// [begin, end) of part `i` when [0, n) is cut into `parts` contiguous
/// ranges whose sizes differ by at most one, the longer ones first: part i
/// begins at i*(n/parts) + min(i, n%parts). This is the paper's Block1D
/// rule; it also cuts both Grid2D axes and the OpenMP thread chunks.
[[nodiscard]] constexpr std::pair<std::size_t, std::size_t> even_split(
    std::size_t n, std::size_t parts, std::size_t i) {
  const auto begin = [n, parts](std::size_t k) {
    return k * (n / parts) + std::min(k, n % parts);
  };
  return {begin(i), begin(i + 1)};
}

}  // namespace atlc::util
