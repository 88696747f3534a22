#include "check/invariants.hpp"

#include <sstream>
#include <vector>

namespace metaprep::check {

void verify_parent_forest(std::span<const std::uint32_t> parents, const char* what) {
  const std::uint32_t n = static_cast<std::uint32_t>(parents.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    if (parents[i] < n) continue;
    Violation v;
    v.kind = ViolationKind::kDsuBounds;
    v.detail_a = i;
    v.detail_b = parents[i];
    std::ostringstream msg;
    msg << what << ": parent[" << i << "] = " << parents[i] << " out of [0, " << n << ")";
    v.message = msg.str();
    throw_violation(std::move(v));
  }
  // Stamp-based cycle check: walk each node's parent chain once; chains that
  // hit an already-stamped node stop (either a known-good path or a known
  // root).  A chain that revisits its own stamp is a cycle.  O(n) total.
  std::vector<std::uint32_t> stamp(parents.size(), 0);
  std::uint32_t epoch = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (stamp[i] != 0) continue;
    ++epoch;
    std::uint32_t x = i;
    while (stamp[x] == 0 && parents[x] != x) {
      stamp[x] = epoch;
      x = parents[x];
    }
    if (stamp[x] == epoch && parents[x] != x) {
      Violation v;
      v.kind = ViolationKind::kDsuCycle;
      v.detail_a = x;
      v.detail_b = parents[x];
      std::ostringstream msg;
      msg << what << ": parent pointers cycle through node " << x << " (parent "
          << parents[x] << "): not a forest";
      v.message = msg.str();
      throw_violation(std::move(v));
    }
    // Re-stamp the walked chain as settled (epoch stays; nothing to do —
    // any later chain entering it terminates at the first stamped node).
  }
}

void verify_size_conservation(std::uint64_t observed, std::uint64_t expected,
                              const char* what) {
  if (observed == expected) return;
  Violation v;
  v.kind = ViolationKind::kSizeConservation;
  v.detail_a = observed;
  v.detail_b = expected;
  std::ostringstream msg;
  msg << what << ": observed total " << observed << " != expected " << expected;
  v.message = msg.str();
  throw_violation(std::move(v));
}

}  // namespace metaprep::check
