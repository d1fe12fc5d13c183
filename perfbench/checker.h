// Output checker for the benchmark program (chime_perf).
//
// Every value chime_perf writes carries a 32-bit tag derived from its key in the high half
// (the low half is a per-write sequence number), so a returned value can be checked against
// the key it came back with. Keys are never deleted, so a key that was bulk-loaded is known to
// exist for the whole run.
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/types.h"

namespace perfbench {

inline uint32_t TagOf(common::Key key) {
  return static_cast<uint32_t>(common::Mix64Alt(key) >> 32);
}

// A tagged value for `key`; `seq` distinguishes successive writes (never 0, so no value is 0).
inline common::Value TaggedValue(common::Key key, uint32_t seq) {
  return (static_cast<uint64_t>(TagOf(key)) << 32) | (seq == 0 ? 1 : seq);
}

inline bool TagMatches(common::Key key, common::Value value) {
  return static_cast<uint32_t>(value >> 32) == TagOf(key);
}

// Attempted/failed tally of one worker (or of the whole run after Merge).
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Record(bool ok) {
    attempted++;
    failed += ok ? 0 : 1;
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  double ErrorRate() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

// Search of a key known to exist: it must be found, with its own tag.
inline bool SearchOk(common::Key key, bool found, common::Value value) {
  return found && TagMatches(key, value);
}

// Update of a key known to exist: it must be found.
inline bool UpdateOk(bool found) { return found; }

// Scan starting at a key known to exist: at least that key comes back, first; keys strictly
// ascend and are >= start; every value carries its key's tag; no more than `count` items.
inline bool ScanOk(common::Key start, size_t count, size_t returned,
                   const std::vector<std::pair<common::Key, common::Value>>& out) {
  if (returned != out.size() || returned == 0 || returned > count || out[0].first != start) {
    return false;
  }
  for (size_t i = 0; i < out.size(); ++i) {
    if (out[i].first < start || (i > 0 && out[i].first <= out[i - 1].first) ||
        !TagMatches(out[i].first, out[i].second)) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
