// The benchmark's workloads and their seeded, pre-generated operation streams.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/hash.h"
#include "src/common/rand.h"
#include "src/common/types.h"
#include "src/common/zipf.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  uint64_t keys = 0;  // bulk-loaded before the run
  double search = 0;  // op fractions; the remainder after search/update/insert is scans
  double update = 0;
  double insert = 0;
  double zipf_theta = 0;  // 0 = uniform key choice; otherwise scrambled Zipf
  int max_scan_len = 100;
  int value_bytes = 8;  // inline value width in the leaf layout
  bool indirect = false;
  int indirect_block_bytes = 64;
  size_t cache_bytes = 0;    // CN index-cache budget
  size_t hotspot_bytes = 0;  // CN hotspot-buffer budget
};

inline std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "read-hot") {
    w.keys = 1000000;
    w.search = 1.0;
    w.zipf_theta = 0.99;
    w.value_bytes = 64;
  } else if (name == "mixed-cold") {
    w.keys = 1000000;
    w.search = 0.45;
    w.update = 0.45;
    w.zipf_theta = 0;
    w.value_bytes = 8;
  } else if (name == "write-churn") {
    w.keys = 500000;
    w.search = 0.10;
    w.update = 0.70;
    w.insert = 0.20;
    w.zipf_theta = 0.99;
    w.indirect = true;
  } else {
    return std::nullopt;
  }
  // The paper's per-CN budgets (100 MB index cache, 30 MB hotspot buffer for 60 M items),
  // scaled to the loaded key count the way the figure benches scale them.
  bench::Env paper_ratio;
  paper_ratio.items = w.keys;
  w.cache_bytes = paper_ratio.ScaledBytes(100);
  w.hotspot_bytes = paper_ratio.ScaledBytes(30);
  if (name == "mixed-cold") {
    w.cache_bytes = 64 << 10;  // far below the internal-node footprint: misses and evictions
  }
  return w;
}

enum class OpKind : uint8_t { kSearch = 0, kUpdate, kInsert, kScan };
inline constexpr int kNumOpKinds = 4;
inline const char* OpKindName(OpKind k) {
  static const char* const kNames[] = {"search", "update", "insert", "scan"};
  return kNames[static_cast<int>(k)];
}

struct Op {
  common::Key key = 0;  // unused by inserts, which take a fresh key when they run (InsertId)
  OpKind kind = OpKind::kSearch;
  uint8_t scan_len = 0;
};

// Dense ids -> unique non-zero keys. Mix64 is a bijection, so distinct ids give distinct keys;
// the seed-derived salt makes the key set itself depend on the seed.
class KeyMap {
 public:
  explicit KeyMap(uint64_t seed) : salt_(common::Mix64(seed ^ 0x6b65796d6170ULL)) {}

  common::Key KeyAt(uint64_t id) const {
    const common::Key k = common::Mix64(id + salt_);
    // Exactly one id maps to 0 (the empty-slot sentinel); give it the key that id 2^63 + 1
    // would have had, an id no run reaches.
    return k != 0 ? k : common::Mix64((uint64_t{1} << 63) + 1 + salt_);
  }

 private:
  uint64_t salt_;
};

// The bulk-load image: every id below spec.keys, sorted by key, with values from `value_of`.
template <typename ValueFn>
std::vector<std::pair<common::Key, common::Value>> LoadItems(const WorkloadSpec& spec,
                                                             const KeyMap& keys,
                                                             ValueFn value_of) {
  std::vector<std::pair<common::Key, common::Value>> items;
  items.reserve(spec.keys);
  for (uint64_t id = 0; id < spec.keys; ++id) {
    const common::Key k = keys.KeyAt(id);
    items.emplace_back(k, value_of(k));
  }
  std::sort(items.begin(), items.end());
  return items;
}

// The id of the `n`-th insert worker `worker` (of `workers`) makes: ids above the loaded ones,
// interleaved across workers, so no two inserts of a run collide and none repeats a key.
inline uint64_t InsertId(const WorkloadSpec& spec, int worker, int workers, uint64_t n) {
  return spec.keys + static_cast<uint64_t>(worker) + n * static_cast<uint64_t>(workers);
}

// Worker `worker`'s stream of `count` ops. Searches, updates and scans pick bulk-loaded keys
// only (known to exist). Inserts carry no key: the worker gives each the next InsertId when it
// runs, so a stream that wraps still inserts only new keys. Deterministic in (seed, worker).
inline std::vector<Op> GenerateOps(const WorkloadSpec& spec, const KeyMap& keys, uint64_t seed,
                                   int worker, size_t count) {
  common::Rng rng(common::Mix64(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(worker)));
  std::optional<common::ZipfianGenerator> zipf;
  if (spec.zipf_theta > 0) {
    zipf.emplace(spec.keys, spec.zipf_theta);
  }
  std::vector<Op> ops;
  ops.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Op op;
    const double dice = rng.NextDouble();
    if (dice < spec.search) {
      op.kind = OpKind::kSearch;
    } else if (dice < spec.search + spec.update) {
      op.kind = OpKind::kUpdate;
    } else if (dice < spec.search + spec.update + spec.insert) {
      op.kind = OpKind::kInsert;
    } else {
      op.kind = OpKind::kScan;
    }
    if (op.kind != OpKind::kInsert) {
      const uint64_t id =
          zipf ? common::ScrambledZipfianGenerator::Scramble(zipf->Next(rng)) % spec.keys
               : rng.Uniform(spec.keys);
      op.key = keys.KeyAt(id);
    }
    if (op.kind == OpKind::kScan) {
      op.scan_len = static_cast<uint8_t>(rng.Range(1, static_cast<uint64_t>(spec.max_scan_len)));
    }
    ops.push_back(op);
  }
  return ops;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
