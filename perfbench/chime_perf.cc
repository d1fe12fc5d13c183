// chime_perf: the closed-loop, multi-worker benchmark program for chime::ChimeTree.
//
//   chime_perf --workload <read-hot|mixed-cold|write-churn> --seed N --seconds S --trace 0|1
//
// One process builds a simulated memory pool and a CHIME index (through
// baselines::ChimeIndex), bulk-loads the workload's keys, and drives the index from kWorkers
// threads, each with its own dmsim::Client and a stream of ops pre-generated from the seed.
// Every result is checked (checker.h). Output: a human-readable report, then as the last
// stdout line one JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   --trace 0  end-to-end metrics: set-up time, modeled throughput within the p99 SLO, modeled
//              latency, CN cache use, MN bytes per item, success rate; host throughput is
//              printed in the report only.
//   --trace 1  per-layer metrics of a separate traced run: an untraced half followed by a
//              traced half (spans around every index call, a TraceRing on every client, and
//              registry/stats/cache scrapes), plus the tracing overhead between the two.
//
// NOTES.md documents every metric, the workloads and the SLO limit.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checker.h"
#include "slo.h"
#include "src/baselines/chime_index.h"
#include "src/dmsim/client.h"
#include "src/dmsim/fault_injector.h"
#include "src/dmsim/pool.h"
#include "src/dmsim/throughput_model.h"
#include "src/mm/allocator.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kWorkers = 3;
constexpr int kNumCns = 10;            // modeled compute nodes, as in the paper's testbed
constexpr int kSetupRepeats = 3;       // setup_s is the median of this many builds
constexpr double kSampleSeconds = 0.5;  // host_kops is a quantile of the rates of slices this long
// The quantile of the slice rates host_kops reports. Other tenants of a shared host only ever
// slow the program down, for seconds at a time; an upper quantile reads the rate the program
// sustains when they leave it alone (on a 4-vCPU VM, over ten runs, the median of the slices
// spread 0.23 IQR / median, this quantile 0.08-0.14).
constexpr double kHostQuantile = 0.9;
constexpr int kLoaderClientIdBase = 100;  // set-up clients; workers use ids 1..kWorkers
// Stream length; a faster library wraps its stream, which replays the same key choices but
// still inserts only new keys (InsertId).
constexpr size_t kOpsPerWorkerPerSecond = 120000;
// A ring is drained between calls once half full, so a single call may emit up to half the
// capacity without a drop. On write-churn a worker spins on a hot leaf lock with one verb per
// retry; when the holder's vCPU is descheduled for a few ms, one call can issue tens of
// thousands of verbs (a ring of 1 << 16 events dropped up to 48k of them on a 4-vCPU VM).
constexpr size_t kTraceCapacity = 1 << 19;
constexpr size_t kTraceDrainAt = kTraceCapacity / 2;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linear-interpolated quantile of `v` (q in [0, 1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

dmsim::SimConfig PoolConfig() {
  dmsim::SimConfig cfg;  // default NICs: 2 us RTT, 12.5 GB/s, 90 M verbs/s
  cfg.num_memory_nodes = 1;
  cfg.region_bytes_per_mn = 2ULL << 30;  // reserved, touched only as allocated
  return cfg;
}

chime::ChimeOptions IndexOptions(const WorkloadSpec& spec) {
  chime::ChimeOptions o;
  o.value_bytes = spec.value_bytes;
  o.indirect_values = spec.indirect;
  o.indirect_block_bytes = spec.indirect_block_bytes;
  o.cache_bytes = spec.cache_bytes;
  o.hotspot_buffer_bytes = spec.hotspot_bytes;
  return o;
}

// Pool + index + bulk-loaded keys. The index is declared after the pool so it is destroyed
// first.
struct Instance {
  std::unique_ptr<dmsim::MemoryPool> pool;
  std::unique_ptr<baselines::ChimeIndex> index;
};

// Builds the pool and index and loads `items` (sorted): each of kWorkers loader threads
// bulk-loads one contiguous slice through its own client.
Instance Setup(const WorkloadSpec& spec,
               const std::vector<std::pair<common::Key, common::Value>>& items) {
  Instance inst;
  inst.pool = std::make_unique<dmsim::MemoryPool>(PoolConfig());
  inst.index = std::make_unique<baselines::ChimeIndex>(inst.pool.get(), IndexOptions(spec));
  std::vector<std::thread> loaders;
  for (int t = 0; t < kWorkers; ++t) {
    loaders.emplace_back([&inst, &items, t] {
      const size_t lo = items.size() * static_cast<size_t>(t) / kWorkers;
      const size_t hi = items.size() * static_cast<size_t>(t + 1) / kWorkers;
      const std::vector<std::pair<common::Key, common::Value>> slice(items.begin() + lo,
                                                                     items.begin() + hi);
      dmsim::Client loader(inst.pool.get(), kLoaderClientIdBase + t);
      inst.index->BulkLoad(loader, slice);
    });
  }
  for (auto& t : loaders) {
    t.join();
  }
  return inst;
}

// Per-layer observations of one worker during the traced phase.
struct LayerTrace {
  std::unique_ptr<obs::TraceRing> ring;
  uint64_t dropped = 0;
  std::map<std::string, uint64_t> verbs;      // verb name -> count
  std::map<std::string, double> phase_ns;     // phase name -> summed simulated ns
  std::array<std::vector<double>, kNumOpKinds> host_ns;  // benchmark-side span per call
  std::array<std::vector<double>, kNumOpKinds> sim_ns;   // simulated time per call
  double in_call_ns = 0;
  double wall_ns = 0;
  uint64_t kv_items_returned = 0;  // found searches + scanned items

  // Folds the ring's events into the counters and starts a fresh ring, so nothing is dropped
  // as long as one call emits fewer than kTraceCapacity - kTraceDrainAt events.
  void Drain(dmsim::Client& client) {
    if (ring != nullptr) {
      for (const obs::TraceEvent& e : ring->Events()) {
        if (e.cat == obs::TraceCat::kVerb) {
          verbs[e.name]++;
        } else if (e.cat == obs::TraceCat::kPhase) {
          phase_ns[e.name] += e.dur_ns;
        }
      }
      dropped += ring->dropped();
    }
    ring = std::make_unique<obs::TraceRing>(kTraceCapacity);
    client.set_trace(ring.get());
  }
};

struct Worker {
  int id = 0;  // 1..kWorkers; the client id, and InsertId's worker index is id - 1
  const WorkloadSpec* spec = nullptr;
  const KeyMap* keys = nullptr;
  std::unique_ptr<dmsim::Client> client;
  std::vector<Op> ops;
  size_t cursor = 0;
  uint64_t wraps = 0;  // times the stream was used up and restarted
  uint32_t seq = 1;
  uint64_t inserts = 0;  // inserts completed; the next one takes InsertId(..., inserts)
  Tally tally;
  std::vector<std::pair<common::Key, common::Value>> scan_buf;
  std::vector<float> sim_ns;  // simulated time of every untraced call since the last reset
  LayerTrace layer;
  alignas(64) std::atomic<uint64_t> done{0};  // calls completed in the current phase

  // The key of this worker's `n`-th insert.
  common::Key InsertKey(uint64_t n) const {
    return keys->KeyAt(InsertId(*spec, id - 1, kWorkers, n));
  }
};

// One index call plus its check. Failures: a wrong result, or an error the call throws.
bool RunOp(baselines::ChimeIndex& index, Worker& w, const Op& op, uint64_t* kv_returned) {
  dmsim::Client& c = *w.client;
  try {
    switch (op.kind) {
      case OpKind::kSearch: {
        common::Value v = 0;
        const bool found = index.Search(c, op.key, &v);
        *kv_returned += found ? 1 : 0;
        return SearchOk(op.key, found, v);
      }
      case OpKind::kUpdate:
        return UpdateOk(index.Update(c, op.key, TaggedValue(op.key, ++w.seq)));
      case OpKind::kInsert: {
        const common::Key key = w.InsertKey(w.inserts);
        index.Insert(c, key, TaggedValue(key, ++w.seq));
        w.inserts++;
        return true;  // checked by VerifyInserts
      }
      case OpKind::kScan: {
        const size_t n = index.Scan(c, op.key, op.scan_len, &w.scan_buf);
        *kv_returned += n;
        return ScanOk(op.key, op.scan_len, n, w.scan_buf);
      }
    }
  } catch (const dmsim::VerbError&) {
    return false;
  } catch (const mm::OutOfMemory&) {
    return false;
  } catch (const std::exception&) {
    return false;  // anything else is a failed call too, not a dead worker thread
  }
  return false;
}

// Pins the calling worker thread to the `worker`-th CPU the process may use, when there are
// more such CPUs than workers: CPU 0 of the set stays for the main thread, and workers never
// migrate mid-run (unpinned runs measured ~8% lower and no steadier).
void PinWorker(int worker) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 || CPU_COUNT(&allowed) <= kWorkers) {
    return;
  }
  int seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && seen++ == worker) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      return;
    }
  }
}

// Runs every worker closed-loop until `seconds` of wall time pass. With `sample_rates`, also
// records the completed-call rate (calls/s, all workers) of each kSampleSeconds slice. With
// `traced`, each call is timed and the per-layer trace is collected. Returns the calls/s over
// the whole phase.
double RunPhase(baselines::ChimeIndex& index, std::vector<std::unique_ptr<Worker>>& workers,
                double seconds, bool traced, std::vector<double>* sample_rates) {
  std::atomic<bool> stop{false};
  for (auto& w : workers) {
    w->done.store(0, std::memory_order_relaxed);
  }
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (auto& wp : workers) {
    Worker* w = wp.get();
    threads.emplace_back([&index, &stop, w, traced] {
      PinWorker(w->id);
      LayerTrace& L = w->layer;
      if (traced) {
        L.Drain(*w->client);
      }
      const Clock::time_point t_begin = Clock::now();
      uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Op& op = w->ops[w->cursor];
        if (++w->cursor == w->ops.size()) {
          w->cursor = 0;
          w->wraps++;
        }
        uint64_t kv = 0;
        const double sim0 = w->client->SimNowNs();
        if (!traced) {
          w->tally.Record(RunOp(index, *w, op, &kv));
          w->sim_ns.push_back(static_cast<float>(w->client->SimNowNs() - sim0));
        } else {
          const Clock::time_point t0 = Clock::now();
          w->tally.Record(RunOp(index, *w, op, &kv));
          const double host =
              std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
          const int k = static_cast<int>(op.kind);
          L.host_ns[k].push_back(host);
          L.sim_ns[k].push_back(w->client->SimNowNs() - sim0);
          L.in_call_ns += host;
          L.kv_items_returned += kv;
          if (L.ring->size() > kTraceDrainAt) {
            L.Drain(*w->client);
          }
        }
        w->done.store(++n, std::memory_order_relaxed);
      }
      if (traced) {
        L.wall_ns += std::chrono::duration<double, std::nano>(Clock::now() - t_begin).count();
        L.Drain(*w->client);
        w->client->set_trace(nullptr);
        L.ring.reset();
      }
    });
  }
  auto total_done = [&workers] {
    uint64_t sum = 0;
    for (auto& w : workers) {
      sum += w->done.load(std::memory_order_relaxed);
    }
    return sum;
  };
  const int slices = std::max(1, static_cast<int>(seconds / kSampleSeconds + 0.5));
  uint64_t prev_done = 0;
  Clock::time_point prev_t = start;
  for (int s = 1; s <= slices; ++s) {
    std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(seconds * s / slices)));
    const uint64_t now_done = total_done();
    const Clock::time_point now_t = Clock::now();
    if (sample_rates != nullptr) {
      sample_rates->push_back(static_cast<double>(now_done - prev_done) /
                              std::chrono::duration<double>(now_t - prev_t).count());
    }
    prev_done = now_done;
    prev_t = now_t;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) {
    t.join();
  }
  return static_cast<double>(total_done()) / SecondsSince(start);
}

// Searches every key each worker inserted, from that worker's client; each must be found with
// its tag, or the call counts as failed. Runs after the measurement, so it neither perturbs the
// workload nor enters its stats, and it checks that inserts survived the splits they raced.
void VerifyInserts(baselines::ChimeIndex& index, std::vector<std::unique_ptr<Worker>>& workers) {
  std::vector<std::thread> threads;
  for (auto& wp : workers) {
    Worker* w = wp.get();
    threads.emplace_back([&index, w] {
      PinWorker(w->id);
      for (uint64_t n = 0; n < w->inserts; ++n) {
        const common::Key key = w->InsertKey(n);
        try {
          common::Value v = 0;
          const bool found = index.Search(*w->client, key, &v);
          w->tally.Record(SearchOk(key, found, v));
        } catch (const std::exception&) {
          w->tally.Record(false);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
}

// Starts a measurement: clears the clients' op stats and the latency samples.
void ResetMeasurement(std::vector<std::unique_ptr<Worker>>& workers) {
  for (auto& w : workers) {
    w->client->ResetStats();
    w->sim_ns.clear();
    w->sim_ns.reserve(w->ops.size());
  }
}

dmsim::OpTypeStats MergedDemand(const std::vector<std::unique_ptr<Worker>>& workers,
                                dmsim::ClientStats* per_op = nullptr) {
  dmsim::ClientStats all;
  for (const auto& w : workers) {
    all.Merge(w->client->stats());
  }
  if (per_op != nullptr) {
    *per_op = all;
  }
  return all.Combined();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Get(const std::map<std::string, double>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double PerOp(double count, double ops, double scale = 1.0) {
  return ops > 0 ? count * scale / ops : 0.0;
}

void PrintResult(bool correct, const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void Report(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: chime_perf --workload <read-hot|mixed-cold|write-churn> --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  const std::optional<WorkloadSpec> found = FindWorkload(args.workload);
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *found;
  const bool traced_run = args.trace == 1;
  const double warmup_s = std::min(1.0, 0.2 * args.seconds);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d keys=%llu workers=%d "
              "cache=%zuB hotspot=%zuB value=%dB%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, static_cast<unsigned long long>(spec.keys), kWorkers,
              spec.cache_bytes, spec.hotspot_bytes,
              spec.indirect ? spec.indirect_block_bytes : spec.value_bytes,
              spec.indirect ? " (indirect)" : " (inline)");

  // ---- Inputs (not timed): load image and per-worker op streams ---------------------------
  const KeyMap keys(args.seed);
  const auto items = LoadItems(spec, keys, [](common::Key k) { return TaggedValue(k, 1); });
  // Declared before the workers so their clients (which flush cached blocks into the pool's
  // allocator on destruction) go first.
  Instance inst;
  std::vector<std::unique_ptr<Worker>> workers;
  {
    const size_t stream =
        static_cast<size_t>((args.seconds + warmup_s) * kOpsPerWorkerPerSecond);
    std::vector<std::thread> gens;
    for (int t = 0; t < kWorkers; ++t) {
      workers.push_back(std::make_unique<Worker>());
      Worker* w = workers.back().get();
      w->id = t + 1;
      w->spec = &spec;
      w->keys = &keys;
      gens.emplace_back([&spec, &keys, &args, w, t, stream] {
        w->ops = GenerateOps(spec, keys, args.seed, t, stream);
      });
    }
    for (auto& g : gens) {
      g.join();
    }
  }

  // ---- Set-up: pool + index + bulk load, repeated; the last instance is measured ---------
  std::vector<double> setup_times;  // wall seconds of each build
  const int repeats = traced_run ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    inst.index.reset();  // release the previous build, index before pool, before timing
    inst.pool.reset();
    const Clock::time_point t0 = Clock::now();
    inst = Setup(spec, items);
    setup_times.push_back(SecondsSince(t0));
  }
  baselines::ChimeIndex& index = *inst.index;
  for (auto& w : workers) {
    w->client = std::make_unique<dmsim::Client>(inst.pool.get(), w->id);
  }
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();

  // ---- Warm-up: fill the caches and the hotspot buffer ------------------------------------
  RunPhase(index, workers, warmup_s, /*traced=*/false, nullptr);

  std::vector<Metric> metrics;
  const dmsim::SimConfig cfg = PoolConfig();
  const dmsim::ThroughputModel model(cfg, kNumCns);

  if (!traced_run) {
    ResetMeasurement(workers);
    std::vector<double> rates;  // calls/s of every slice
    const double lock_waits_before = Get(registry.Scrape(), "chime.retry.lock_wait");
    RunPhase(index, workers, args.seconds, /*traced=*/false, &rates);
    const auto lock_waits = static_cast<uint64_t>(
        Get(registry.Scrape(), "chime.retry.lock_wait") - lock_waits_before);
    const double host_kops = Quantile(rates, kHostQuantile) / 1e3;
    const double setup_s = Quantile(setup_times, 0.5);

    const dmsim::OpTypeStats demand = MergedDemand(workers);
    std::vector<double> sim_ns;
    for (const auto& w : workers) {
      sim_ns.insert(sim_ns.end(), w->sim_ns.begin(), w->sim_ns.end());
    }
    const MidQuantiles sim_q(std::move(sim_ns));
    const double p50_us = sim_q.At(0.50) / 1e3;
    const double p99_us = sim_q.At(0.99) / 1e3;
    const SloPoint slo = HighestWithinSlo(model, WithoutLockWaits(demand, lock_waits), p50_us,
                                          p99_us, bench::ClientSweep(), kSloP99Us);

    uint64_t live_keys = spec.keys;
    uint64_t wraps = 0;
    for (const auto& w : workers) {
      live_keys += w->inserts;
      wraps += w->wraps;
    }
    uint64_t bytes_live = 0;
    for (const auto& mn : inst.pool->MemoryUsage()) {
      bytes_live += mn.bytes_live;
    }
    const double cn_cache_mb = static_cast<double>(index.CacheConsumptionBytes()) / 1048576.0;
    VerifyInserts(index, workers);
    Tally tally;
    for (const auto& w : workers) {
      tally.Merge(w->tally);
    }
    metrics = {
        {"setup_s", setup_s, "s"},
        {"sim_slo_mops", slo.mops, "Mops/s"},
        {"sim_p50_us", p50_us, "us"},
        {"sim_p99_us", p99_us, "us"},
        {"cn_cache_mb", cn_cache_mb, "MB"},
        {"mn_bytes_per_item",
         static_cast<double>(bytes_live) / static_cast<double>(live_keys), "B/item"},
        {"success_rate", 1.0 - tally.ErrorRate(), "ratio"},
    };
    std::printf("setup runs (s):");
    for (double s : setup_times) {
      std::printf(" %.3f", s);
    }
    std::printf("\nhost kops per %.1fs slice:", kSampleSeconds);
    for (double r : rates) {
      std::printf(" %.1f", r / 1e3);
    }
    std::printf("\nmeasured calls: %llu (op streams wrapped %llu times, %llu lock-wait retries); "
                "unloaded sim latency p50 %.4f us, p99 %.4f us, mean %.4f us\n",
                static_cast<unsigned long long>(demand.ops),
                static_cast<unsigned long long>(wraps),
                static_cast<unsigned long long>(lock_waits), p50_us, p99_us,
                demand.latency_ns.Mean() / 1e3);
    std::printf("SLO: p99 <= %.1f us -> %d modeled clients, bound '%s' (util %.3f), "
                "p50 %.4f us, p99 %.4f us\n",
                kSloP99Us, slo.clients, slo.bottleneck.c_str(), slo.utilization, slo.p50_us,
                slo.p99_us);
    std::printf("inserted keys verified: %llu\n",
                static_cast<unsigned long long>(live_keys - spec.keys));
    std::printf("error_rate %.3g (%llu of %llu calls)\n", tally.ErrorRate(),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    // Reported, not part of the JSON result: on a shared host its spread over seeds can exceed
    // any bound a metric may carry (NOTES.md). compare.py reads this line.
    std::printf("host_kops %.17g kops/s (%.1f quantile of the slices)\n", host_kops,
                kHostQuantile);
    Report(metrics);
    PrintResult(tally.failed == 0, tally, metrics);
    return 0;
  }

  // ---- Traced run: untraced half, then traced half ----------------------------------------
  const double half = args.seconds / 2;
  const double kops_untraced = RunPhase(index, workers, half, false, nullptr) / 1e3;
  ResetMeasurement(workers);
  const std::map<std::string, double> before = registry.Scrape();
  const double kops_traced = RunPhase(index, workers, half, true, nullptr) / 1e3;
  const std::map<std::string, double> after = registry.Scrape();
  auto delta = [&](const std::string& k) { return Get(after, k) - Get(before, k); };

  dmsim::ClientStats per_op;
  const dmsim::OpTypeStats demand = MergedDemand(workers, &per_op);
  const double ops = static_cast<double>(demand.ops);

  // Merge per-worker layer traces.
  std::map<std::string, uint64_t> verbs;
  std::map<std::string, double> phase_ns;
  std::array<std::vector<double>, kNumOpKinds> host_ns;
  std::array<std::vector<double>, kNumOpKinds> sim_ns;
  double outside_ns = 0;  // worker wall time spent outside index calls
  uint64_t dropped = 0;
  uint64_t kv_items = 0;
  for (const auto& w : workers) {
    const LayerTrace& L = w->layer;
    for (const auto& [name, n] : L.verbs) {
      verbs[name] += n;
    }
    for (const auto& [name, ns] : L.phase_ns) {
      phase_ns[name] += ns;
    }
    for (int k = 0; k < kNumOpKinds; ++k) {
      host_ns[k].insert(host_ns[k].end(), L.host_ns[k].begin(), L.host_ns[k].end());
      sim_ns[k].insert(sim_ns[k].end(), L.sim_ns[k].begin(), L.sim_ns[k].end());
    }
    outside_ns += L.wall_ns - L.in_call_ns;
    dropped += L.dropped;
    kv_items += L.kv_items_returned;
  }

  const auto& opts = index.tree().options();
  const double kv_item_bytes =
      opts.indirect_values ? opts.indirect_block_bytes : opts.key_bytes + opts.value_bytes;
  const double read_bytes = static_cast<double>(per_op.For(dmsim::OpType::kSearch).bytes_read +
                                                per_op.For(dmsim::OpType::kScan).bytes_read);

  static const dmsim::OpType kStatType[kNumOpKinds] = {
      dmsim::OpType::kSearch, dmsim::OpType::kUpdate, dmsim::OpType::kInsert,
      dmsim::OpType::kScan};
  for (int k = 0; k < kNumOpKinds; ++k) {
    const std::string p = std::string("core.") + OpKindName(static_cast<OpKind>(k)) + ".";
    const dmsim::OpTypeStats& s = per_op.For(kStatType[k]);
    metrics.push_back({p + "host_us_p50", Quantile(host_ns[k], 0.50) / 1e3, "us"});
    metrics.push_back({p + "host_us_p99", Quantile(host_ns[k], 0.99) / 1e3, "us"});
    const MidQuantiles sim_q(sim_ns[k]);
    metrics.push_back({p + "sim_us_p50", sim_q.At(0.50) / 1e3, "us"});
    metrics.push_back({p + "sim_us_p99", sim_q.At(0.99) / 1e3, "us"});
    metrics.push_back({p + "rtts", s.AvgRtts(), "rtt/op"});
    metrics.push_back({p + "bytes_read", s.AvgBytesRead(), "B/op"});
    metrics.push_back({p + "bytes_written", s.AvgBytesWritten(), "B/op"});
    std::printf("%-7s calls %9zu\n", OpKindName(static_cast<OpKind>(k)), host_ns[k].size());
  }
  metrics.push_back({"core.read_amp",
                     kv_items > 0 ? read_bytes / (static_cast<double>(kv_items) * kv_item_bytes)
                                  : 0.0,
                     "ratio"});
  for (const char* r : {"lock_wait", "read_validation", "hop_bitmap"}) {
    metrics.push_back({std::string("core.retry.") + r + "_per_kop",
                       PerOp(delta(std::string("chime.retry.") + r), ops, 1e3), "1/kop"});
  }
  for (const char* s : {"leaf_splits", "parent_inserts"}) {
    metrics.push_back({std::string("core.smo.") + s + "_per_kop",
                       PerOp(delta(std::string("chime.smo.") + s), ops, 1e3), "1/kop"});
  }
  for (const char* ph : {"descend", "write_back", "split"}) {
    metrics.push_back({std::string("core.phase.") + ph + "_sim_us_per_op",
                       PerOp(phase_ns.count(ph) ? phase_ns[ph] : 0.0, ops, 1e-3), "us/op"});
  }
  metrics.push_back({"host.driver_us_per_op", PerOp(outside_ns, ops, 1e-3), "us/op"});

  const double idx_hits = delta("cache.index.hits");
  const double idx_misses = delta("cache.index.misses");
  const double hs_hits = delta("cache.hotspot.hits");
  const double hs_misses = delta("cache.hotspot.misses");
  metrics.push_back({"cache.index.hit_rate", PerOp(idx_hits, idx_hits + idx_misses), "ratio"});
  metrics.push_back({"cache.index.misses_per_op", PerOp(idx_misses, ops), "1/op"});
  metrics.push_back({"cache.hotspot.hit_rate", PerOp(hs_hits, hs_hits + hs_misses), "ratio"});
  metrics.push_back({"cache.hotspot.lookups_per_op", PerOp(hs_hits + hs_misses, ops), "1/op"});
  metrics.push_back({"cache.index.mb_used",
                     static_cast<double>(index.tree().cache().bytes_used()) / 1048576.0, "MB"});
  metrics.push_back({"cache.hotspot.mb_used",
                     static_cast<double>(index.tree().hotspot().bytes_used()) / 1048576.0,
                     "MB"});

  metrics.push_back({"dmsim.verbs_per_op", demand.AvgVerbs(), "1/op"});
  metrics.push_back({"dmsim.bytes_read_per_op", demand.AvgBytesRead(), "B/op"});
  metrics.push_back({"dmsim.bytes_written_per_op", demand.AvgBytesWritten(), "B/op"});
  for (const char* v :
       {"READ", "WRITE", "CAS", "MASKED_CAS", "READ_BATCH", "WRITE_BATCH", "FETCH_ADD"}) {
    metrics.push_back({std::string("dmsim.verb.") + v + "_per_op",
                       PerOp(static_cast<double>(verbs.count(v) ? verbs[v] : 0), ops), "1/op"});
  }
  std::vector<double> all_sim_ns;
  for (const auto& v : sim_ns) {
    all_sim_ns.insert(all_sim_ns.end(), v.begin(), v.end());
  }
  const MidQuantiles all_sim_q(std::move(all_sim_ns));
  const SloPoint slo = HighestWithinSlo(
      model, WithoutLockWaits(demand, static_cast<uint64_t>(delta("chime.retry.lock_wait"))),
      all_sim_q.At(0.50) / 1e3, all_sim_q.At(0.99) / 1e3, bench::ClientSweep(), kSloP99Us);
  metrics.push_back({"dmsim.model.binding_util", slo.utilization, "ratio"});

  const double retired = delta("mm.epoch.retired");
  metrics.push_back({"mm.alloc.allocs_per_kop", PerOp(delta("mm.alloc.allocs"), ops, 1e3),
                     "1/kop"});
  metrics.push_back({"mm.alloc.frees_per_kop", PerOp(delta("mm.alloc.frees"), ops, 1e3),
                     "1/kop"});
  metrics.push_back({"mm.alloc.chunk_rpcs", delta("mm.alloc.chunk_rpcs"), "count"});
  metrics.push_back({"mm.alloc.slabs_recycled", delta("mm.alloc.slabs_recycled"), "count"});
  metrics.push_back({"mm.epoch.retired_per_kop", PerOp(retired, ops, 1e3), "1/kop"});
  metrics.push_back({"mm.epoch.reclaim_ratio", PerOp(delta("mm.epoch.reclaimed"), retired),
                     "ratio"});
  metrics.push_back({"mm.epoch.defer_depth", Get(after, "mm.epoch.defer_depth"), "count"});
  metrics.push_back({"mm.epoch.lag", Get(after, "mm.epoch.lag"), "epochs"});

  metrics.push_back({"trace.dropped", static_cast<double>(dropped), "count"});
  metrics.push_back({"host.kops_untraced", kops_untraced, "kops/s"});
  metrics.push_back({"host.kops_traced", kops_traced, "kops/s"});
  metrics.push_back({"host.trace_overhead_pct",
                     kops_untraced > 0 ? (kops_untraced - kops_traced) / kops_untraced * 100 : 0,
                     "%"});

  std::printf("traced calls: %llu; model bound at the SLO point: '%s' (%d clients)\n",
              static_cast<unsigned long long>(demand.ops), slo.bottleneck.c_str(),
              slo.clients);
  VerifyInserts(index, workers);
  Tally tally;
  for (const auto& w : workers) {
    tally.Merge(w->tally);
  }
  Report(metrics);
  PrintResult(tally.failed == 0, tally, metrics);
  return 0;
}
