// The simulated-latency metrics: sim_p50_us / sim_p99_us (mid-quantiles of the measured calls'
// simulated time) and sim_slo_mops (the highest modeled throughput, over the measured demand
// less lock-wait retries, whose modeled p99 stays within a fixed limit).
#ifndef PERFBENCH_SLO_H_
#define PERFBENCH_SLO_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/dmsim/op_stats.h"
#include "src/dmsim/throughput_model.h"

namespace perfbench {

// The modeled p99 limit, 10 base RTTs of the default NIC (2 us each).
inline constexpr double kSloP99Us = 20.0;

// Mid-quantiles of a sample (Parzen's mid-distribution; Ma, Genton & Parzen 2011). A call's
// simulated time takes a few discrete values, one per op class (a speculative 1-RTT READ, a
// full-neighbourhood READ, a lock round, ...). A plain sample quantile sits on one of them
// until the class shares cross q and then jumps, so it reads the same on every run and ignores
// the other classes. The mid-quantile places each distinct value x at F(x) - P(x)/2 and
// interpolates linearly between these points: it moves continuously with the class shares and
// with the latency of the classes next to q, and on data without ties it is the ordinary
// interpolated quantile.
class MidQuantiles {
 public:
  explicit MidQuantiles(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    for (size_t i = 0; i < v.size();) {
      size_t j = i;
      while (j < v.size() && v[j] == v[i]) {
        ++j;
      }
      x_.push_back(v[i]);
      mid_.push_back((static_cast<double>(i) + static_cast<double>(j - i) / 2) / n);
      i = j;
    }
  }

  // The q-th mid-quantile, q in [0, 1]; 0 for an empty sample.
  double At(double q) const {
    if (x_.empty()) {
      return 0;
    }
    const size_t hi = static_cast<size_t>(std::lower_bound(mid_.begin(), mid_.end(), q) -
                                          mid_.begin());
    if (hi == 0) {
      return x_.front();
    }
    if (hi == x_.size()) {
      return x_.back();
    }
    const size_t lo = hi - 1;
    return x_[lo] + (q - mid_[lo]) / (mid_[hi] - mid_[lo]) * (x_[hi] - x_[lo]);
  }

 private:
  std::vector<double> x_;    // distinct values, ascending
  std::vector<double> mid_;  // mid-distribution point of each
};

// `demand` without `lock_waits` failed lock CASes, each one 8-byte atomic (one verb, one RTT,
// 8 bytes each way). dmsim holds a lock for host time, so how often a waiter re-CASes depends
// on how the host schedules the simulator's threads, not on the index: while a holder's vCPU
// is descheduled the waiters spin for milliseconds, and on write-churn such lock storms tripled
// a run's verbs per op and cut its modeled throughput by a third. The retries' simulated time
// stays in the latency histogram, which cannot be split per verb.
inline dmsim::OpTypeStats WithoutLockWaits(dmsim::OpTypeStats demand, uint64_t lock_waits) {
  const uint64_t n = std::min({lock_waits, demand.verbs, demand.rtts, demand.bytes_read / 8,
                               demand.bytes_written / 8});
  demand.verbs -= n;
  demand.rtts -= n;
  demand.bytes_read -= 8 * n;
  demand.bytes_written -= 8 * n;
  demand.retries -= std::min(n, demand.retries);
  return demand;
}

// The model at one client count. Throughput, the binding bound and its utilization come from
// dmsim::ThroughputModel. Latency percentiles are the measured unloaded ones scaled by the
// model's queueing inflation (loaded mean response time / unloaded mean, at least 1): the
// model's own percentiles come from log buckets up to a quarter of an octave wide, too coarse
// to tell a 2.0 us READ from a 2.5 us one.
struct SloPoint {
  int clients = 0;  // 0 when no sweep point meets the limit
  double mops = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::string bottleneck;
  double utilization = 0;
};

inline SloPoint ModelAt(const dmsim::ThroughputModel& model, const dmsim::OpTypeStats& demand,
                        double unloaded_p50_us, double unloaded_p99_us, int clients) {
  const dmsim::ModelResult r = model.Evaluate(demand, clients);
  const double mean_us = demand.latency_ns.Mean() / 1e3;
  const double inflation = mean_us > 0 ? std::max(1.0, r.avg_us / mean_us) : 1.0;
  return {clients,         r.throughput_mops, unloaded_p50_us * inflation,
          unloaded_p99_us * inflation, r.bottleneck, r.utilization};
}

// Evaluates `demand` at every point of `sweep` (bench::ClientSweep() in the benchmark) and
// keeps the highest throughput whose p99 is within `p99_limit_us`; among equal throughputs the
// smallest client count (lowest latency). Below saturation throughput grows with the client
// count at the unloaded latency; past it throughput is flat and the p99 inflates with N, so the
// limit picks the last point before queueing pushes the tail over it.
inline SloPoint HighestWithinSlo(const dmsim::ThroughputModel& model,
                                 const dmsim::OpTypeStats& demand, double unloaded_p50_us,
                                 double unloaded_p99_us, const std::vector<int>& sweep,
                                 double p99_limit_us) {
  SloPoint best;
  for (int n : sweep) {
    const SloPoint p = ModelAt(model, demand, unloaded_p50_us, unloaded_p99_us, n);
    if (p.p99_us <= p99_limit_us && p.mops > best.mops) {
      best = p;
    }
  }
  return best;
}

}  // namespace perfbench

#endif  // PERFBENCH_SLO_H_
