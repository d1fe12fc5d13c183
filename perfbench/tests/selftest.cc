// Self-test of the benchmark's own logic: the output checker must count corrupted results as
// failures (and so in the error rate), the sim_slo_mops computation must pick the right sweep
// point in both the latency-bound and the saturated regime, and the mid-quantiles behind
// sim_p50_us / sim_p99_us must move with the op classes' shares and latencies.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest        (exit code 0 = all checks passed)
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "checker.h"
#include "slo.h"
#include "src/dmsim/sim_config.h"

namespace {

int failures = 0;

void Check(bool cond, const std::string& what) {
  if (!cond) {
    std::printf("FAIL: %s\n", what.c_str());
    failures++;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::fabs(b); }

using Items = std::vector<std::pair<common::Key, common::Value>>;

Items GoodScan(common::Key start, int n) {
  Items out;
  for (int i = 0; i < n; ++i) {
    const common::Key k = start + static_cast<common::Key>(i) * 3;
    out.emplace_back(k, perfbench::TaggedValue(k, 7));
  }
  return out;
}

void CheckerCountsCorruption() {
  using namespace perfbench;
  const common::Key key = 0x1234567890abcdefULL;
  const common::Value good = TaggedValue(key, 5);
  Check(SearchOk(key, true, good), "a found, correctly tagged search passes");
  Check(UpdateOk(true), "a found update passes");
  Check(ScanOk(100, 8, 8, GoodScan(100, 8)), "a sorted, tagged scan passes");
  Check(ScanOk(100, 8, 3, GoodScan(100, 3)), "a short scan passes");

  Tally tally;
  tally.Record(SearchOk(key, true, good));
  tally.Record(SearchOk(key, false, good));                         // existing key missing
  tally.Record(SearchOk(key, true, TaggedValue(key + 1, 5)));       // another key's value
  tally.Record(SearchOk(key, true, good ^ (uint64_t{1} << 40)));    // flipped tag bit
  tally.Record(UpdateOk(false));                                    // existing key missing
  Items unsorted = GoodScan(100, 5);
  std::swap(unsorted[2], unsorted[3]);
  tally.Record(ScanOk(100, 5, 5, unsorted));
  Items dup = GoodScan(100, 5);
  dup[3].first = dup[2].first;
  dup[3].second = TaggedValue(dup[3].first, 1);
  tally.Record(ScanOk(100, 5, 5, dup));                             // not strictly ascending
  Items below = GoodScan(100, 5);
  below.insert(below.begin(), {99, TaggedValue(99, 1)});
  tally.Record(ScanOk(100, 6, 6, below));                           // key below start
  Items missing_start = GoodScan(103, 4);
  tally.Record(ScanOk(100, 4, 4, missing_start));                   // start key absent
  Items bad_tag = GoodScan(100, 5);
  bad_tag[4].second ^= uint64_t{1} << 63;
  tally.Record(ScanOk(100, 5, 5, bad_tag));
  tally.Record(ScanOk(100, 4, 5, GoodScan(100, 5)));                // more than asked for
  tally.Record(ScanOk(100, 5, 4, GoodScan(100, 5)));                // count != items
  tally.Record(ScanOk(100, 5, 0, Items{}));                         // nothing returned
  tally.Record(ScanOk(100, 5, 5, GoodScan(100, 5)));
  Check(tally.attempted == 14, "every checked result is attempted");
  Check(tally.failed == 12, "every corrupted result counts as failed, got " +
                                std::to_string(tally.failed));
  Check(Near(tally.ErrorRate(), 12.0 / 14.0), "error rate = failed / attempted");
}

// Hand-built demand: 1000 ops, each with the same simulated latency, verbs and bytes read.
dmsim::OpTypeStats Demand(double latency_ns, double verbs_per_op, double bytes_per_op) {
  dmsim::OpTypeStats d;
  d.ops = 1000;
  d.verbs = static_cast<uint64_t>(verbs_per_op * 1000);
  d.bytes_read = static_cast<uint64_t>(bytes_per_op * 1000);
  d.rtts = 1000;
  for (int i = 0; i < 1000; ++i) {
    d.latency_ns.Record(static_cast<uint64_t>(latency_ns));
  }
  return d;
}

void SloLatencyBound() {
  // 10 us per op and 0.5 verbs/op: the MN IOPS cap (90 M verbs/s) allows 180 Mops, above the
  // 1024 / 10 us = 102.4 Mops the largest sweep point can offer, so every point is
  // latency-bound, the p99 stays at 10 us, and the largest point wins.
  const dmsim::ThroughputModel model(dmsim::SimConfig{}, 10);
  const perfbench::SloPoint p =
      perfbench::HighestWithinSlo(model, Demand(10000, 0.5, 64), 10.0, 10.0,
                                  bench::ClientSweep(), perfbench::kSloP99Us);
  Check(p.clients == 1024, "latency-bound: the largest sweep point meets the SLO");
  Check(Near(p.mops, 102.4),
        "latency-bound: X = N / R = 102.4 Mops, got " + std::to_string(p.mops));
  Check(p.bottleneck == "latency", "latency-bound: the binding bound is 'latency'");
  Check(Near(p.p99_us, 10.0), "latency-bound: p99 is the unloaded 10 us");
}

void SloSaturated() {
  // 4 verbs/op caps throughput at 90 M / 4 = 22.5 Mops from N = 225 on. Past that point the
  // p99 inflates as 10 us * N / 225: 240 -> 10.7 us and 320 -> 14.2 us meet 20 us, 480 ->
  // 21.3 us does not. Throughput is flat at the cap, so the first saturated point is kept.
  const dmsim::ThroughputModel model(dmsim::SimConfig{}, 10);
  const perfbench::SloPoint p =
      perfbench::HighestWithinSlo(model, Demand(10000, 4, 64), 10.0, 10.0,
                                  bench::ClientSweep(), perfbench::kSloP99Us);
  Check(p.clients == 240,
        "saturated: the first saturated sweep point is kept, got " + std::to_string(p.clients));
  Check(Near(p.mops, 22.5),
        "saturated: X = the IOPS cap 22.5 Mops, got " + std::to_string(p.mops));
  Check(p.bottleneck == "mn-iops", "saturated: the binding bound is 'mn-iops'");
  Check(Near(p.p99_us, 10.0 * 240 / 225), "saturated: p99 inflated by N / N*");

  // A limit below the unloaded p99: no point qualifies.
  const perfbench::SloPoint none = perfbench::HighestWithinSlo(
      model, Demand(10000, 4, 64), 10.0, 10.0, bench::ClientSweep(), 5.0);
  Check(none.clients == 0 && none.mops == 0,
        "a limit below the unloaded p99 yields no SLO point");

  // Lock-wait retries come out of the demand: 6 verbs/op with 2 of them retries models as
  // 4 verbs/op, the saturated case above.
  dmsim::OpTypeStats storm = Demand(10000, 6, 64);
  const uint64_t retries = 2 * storm.ops;
  storm.rtts = 6 * storm.ops;
  storm.bytes_read += 8 * retries;
  storm.bytes_written = 8 * retries;
  const dmsim::OpTypeStats calm = perfbench::WithoutLockWaits(storm, retries);
  Check(calm.verbs == 4 * storm.ops && calm.rtts == 4 * storm.ops &&
            calm.bytes_read == storm.bytes_read - 8 * retries && calm.bytes_written == 0,
        "lock-wait retries are taken out of verbs, RTTs and bytes");
  const perfbench::SloPoint q = perfbench::HighestWithinSlo(
      model, calm, 10.0, 10.0, bench::ClientSweep(), perfbench::kSloP99Us);
  Check(Near(q.mops, 22.5), "without its retries the storm run models as the calm one");
}

void MidQuantilesOfDiscreteLatencies() {
  // Two op classes, 2 us (share s) and 3 us: the plain median is 2 us for every s > 0.5, while
  // the mid-quantile moves with s. Mid points: 2 us at s/2, 3 us at s + (1 - s)/2.
  auto sample = [](int fast, int slow) {
    std::vector<double> v(fast, 2000.0);
    v.insert(v.end(), slow, 3000.0);
    return v;
  };
  const perfbench::MidQuantiles a(sample(700, 300));  // mids 0.35, 0.85
  Check(Near(a.At(0.5), 2000.0 + (0.5 - 0.35) / 0.5 * 1000.0),
        "mid-quantile interpolates between class mid points, got " + std::to_string(a.At(0.5)));
  const perfbench::MidQuantiles b(sample(750, 250));
  Check(b.At(0.5) < a.At(0.5), "a larger fast-class share lowers the mid-quantile");
  Check(Near(a.At(0.99), 3000.0), "past the last mid point the largest value is returned");
  Check(Near(a.At(0.1), 2000.0), "before the first mid point the smallest value is returned");
  // Every class one RTT faster moves the metric by exactly that much.
  std::vector<double> faster = sample(700, 300);
  for (double& x : faster) {
    x -= 1000.0;
  }
  Check(Near(perfbench::MidQuantiles(faster).At(0.5), a.At(0.5) - 1000.0),
        "a uniformly faster op moves the mid-quantile by the same amount");
  // Without ties it is the ordinary interpolated quantile: 1..100, q = 0.5 -> 50.5.
  std::vector<double> distinct;
  for (int i = 1; i <= 100; ++i) {
    distinct.push_back(i);
  }
  Check(Near(perfbench::MidQuantiles(distinct).At(0.5), 50.5),
        "without ties the mid-quantile is the interpolated median");
  Check(perfbench::MidQuantiles({}).At(0.5) == 0, "an empty sample gives 0");
}

}  // namespace

int main() {
  CheckerCountsCorruption();
  SloLatencyBound();
  SloSaturated();
  MidQuantilesOfDiscreteLatencies();
  if (failures == 0) {
    std::printf("perfbench self-test: all checks passed\n");
    return 0;
  }
  std::printf("perfbench self-test: %d check(s) failed\n", failures);
  return 1;
}
