// Self-test of the benchmark's statistics (bench_stats.h): the percentile
// tail rule, histogram ranks, window averages, span self time, and ratio
// bases.
// Exits 0 when every check passes; prints each failure otherwise.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/bench_stats.h"

namespace {

int g_failed = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAILED: %s\n", what);
    ++g_failed;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestTailRule() {
  using perfbench::TailRank;
  // 1000 samples: p99 is rank 990 and exactly 10 samples lie beyond it.
  Check(TailRank(1000, 0.99) == 990, "p99 of 1000 is rank 990");
  // 500 samples: rank 495 would leave 5 beyond; the rule lowers it to 490.
  Check(TailRank(500, 0.99) == 490, "p99 of 500 falls back to rank 490");
  // Large n: the requested percentile itself.
  Check(TailRank(1000000, 0.99) == 990000, "p99 of 1e6 is rank 990000");
  // Too few samples for any tail percentile.
  Check(TailRank(10, 0.99) == 0, "no tail percentile with 10 samples");
  Check(TailRank(11, 0.99) == 1, "11 samples: only the minimum qualifies");
  Check(perfbench::NearestRank(4, 0.5) == 2, "median of 4 is rank 2");
  Check(perfbench::NearestRank(5, 0.5) == 3, "median of 5 is rank 3");
}

void TestHistogram() {
  perfbench::LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Add(v);
  }
  Check(h.count() == 1000, "histogram counts every sample");
  Check(h.Median() == 500, "median of 1..1000 is exact below 2048 ns");
  Check(h.Tail(0.99) == 990, "p99 of 1..1000 is 990");
  Check(Near(h.mean(), 500.5), "mean of 1..1000");

  // Above 2048 ns buckets are log-linear: every value lands in a bucket
  // whose bounds contain it and whose width is at most 1/128 of its low.
  using H = perfbench::LatencyHistogram;
  bool contained = true;
  for (uint64_t v : {2047ull, 2048ull, 2049ull, 4095ull, 4096ull, 100000ull,
                     123456789ull, 1ull << 39}) {
    const size_t i = H::Index(v);
    contained = contained && H::Low(i) <= v && v < H::Low(i + 1) &&
                (H::Low(i + 1) - H::Low(i)) * 128 <= std::max<uint64_t>(
                                                         H::Low(i), 128);
  }
  Check(contained, "log-linear buckets contain their values");
  Check(H::Index(uint64_t{1} << 50) == H::kBuckets - 1,
        "values past the range land in the last bucket");

  // Ranks inside a wide bucket interpolate: 100 samples of 100000 ns share
  // one bucket, so rank r reads low + width * (r - 0.5) / 100.
  perfbench::LatencyHistogram wide;
  for (int i = 0; i < 100; ++i) {
    wide.Add(100000);
  }
  const size_t b = H::Index(100000);
  const double low = static_cast<double>(H::Low(b));
  const double width = static_cast<double>(H::Low(b + 1)) - low;
  Check(Near(wide.AtRank(1), low + width * 0.5 / 100),
        "rank 1 interpolates to the bucket's first slot");
  Check(wide.AtRank(100) < low + width && wide.AtRank(100) > 99000,
        "rank 100 stays inside the bucket");

  // Merge adds both sides.
  perfbench::LatencyHistogram merged;
  merged.Add(7);
  merged.Merge(wide);
  Check(merged.count() == 101 && merged.AtRank(1) == 7 &&
            merged.AtRank(2) > 99000,
        "merge keeps both sides' samples");
  perfbench::LatencyHistogram empty;
  Check(empty.Median() == 0 && empty.Tail(0.99) == 0, "empty histogram is 0");
}

void TestWindowStats() {
  using perfbench::Median;
  Check(Median({}) == 0.0, "median of nothing is 0");
  Check(Median({3.0, 1.0, 2.0}) == 2.0, "odd count takes the middle");
  Check(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even count averages the middle");
  // One slow window among five does not move the median.
  Check(Median({100, 101, 99, 20, 100}) == 100, "a slow window is ignored");
  using perfbench::TrimmedMean;
  Check(TrimmedMean({}, 0.1) == 0.0, "trimmed mean of nothing is 0");
  Check(TrimmedMean({4.0, 1.0, 3.0, 2.0}, 0.1) == 2.5,
        "under ten values nothing is trimmed");
  // Ten windows: the lowest and the highest are dropped.
  Check(TrimmedMean({1, 2, 2, 2, 2, 4, 4, 4, 4, 100}, 0.1) == 3.0,
        "a stalled window is trimmed");
  // A bimodal run: the mean moves with the share of slow windows, where
  // the median jumps between the modes.
  Check(TrimmedMean({3, 3, 3, 3, 3, 5, 5, 5, 5, 5}, 0.1) == 4.0 &&
            Median({3, 3, 3, 3, 3, 5, 5, 5, 5, 5}) == 4.0 &&
            TrimmedMean({3, 3, 3, 3, 5, 5, 5, 5, 5, 5}, 0.1) == 4.25 &&
            Median({3, 3, 3, 3, 5, 5, 5, 5, 5, 5}) == 5.0,
        "trimmed mean follows the share of slow windows");
  perfbench::Window a, b;
  a.read.Add(5);
  b.read.Add(6);
  b.write.Add(9);
  a.Merge(b);
  Check(a.read.count() == 2 && a.write.count() == 1,
        "windows merge both histograms");
}

void TestSelfTime() {
  using perfbench::Span;
  // step [0,100) with children put [10,40) and delete [40,70): self 40.
  // put has a grandchild [15,25): put self 20. A child sticking out of its
  // parent only covers the overlapping part.
  std::vector<Span> spans = {
      {0, 0, 1, 0, 100},    // 1: step
      {1, 1, 1, 10, 40},    // 2: put, child of step
      {2, 1, 1, 40, 70},    // 3: delete, child of step
      {3, 2, 1, 15, 25},    // 4: child of put
      {4, 0, 2, 200, 260},  // 5: root, child sticks out
      {5, 5, 2, 250, 300},  // 6: covers [250,260) of span 5
  };
  const auto self = perfbench::SelfTimes(spans);
  Check(self[0] == 40, "step self time subtracts both children");
  Check(self[1] == 20, "put self time subtracts its grandchild only");
  Check(self[2] == 30, "leaf self time is its duration");
  Check(self[3] == 10, "nested leaf");
  Check(self[4] == 50, "only the overlapping part is subtracted");
  Check(self[5] == 50, "outlying child keeps its duration");
}

void TestRatioBases() {
  using perfbench::BitsPer512;
  using perfbench::LiveUserBytes;
  using perfbench::Ratio;
  Check(Ratio(3, 0) == 0.0, "empty base reports 0");
  Check(Near(Ratio(1, 4), 0.25), "plain ratio");
  // Live bytes count the 8-byte key with every value.
  Check(Near(LiveUserBytes(2048, 4800), 2048.0 * 4808.0),
        "live bytes of the cctv window");
  Check(Near(LiveUserBytes(1, 24), 32.0), "key plus value");
  // 64 flipped cells over 1024 payload bits = 32 per 512.
  Check(Near(BitsPer512(64, 1024), 32.0), "bits per 512 payload bits");
  Check(BitsPer512(5, 0) == 0.0, "no payload, no bits");
}

}  // namespace

int main() {
  TestTailRule();
  TestHistogram();
  TestWindowStats();
  TestSelfTime();
  TestRatioBases();
  if (g_failed == 0) {
    std::printf("perfbench stats: all checks passed\n");
  }
  return g_failed == 0 ? 0 : 1;
}
