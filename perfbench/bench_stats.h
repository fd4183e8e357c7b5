// Statistics the benchmark reports: latency percentiles with the
// tail rule, span self time, and the ratio bases of the reported metrics.
// Header-only so stats_test.cc checks exactly what the benchmark uses.
#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A tail percentile is only reported where at least this many samples lie
/// beyond it; with fewer samples the highest percentile that still has
/// them is reported instead.
inline constexpr uint64_t kTailSamplesBeyond = 10;

/// 1-based nearest rank of quantile `q` over `n` sorted samples:
/// ceil(q * n), clamped to [1, n].
inline uint64_t NearestRank(uint64_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n));
  return std::clamp<uint64_t>(static_cast<uint64_t>(std::max(r, 1.0)), 1, n);
}

/// Rank of the tail percentile `q` under the tail rule: the nearest rank,
/// lowered until kTailSamplesBeyond samples lie above it. Returns 0 when
/// n <= kTailSamplesBeyond (no percentile has enough samples beyond it).
inline uint64_t TailRank(uint64_t n, double q) {
  if (n <= kTailSamplesBeyond) {
    return 0;
  }
  return std::min(NearestRank(n, q), n - kTailSamplesBeyond);
}

/// Latency distribution in nanoseconds: one bucket per nanosecond below
/// kExactNs, then 128 log-linear buckets per power of two (each at most
/// 0.8% wide) up to 2^40 ns. Small enough to keep one per thread per
/// one-second window; percentiles interpolate inside a wide bucket.
class LatencyHistogram {
 public:
  static constexpr uint64_t kExactNs = 2048;
  static constexpr int kSubBits = 7;
  static constexpr int kMaxOctave = 40;
  static constexpr size_t kBuckets =
      kExactNs + (kMaxOctave - 11 + 1) * (size_t{1} << kSubBits);

  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(uint64_t ns) {
    ++counts_[Index(ns)];
    ++count_;
    sum_ += ns;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
  }

  uint64_t count() const { return count_; }
  double mean() const {
    return count_ == 0
               ? 0.0
               : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Value of the sample at 1-based `rank` in sorted order (0 if empty or
  /// rank is 0): exact below kExactNs, interpolated by rank inside a wider
  /// bucket.
  double AtRank(uint64_t rank) const {
    if (rank == 0 || rank > count_) {
      return 0.0;
    }
    uint64_t before = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (before + counts_[i] >= rank) {
        const double lo = static_cast<double>(Low(i));
        const double width = static_cast<double>(Low(i + 1)) - lo;
        if (width == 1.0) {
          return lo;
        }
        return lo + width * (static_cast<double>(rank - before) - 0.5) /
                        static_cast<double>(counts_[i]);
      }
      before += counts_[i];
    }
    return 0.0;
  }

  double Median() const { return AtRank(NearestRank(count_, 0.5)); }
  /// Tail percentile under the tail rule (see TailRank).
  double Tail(double q) const { return AtRank(TailRank(count_, q)); }

  static size_t Index(uint64_t ns) {
    if (ns < kExactNs) {
      return ns;
    }
    const int octave = std::min(63 - __builtin_clzll(ns), kMaxOctave);
    const uint64_t sub =
        std::min<uint64_t>((ns >> (octave - kSubBits)) - (1u << kSubBits),
                           (1u << kSubBits) - 1);
    return kExactNs + static_cast<size_t>(octave - 11) * (1u << kSubBits) + sub;
  }
  /// Smallest value that lands in bucket `i` (Low(kBuckets) is the end).
  static uint64_t Low(size_t i) {
    if (i < kExactNs) {
      return i;
    }
    const size_t j = i - kExactNs;
    const int octave = 11 + static_cast<int>(j >> kSubBits);
    return (uint64_t{1} << octave) +
           (static_cast<uint64_t>(j & ((1u << kSubBits) - 1))
            << (octave - kSubBits));
  }

 private:
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

/// Latencies of one fixed window of a timed phase. Each reported latency
/// percentile is the trimmed mean (TrimmedMean) of its per-window values
/// over the complete windows, so a slow spell of the host moves a few
/// windows, not the run.
struct Window {
  LatencyHistogram read;
  LatencyHistogram write;

  void Merge(const Window& other) {
    read.Merge(other.read);
    write.Merge(other.write);
  }
};

/// Median of `v` (0 if empty).
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Share of the per-window latency values dropped at each end before they
/// are averaged (see TrimmedMean).
inline constexpr double kWindowTrimShare = 0.1;

/// Mean of `v` without its floor(trim_share * n) lowest and as many highest
/// values (0 if empty). The per-window latencies of one run are bimodal on
/// a shared host: a window runs at one of two speeds, most likely by
/// whether the host's other hardware thread on the core is busy. A median
/// then jumps from one mode to the other as the share of slow windows
/// crosses a half, while a mean moves with the share; the trim drops the
/// windows a checkpoint stall distorts.
inline double TrimmedMean(std::vector<double> v, double trim_share) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto cut = static_cast<size_t>(trim_share *
                                       static_cast<double>(v.size()));
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) {
    sum += v[i];
  }
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// One traced interval. `parent` is the index + 1 of the enclosing span in
/// the same vector (0 = root); spans of one client operation share `op`.
struct Span {
  uint32_t name = 0;
  uint32_t parent = 0;
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (children of one parent run one after
/// another, so their covered parts add).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent == 0) {
      continue;
    }
    const Span& p = spans[s.parent - 1];
    const int64_t covered = std::min(s.end_ns, p.end_ns) -
                            std::max(s.start_ns, p.start_ns);
    self[s.parent - 1] -= std::max<int64_t>(covered, 0);
  }
  return self;
}

/// num / den, or 0 when the base is empty (a layer the workload never
/// exercised reports 0, never NaN).
inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Bytes a user stored: every live key's 8-byte key plus its value. The
/// base of mem_per_live_byte and the per-live-byte memory ratios.
inline double LiveUserBytes(uint64_t live_keys, uint64_t value_bytes) {
  return static_cast<double>(live_keys) * static_cast<double>(8 + value_bytes);
}

/// The paper's Fig. 6 metric: cells flipped per 512 payload bits.
inline double BitsPer512(uint64_t bits_written, uint64_t payload_bits) {
  return Ratio(static_cast<double>(bits_written) * 512.0,
               static_cast<double>(payload_bits));
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
