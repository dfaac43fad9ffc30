// Call timing taken from outside the engine.
//
// Each worker thread owns one SpanLog. The workload brackets every public
// engine call it makes (isend, irecv, wait_all, progress, put, flush) and
// every batch with begin()/end(). Every span feeds a per-operation duration
// histogram; the first `capacity` spans of a thread are also kept, with
// their parent and batch id, in memory preallocated before the run, and
// written out as Chrome trace JSON at exit. Batch spans track the time
// their direct children cover, so the untimed remainder ("self time") of
// each batch is known even after the span buffer is full.
//
// The untraced workload instantiates the same code with NoSpans, whose
// methods compile to nothing.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fairmpi/common/timing.hpp"

namespace perfbench {

enum class Op : std::uint8_t {
  kIsend,
  kIrecv,
  kWaitAll,
  kProgress,
  kCreditWait,
  kPut,
  kFlush,
  kSendWindow,
  kRecvWindow,
  kRmaRound,
  kCount
};

inline constexpr int kNumOps = static_cast<int>(Op::kCount);

const char* op_name(Op op) noexcept;
bool is_batch_op(Op op) noexcept;

/// Log-linear duration histogram: 32 sub-buckets per power of two, so a
/// quantile is exact below 32 ns and within ~3% above.
class Histogram {
 public:
  static constexpr int kSub = 32;
  static constexpr int kBuckets = (64 - 4) * kSub;

  void add(std::uint64_t v) noexcept {
    ++counts_[static_cast<std::size_t>(index(v))];
    ++n_;
  }
  void merge(const Histogram& o) noexcept;
  std::uint64_t count() const noexcept { return n_; }
  /// Value at quantile q in [0, 1]: the midpoint of the bucket holding it;
  /// 0 when empty.
  double quantile(double q) const noexcept;

  static int index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<int>(v);
    const int e = 63 - __builtin_clzll(v);  // >= 5
    return (e - 4) * kSub + static_cast<int>((v >> (e - 5)) & (kSub - 1));
  }
  static double lower_bound(int idx) noexcept;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
};

struct Span {
  std::uint64_t start = 0;  ///< TSC cycles
  std::uint64_t end = 0;
  std::uint32_t batch = 0;
  std::int32_t parent = -1;  ///< index into the same thread's spans, -1 = none
  Op op = Op::kIsend;
};

/// Per-thread recorder (see file comment). Not thread-safe: one per thread.
class SpanLog {
 public:
  SpanLog(int thread, std::size_t capacity);

  /// Gate for the current batch: spans are taken only while armed (the
  /// timed part of a run).
  void arm(bool on) noexcept { armed_ = on; }

  /// Open a span; end() closes the innermost open one. A batch span
  /// (begin_batch) sets the batch id its children carry.
  void begin(Op op) noexcept { open(op, current_batch_, false); }
  void end() noexcept;
  void begin_batch(Op op, std::uint32_t batch) noexcept;

  /// Record the result of a progress() call for the empty-call ratio.
  void note_progress(std::size_t completions) noexcept {
    if (!armed_) return;
    ++progress_calls_;
    if (completions == 0) ++progress_empty_;
  }

  int thread() const noexcept { return thread_; }
  const Histogram& hist(Op op) const noexcept {
    return hist_[static_cast<std::size_t>(op)];
  }
  const Histogram& batch_self() const noexcept { return batch_self_; }
  std::uint64_t batch_cycles() const noexcept { return batch_cycles_; }
  std::uint64_t batch_self_cycles() const noexcept { return batch_self_cycles_; }
  std::uint64_t progress_calls() const noexcept { return progress_calls_; }
  std::uint64_t progress_empty() const noexcept { return progress_empty_; }
  std::size_t kept() const noexcept { return kept_; }
  const Span& span(std::size_t i) const noexcept { return spans_[i]; }

 private:
  struct Frame {
    std::uint64_t start;
    std::uint64_t child_cycles;
    std::int32_t slot;
    Op op;
    bool batch;
  };
  static constexpr int kMaxDepth = 4;

  void open(Op op, std::uint32_t batch, bool is_batch) noexcept;

  int thread_;
  bool armed_ = false;
  std::uint32_t current_batch_ = 0;
  std::vector<Span> spans_;  ///< preallocated to capacity
  std::size_t kept_ = 0;
  std::array<Frame, kMaxDepth> stack_{};
  int depth_ = 0;
  std::array<Histogram, kNumOps> hist_{};  ///< durations in cycles
  Histogram batch_self_;                   ///< cycles
  std::uint64_t batch_cycles_ = 0;
  std::uint64_t batch_self_cycles_ = 0;
  std::uint64_t progress_calls_ = 0;
  std::uint64_t progress_empty_ = 0;
};

/// The untraced stand-in: same interface, no work.
class NoSpans {
 public:
  void arm(bool) noexcept {}
  void begin(Op) noexcept {}
  void end() noexcept {}
  void begin_batch(Op, std::uint32_t) noexcept {}
  void note_progress(std::size_t) noexcept {}
};

/// Write every kept span of `logs` as Chrome trace-event JSON ("X" events,
/// one track per thread; batch spans carry their self time in args).
void write_chrome_trace(std::ostream& os, const std::vector<const SpanLog*>& logs,
                        const std::string& workload);

/// Cycles to nanoseconds (the engine's calibrated TSC ratio).
inline double cycles_to_ns(double cycles) noexcept {
  return static_cast<double>(fairmpi::CycleClock::to_ns(1'000'000'000ull)) * 1e-9 * cycles;
}

}  // namespace perfbench
