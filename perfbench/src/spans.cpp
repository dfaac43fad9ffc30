#include "spans.hpp"

#include <algorithm>
#include <ostream>

namespace perfbench {

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::kIsend: return "isend";
    case Op::kIrecv: return "irecv";
    case Op::kWaitAll: return "wait_all";
    case Op::kProgress: return "progress";
    case Op::kCreditWait: return "credit_wait";
    case Op::kPut: return "put";
    case Op::kFlush: return "flush";
    case Op::kSendWindow: return "send_window";
    case Op::kRecvWindow: return "recv_window";
    case Op::kRmaRound: return "rma_round";
    case Op::kCount: break;
  }
  return "?";
}

bool is_batch_op(Op op) noexcept {
  return op == Op::kSendWindow || op == Op::kRecvWindow || op == Op::kRmaRound;
}

void Histogram::merge(const Histogram& o) noexcept {
  for (int i = 0; i < kBuckets; ++i) {
    counts_[static_cast<std::size_t>(i)] += o.counts_[static_cast<std::size_t>(i)];
  }
  n_ += o.n_;
}

double Histogram::lower_bound(int idx) noexcept {
  if (idx < kSub) return idx;
  const int e = idx / kSub + 4;
  const std::uint64_t sub = static_cast<std::uint64_t>(idx % kSub);
  return static_cast<double>((kSub + sub) << (e - 5));
}

double Histogram::quantile(double q) const noexcept {
  if (n_ == 0) return 0.0;
  // Rank of the q-quantile, 1-based, clamped into [1, n].
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(q * static_cast<double>(n_) + 0.5), 1, n_);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts_[static_cast<std::size_t>(i)];
    if (seen >= rank) {
      const double lo = lower_bound(i);
      const double width = i < kSub ? 1.0 : lower_bound(i + 1) - lo;
      return lo + (width - 1.0) / 2.0;
    }
  }
  return lower_bound(kBuckets - 1);
}

SpanLog::SpanLog(int thread, std::size_t capacity) : thread_(thread), spans_(capacity) {}

void SpanLog::open(Op op, std::uint32_t batch, bool is_batch) noexcept {
  if (!armed_ || depth_ == kMaxDepth) return;
  std::int32_t slot = -1;
  if (kept_ < spans_.size()) {
    slot = static_cast<std::int32_t>(kept_++);
    Span& s = spans_[static_cast<std::size_t>(slot)];
    s.op = op;
    s.batch = batch;
    s.parent = depth_ > 0 ? stack_[static_cast<std::size_t>(depth_ - 1)].slot : -1;
  }
  // Taken last, so the bookkeeping above is not charged to the call.
  stack_[static_cast<std::size_t>(depth_++)] = {fairmpi::CycleClock::now(), 0, slot, op, is_batch};
}

void SpanLog::end() noexcept {
  if (!armed_ || depth_ == 0) return;
  const std::uint64_t t1 = fairmpi::CycleClock::now();
  const Frame f = stack_[static_cast<std::size_t>(--depth_)];
  const std::uint64_t dur = t1 - f.start;
  hist_[static_cast<std::size_t>(f.op)].add(dur);
  if (depth_ > 0) stack_[static_cast<std::size_t>(depth_ - 1)].child_cycles += dur;
  if (f.slot >= 0) {
    Span& s = spans_[static_cast<std::size_t>(f.slot)];
    s.start = f.start;
    s.end = t1;
  }
  if (f.batch) {
    // A batch span closed: its self time is what no direct child covers.
    const std::uint64_t self = dur > f.child_cycles ? dur - f.child_cycles : 0;
    batch_self_.add(self);
    batch_cycles_ += dur;
    batch_self_cycles_ += self;
  }
}

void SpanLog::begin_batch(Op op, std::uint32_t batch) noexcept {
  current_batch_ = batch;
  open(op, batch, true);
}

void write_chrome_trace(std::ostream& os, const std::vector<const SpanLog*>& logs,
                        const std::string& workload) {
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const SpanLog* log : logs) {
    for (std::size_t i = 0; i < log->kept(); ++i) {
      if (log->span(i).end != 0) t0 = std::min(t0, log->span(i).start);
    }
  }
  const double ns_per_cycle = cycles_to_ns(1.0);
  const auto us = [&](std::uint64_t cycles) {
    return static_cast<double>(cycles - t0) * ns_per_cycle * 1e-3;
  };
  os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\"" << workload
     << "\"},\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  sep();
  os << R"({"ph":"M","pid":1,"name":"process_name","args":{"name":"perfbench )" << workload
     << "\"}}";
  for (const SpanLog* log : logs) {
    sep();
    os << R"({"ph":"M","pid":1,"tid":)" << log->thread()
       << R"(,"name":"thread_name","args":{"name":"worker )" << log->thread() << "\"}}";
    // Child coverage per kept batch span, for its self time.
    std::vector<std::uint64_t> child(log->kept(), 0);
    for (std::size_t i = 0; i < log->kept(); ++i) {
      const Span& s = log->span(i);
      if (s.parent >= 0 && s.end != 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    for (std::size_t i = 0; i < log->kept(); ++i) {
      const Span& s = log->span(i);
      if (s.end == 0) continue;  // still open when the run stopped
      sep();
      const double dur_us = static_cast<double>(s.end - s.start) * ns_per_cycle * 1e-3;
      os << R"({"ph":"X","pid":1,"tid":)" << log->thread() << R"(,"name":")" << op_name(s.op)
         << R"(","ts":)" << us(s.start) << R"(,"dur":)" << dur_us << R"(,"args":{"batch":)"
         << s.batch << R"(,"id":)" << i << R"(,"parent":)" << s.parent;
      if (is_batch_op(s.op)) {
        const std::uint64_t span = s.end - s.start;
        const std::uint64_t kids = child[i];
        os << R"(,"self_us":)"
           << static_cast<double>(span > kids ? span - kids : 0) * ns_per_cycle * 1e-3;
      }
      os << "}}";
    }
  }
  os << "]}\n";
}

}  // namespace perfbench
