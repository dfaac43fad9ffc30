#include "fairmpi/progress/progress.hpp"

#include "fairmpi/common/error.hpp"

namespace fairmpi::progress {

using spc::Counter;

const char* progress_mode_name(ProgressMode m) noexcept {
  switch (m) {
    case ProgressMode::kSerial: return "serial";
    case ProgressMode::kConcurrent: return "concurrent";
  }
  return "unknown";
}

ProgressEngine::ProgressEngine(cri::CriPool& pool, PacketSink& sink, ProgressMode mode,
                               spc::CounterSet& counters, int batch, trace::Tracer* tracer)
    : pool_(pool), sink_(sink), mode_(mode), spc_(counters), batch_(batch),
      tracer_(tracer) {
  FAIRMPI_CHECK(batch >= 1);
}

void ProgressEngine::drain_locked(cri::CommResourceInstance& inst, DrainBatch& b) {
  const std::size_t cap =
      static_cast<std::size_t>(batch_) < kMaxDrainBatch ? static_cast<std::size_t>(batch_)
                                                        : kMaxDrainBatch;
  // Completion queue first: completions release resources (RMA pending
  // counts, send credits) that the packet path may be waiting on. The
  // per-visit cap bounds lock hold time; wait loops call progress()
  // repeatedly, so a deep CQ still drains promptly.
  b.n_comps = inst.context().cq().try_pop_n(b.comps.data(), cap);
  b.n_pkts = inst.context().rx().try_pop_n(b.pkts.data(), cap);
}

void ProgressEngine::note_drain(cri::CommResourceInstance& inst, const DrainBatch& b,
                                bool sweep) {
  inst.stats().note_drain(b.n_pkts, b.n_comps, sweep);
  const std::size_t total = b.n_pkts + b.n_comps;
  if (total != 0 && tracer_ != nullptr) {
    tracer_->record(trace::Event::kCriDrain, static_cast<std::uint32_t>(inst.id()),
                    static_cast<std::uint32_t>(total));
  }
}

std::size_t ProgressEngine::dispatch(DrainBatch& b) {
  std::size_t completions = 0;
  for (std::size_t i = 0; i < b.n_comps; ++i) {
    completions += sink_.handle_completion(b.comps[i]);
  }
  for (std::size_t i = 0; i < b.n_pkts; ++i) {
    completions += sink_.handle_packet(std::move(b.pkts[i]));
  }
  return completions;
}

std::size_t ProgressEngine::visit(cri::CommResourceInstance& inst, DrainBatch& b,
                                  Acquire how, bool sweep) {
  if (how == Acquire::kTry) {
    if (!inst.lock().try_lock()) {
      spc_.add(Counter::kInstanceTrylockFail);
      if (!sweep) inst.stats().note_own_trylock_miss();
      return kBusy;
    }
  } else if (how == Acquire::kTimed) {
    inst.lock_timed(spc_);
  } else {
    inst.lock().lock();
  }
  {
    LockGuard adopt(inst.lock(), adopt_lock);
    drain_locked(inst, b);
  }
  note_drain(inst, b, sweep);
  return dispatch(b);
}

std::size_t ProgressEngine::progress_serial() {
  // Traditional design: one thread in the engine; others return at once.
  if (!serial_gate_.try_lock()) {
    spc_.add(Counter::kInstanceTrylockFail);
    return 0;
  }
  LockGuard adopt(serial_gate_, adopt_lock);

  // The gate already excludes other progress threads, but send paths also
  // take instance locks, so each visit still locks its instance.
  DrainBatch b;
  std::size_t completions = 0;
  for (int i = 0; i < pool_.size(); ++i) {
    completions += visit(pool_.instance(i), b, Acquire::kBlock, /*sweep=*/false);
  }
  return completions;
}

std::size_t ProgressEngine::own_first_pass(WhenAllBusy when_all_busy) {
  DrainBatch b;
  const int n = pool_.size();
  const int own = pool_.id_for_thread();
  std::size_t completions = 0;
  bool visited = false;
  // Own instance first; the others (orphaned-CRI liveness) only while the
  // pass has yielded nothing.
  for (int i = 0; i < n && completions == 0; ++i) {
    const std::size_t got =
        visit(pool_.instance((own + i) % n), b, Acquire::kTry, /*sweep=*/i != 0);
    if (got == kBusy) continue;
    visited = true;
    completions = got;
  }
  if (visited || when_all_busy == WhenAllBusy::kReturn) return completions;
  // Every instance busy: stop try-locking and wait out our own instance's
  // holder. Bounded: an instance lock covers ring pops, an injection or an
  // RMA op, never dispatch or user code.
  spc_.add(Counter::kRmaFlushAllBusy);
  return visit(pool_.instance(own), b, Acquire::kTimed, /*sweep=*/false);
}

std::size_t ProgressEngine::progress() {
  spc_.add(Counter::kProgressCalls);
  const std::size_t completions = mode_ == ProgressMode::kSerial
                                      ? progress_serial()
                                      : own_first_pass(WhenAllBusy::kReturn);
  if (completions != 0) spc_.add(Counter::kProgressCompletions, completions);
  return completions;
}

}  // namespace fairmpi::progress
