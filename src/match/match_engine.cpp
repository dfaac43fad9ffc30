#include "fairmpi/match/match_engine.hpp"

#include <bit>
#include <cstring>
#include <limits>

#include "fairmpi/common/error.hpp"
#include "fairmpi/common/timing.hpp"

namespace fairmpi::match {

using spc::Counter;

MatchEngine::MatchEngine(int num_ranks, bool allow_overtaking, spc::CounterSet& counters,
                         bool reliable)
    : allow_overtaking_(allow_overtaking), reliable_(reliable), spc_(counters),
      peers_(static_cast<std::size_t>(num_ranks)) {
  FAIRMPI_CHECK(num_ranks >= 1);
  // Force the one-time TSC calibration now, off the matching path: the
  // first to_ns() call busy-waits ~2 ms, which must not happen under lock_.
  (void)CycleClock::to_ns(1);
}

MatchEngine::~MatchEngine() {
  // Return parked unexpected nodes to the pool so their packets (which may
  // own pooled payload buffers) are destroyed; the slab pool itself frees
  // raw memory wholesale and does not run destructors.
  for (auto& ps : peers_) {
    while (Unexpected* n = ps.unexpected.pop_front()) {
      unexpected_pool_.release(n);
    }
  }
}

void MatchEngine::deliver(spc::CounterSet::Cursor& ctr, p2p::Request* req,
                          const fabric::Packet& pkt) {
  if (pkt.hdr.opcode == fabric::Opcode::kRndvRts) {
    // Rendezvous: the envelope pairs with the receive here (preserving the
    // matching semantics), but the data transfer and the completion are
    // the rendezvous protocol's job.
    FAIRMPI_CHECK_MSG(rndv_hook_ != nullptr, "RndvRts received with no hook installed");
    rndv_hook_->on_rts_matched(req, pkt);
    return;
  }
  p2p::Status status;
  status.source = static_cast<int>(pkt.hdr.src_rank);
  status.tag = pkt.hdr.tag;
  status.size = pkt.hdr.payload_size;
  status.truncated = pkt.hdr.payload_size > req->capacity();
  const std::size_t n =
      status.truncated ? req->capacity() : static_cast<std::size_t>(pkt.hdr.payload_size);
  if (n != 0) std::memcpy(req->buffer(), pkt.payload(), n);
  // Count only when this delivery won the settle race: a request already
  // failed by ft propagation (racing arrival vs. fail_source) must not
  // inflate the delivery counters.
  if (req->complete(status)) {
    ctr.add(Counter::kMessagesReceived);
    ctr.add(Counter::kBytesReceived, pkt.hdr.payload_size);
  }
}

void MatchEngine::note_unexpected_add(PeerState& ps) {
  ++ps.unexpected_n;
  ++unexpected_total_;
  unexpected_mirror_.store(unexpected_total_, std::memory_order_relaxed);
}

void MatchEngine::note_unexpected_sub(PeerState& ps) {
  --ps.unexpected_n;
  --unexpected_total_;
  unexpected_mirror_.store(unexpected_total_, std::memory_order_relaxed);
}

std::size_t MatchEngine::match_one(spc::CounterSet::Cursor& ctr, fabric::Packet&& pkt,
                                   bool direct, Admission* admission) {
  const int src = static_cast<int>(pkt.hdr.src_rank);
  const int tag = pkt.hdr.tag;
  PeerState& ps = peer(src);

  // Queue search: earliest posted receive (by post stamp) whose filters
  // accept this message, across the source-specific and wildcard queues.
  auto accepts = [&](const p2p::Request* req) {
    return req->tag_filter() == p2p::kAnyTag || req->tag_filter() == tag;
  };

  std::size_t scanned = 0;
  p2p::Request* spec = nullptr;
  for (p2p::Request* r = ps.posted.front(); r != nullptr; r = PostedList::next(r)) {
    ++scanned;
    if (accepts(r)) {
      spec = r;
      break;
    }
  }
  p2p::Request* any = nullptr;
  for (p2p::Request* r = posted_any_.front(); r != nullptr; r = PostedList::next(r)) {
    ++scanned;
    if (accepts(r)) {
      any = r;
      break;
    }
  }
  ctr.add(Counter::kPostedQueueDepth, scanned);

  p2p::Request* winner = nullptr;
  if (spec != nullptr && any != nullptr) {
    // Both candidates match: the MPI matching order is post order.
    if (spec->post_stamp < any->post_stamp) {
      ps.posted.erase(spec);
      winner = spec;
    } else {
      posted_any_.erase(any);
      winner = any;
    }
  } else if (spec != nullptr) {
    ps.posted.erase(spec);
    winner = spec;
  } else if (any != nullptr) {
    posted_any_.erase(any);
    winner = any;
  }

  if (winner != nullptr) {
    deliver(ctr, winner, pkt);
    return 1;
  }

  // No posted receive: the message goes unexpected — the resource bounded
  // admission caps (DESIGN.md §5h). The uncapped configuration pays one
  // null-pointer branch here.
  if (gov_ != nullptr) {
    const overload::Limits& lim = gov_->limits();
    if (lim.unexpected_cap != 0 && ps.unexpected_n >= lim.unexpected_cap) {
      if (lim.unexpected_policy == overload::Policy::kShed) {
        if (direct) {
          // Shed at admission. The sequence number stays consumed (the
          // caller already advanced expected_seq), so the retransmit hits
          // the duplicate path — the shed ring there re-NACKs it. The rank
          // answers this packet with kNack instead of an ack, failing the
          // sender's tracked op typed kReceiverOverloaded.
          ps.shed_seqs[ps.shed_n % kShedMemory] = pkt.hdr.seq;
          ++ps.shed_n;
          ctr.add(Counter::kOverloadShedMessages);
          if (tracer_ != nullptr) {
            tracer_->record(trace::Event::kOverloadShed,
                            static_cast<std::uint32_t>(src), pkt.hdr.seq);
          }
          if (admission != nullptr) *admission = Admission::kShed;
          fabric::Packet drop = std::move(pkt);
          static_cast<void>(drop);
          return 0;
        }
        // Reorder-drain packet under kShed: it was already acked when it
        // parked, so shedding now would be silent loss. Admit — the
        // overshoot is bounded by the reorder window.
      } else if (!ps.paused) {
        // kQueue: latch the peer paused; the rank's progress loop trickles
        // its RX drains until post() observes the low watermark. The
        // message itself is admitted — backpressure lands on the
        // producer's ring, not on this already-delivered packet.
        ps.paused = true;
        gov_->pause_peer();
        ctr.add(Counter::kOverloadPausedPeers);
        if (tracer_ != nullptr) {
          tracer_->record(trace::Event::kOverloadPause,
                          static_cast<std::uint32_t>(src), 1);
        }
      }
    }
  }

  ctr.add(Counter::kUnexpectedMessages);
  Unexpected* node = unexpected_pool_.acquire();
  node->arrival = arrival_stamp_++;
  node->pkt = std::move(pkt);
  ps.unexpected.push_back(node);
  note_unexpected_add(ps);
  return 0;
}

void MatchEngine::park_out_of_sequence(spc::CounterSet::Cursor& ctr, PeerState& ps,
                                       fabric::Packet&& pkt) {
  const std::uint32_t seq = pkt.hdr.seq;
  // Unsigned distance from the in-order frontier; callers validated that
  // the packet is from the future, so delta >= 1.
  const std::uint32_t delta = seq - ps.expected_seq;
  if (delta < kReorderWindow) {
    if (!ps.reorder) {
      // First out-of-sequence arrival on this peer; one-time window setup.
      // lint: allow(hotpath-alloc) lazy one-time ring allocation per peer
      ps.reorder = std::make_unique<ReorderRing>();
    }
    const std::uint32_t idx = seq & (kReorderWindow - 1);
    ps.reorder->slot[idx] = std::move(pkt);
    ps.reorder->present |= std::uint64_t{1} << idx;
  } else {
    // More than a window ahead — possible only when >= kReorderWindow-1
    // messages are already parked, so the map cost is already amortized.
    // lint: allow(hotpath-alloc) beyond-window spill is the rare slow path
    ps.spill.emplace(seq, std::move(pkt));
  }
  ++reorder_total_;
  ctr.update_max(Counter::kOosBufferPeak, reorder_total_);
}

std::size_t MatchEngine::incoming(fabric::Packet&& pkt, Admission* admission) {
  const int src = static_cast<int>(pkt.hdr.src_rank);
  FAIRMPI_CHECK_MSG(src >= 0 && src < static_cast<int>(peers_.size()),
                    "packet from unknown rank");

  LockGuard guard(lock_);
  auto ctr = spc_.cursor();
  if (admission != nullptr) *admission = Admission::kAdmitted;
  if (revoked_) {
    // Revoked communicator: nothing will ever be posted again, so parking
    // this message as unexpected would just pin pooled payload memory.
    // Still acked (kAdmitted): the drop is deliberate, not overload.
    fabric::Packet sink = std::move(pkt);
    static_cast<void>(sink);
    return 0;
  }
  // §5h kQueue on a reliable fabric: defer at admission *before* the
  // sequence stream consumes this packet. The rank answers with neither
  // ack nor NACK, so the sender's retransmit clock re-presents it after the
  // queue drains below cap — the unexpected backlog is hard-bounded at the
  // cap and nothing is lost. A lossy fabric cannot defer (an unanswered
  // drop there is silent loss), so it falls through to the latch-and-
  // trickle soft throttle in match_one instead.
  //
  // A packet that would park out of sequence counts the peer's parked
  // packets against the cap too: parked packets were acked at park time,
  // so they are admitted unconditionally once the gap fills, and a burst
  // of retransmits arriving out of order would otherwise grow the queue
  // past any bound. The in-order packet is exempt — it is the one that
  // fills the gap, and deferring it behind parked packets would wedge the
  // stream. The backlog is thereby bounded by 2 * cap.
  if (admission != nullptr && gov_ != nullptr && reliable_) {
    const overload::Limits& lim = gov_->limits();
    PeerState& ps = peer(src);
    std::size_t depth = ps.unexpected_n;
    if (!allow_overtaking_ && pkt.hdr.seq != ps.expected_seq) depth += ps.parked();
    if (lim.unexpected_cap != 0 &&
        lim.unexpected_policy == overload::Policy::kQueue &&
        depth >= lim.unexpected_cap) {
      if (!ps.paused) {
        ps.paused = true;
        gov_->pause_peer();
        ctr.add(Counter::kOverloadPausedPeers);
        if (tracer_ != nullptr) {
          tracer_->record(trace::Event::kOverloadPause,
                          static_cast<std::uint32_t>(src), 1);
        }
      }
      *admission = Admission::kDeferred;
      return 0;
    }
  }
  std::uint64_t cycles = 0;
  std::size_t completions = 0;
  {
    ScopedCycles timer(cycles);
    ctr.add(Counter::kMatchAttempts);

    if (allow_overtaking_) {
      // Overtaking: every message is immediately matchable (§IV-D). On a
      // lossy fabric the seq stream is the only duplicate detector left, so
      // reliable mode filters repeats through the per-peer SeenTracker.
      bool fresh = true;
      if (reliable_) {
        PeerState& ps = peer(src);
        if (!ps.seen) {
          // lint: allow(hotpath-alloc) lazy one-time tracker, lossy mode only
          ps.seen = std::make_unique<SeenTracker>();
        }
        fresh = ps.seen->mark(pkt.hdr.seq);
      }
      if (fresh) {
        completions = match_one(ctr, std::move(pkt), /*direct=*/true, admission);
      } else {
        // The SeenTracker marked the seq when the original arrived — which
        // includes originals that were then shed. Those must be re-NACKed,
        // not re-acked (an ack would retire the sender's tracker entry and
        // the shed would never surface typed).
        if (admission != nullptr && peer(src).was_shed(pkt.hdr.seq)) {
          *admission = Admission::kShedDuplicate;
        } else if (admission != nullptr) {
          *admission = Admission::kDuplicate;
        }
        ctr.add(Counter::kDupDiscards);
      }
    } else {
      PeerState& ps = peer(src);
      const std::uint32_t seq = pkt.hdr.seq;
      if (seq != ps.expected_seq) {
        // Sequence numbers never repeat per (comm, src->dst) stream and the
        // expected counter only advances past processed messages, so an
        // unexpected seq must be from the future — unless the fabric is
        // lossy: a retransmit whose original got through (the ack was the
        // loss) or a wire duplicate re-presents an already-seen seq, which
        // reliable mode discards to keep delivery exactly-once.
        const bool future = static_cast<std::int32_t>(seq - ps.expected_seq) > 0;
        if (reliable_) {
          const std::uint32_t delta = seq - ps.expected_seq;
          const bool parked_in_ring =
              future && delta < kReorderWindow && ps.reorder != nullptr &&
              ((ps.reorder->present >> (seq & (kReorderWindow - 1))) & 1) != 0;
          const bool parked_in_spill =
              future && delta >= kReorderWindow && ps.spill.contains(seq);
          if (!future || parked_in_ring || parked_in_spill) {
            // A shed consumes its seq (expected_seq advanced past it), so a
            // retransmit of a shed packet lands here as !future. Re-NACK it
            // from the shed ring; any other repeat re-acks as a duplicate.
            if (admission != nullptr && !future && ps.was_shed(seq)) {
              *admission = Admission::kShedDuplicate;
            } else if (admission != nullptr) {
              *admission = Admission::kDuplicate;
            }
            ctr.add(Counter::kDupDiscards);
          } else {
            ctr.add(Counter::kOutOfSequence);
            park_out_of_sequence(ctr, ps, std::move(pkt));
          }
        } else {
          FAIRMPI_CHECK_MSG(future, "duplicate or stale sequence number");
          ctr.add(Counter::kOutOfSequence);
          park_out_of_sequence(ctr, ps, std::move(pkt));
        }
      } else {
        ++ps.expected_seq;
        completions += match_one(ctr, std::move(pkt), /*direct=*/true, admission);
        // Drain parked messages that are now in order: ring first (the
        // common case — one shift+test per message), then the spill map.
        // Drained packets were acked when they parked, so they pass
        // direct=false (never shed) and report no admission verdict.
        ReorderRing* ring = ps.reorder.get();
        for (;;) {
          const std::uint32_t e = ps.expected_seq;
          const std::uint32_t idx = e & (kReorderWindow - 1);
          if (ring != nullptr && (ring->present >> idx) & 1) {
            ring->present &= ~(std::uint64_t{1} << idx);
            fabric::Packet next = std::move(ring->slot[idx]);
            --reorder_total_;
            ++ps.expected_seq;
            completions += match_one(ctr, std::move(next), /*direct=*/false, nullptr);
            continue;
          }
          if (!ps.spill.empty()) {
            auto it = ps.spill.find(e);
            if (it != ps.spill.end()) {
              fabric::Packet next = std::move(it->second);
              ps.spill.erase(it);
              --reorder_total_;
              ++ps.expected_seq;
              completions += match_one(ctr, std::move(next), /*direct=*/false, nullptr);
              continue;
            }
          }
          break;
        }
      }
    }
  }
  ctr.add(Counter::kMatchTimeNs, CycleClock::to_ns(cycles));
  return completions;
}

bool MatchEngine::post(p2p::Request* req) {
  FAIRMPI_CHECK(req->kind() == p2p::Request::Kind::kRecv);
  const int src = req->source_filter();
  const int tag = req->tag_filter();
  FAIRMPI_CHECK_MSG(src == p2p::kAnySource ||
                        (src >= 0 && src < static_cast<int>(peers_.size())),
                    "invalid source filter");

  LockGuard guard(lock_);
  auto ctr = spc_.cursor();
  if (revoked_) {
    // Checked under the match lock — the authoritative revocation gate. A
    // poster that read CommState::revoked() as false just before revoke()
    // landed must still fail here, never enqueue (it would hang forever:
    // fail_all_posted already swept the queues).
    if (req->fail(common::ErrorCode::kCommRevoked)) {
      ctr.add(Counter::kFtRevokedOps);
    }
    return true;
  }
  std::uint64_t cycles = 0;
  bool matched = false;
  {
    ScopedCycles timer(cycles);
    ctr.add(Counter::kMatchAttempts);

    auto accepts = [&](const Unexpected* u) {
      return tag == p2p::kAnyTag || tag == u->pkt.hdr.tag;
    };

    // Search the unexpected queue(s) for the earliest-arrived match.
    PeerState* best_ps = nullptr;
    Unexpected* best = nullptr;
    std::uint64_t best_arrival = std::numeric_limits<std::uint64_t>::max();
    std::size_t scanned = 0;

    auto scan_peer = [&](PeerState& ps) {
      for (Unexpected* u = ps.unexpected.front(); u != nullptr;
           u = UnexpectedList::next(u)) {
        ++scanned;
        if (accepts(u)) {
          if (u->arrival < best_arrival) {
            best_arrival = u->arrival;
            best_ps = &ps;
            best = u;
          }
          break;  // within one peer, earliest match is the first match
        }
      }
    };

    if (src == p2p::kAnySource) {
      for (auto& ps : peers_) scan_peer(ps);
    } else {
      scan_peer(peer(src));
    }
    ctr.add(Counter::kUnexpectedQueueDepth, scanned);

    if (best != nullptr) {
      const int consumed_src = static_cast<int>(best->pkt.hdr.src_rank);
      deliver(ctr, req, best->pkt);
      best_ps->unexpected.erase(best);
      unexpected_pool_.release(best);
      note_unexpected_sub(*best_ps);
      // kQueue re-admission: unlatch once the peer drained to the low
      // watermark (hysteresis — not at cap-1, or the latch would flap).
      if (best_ps->paused && gov_ != nullptr) {
        const overload::Limits& lim = gov_->limits();
        if (best_ps->unexpected_n * 100 <=
            static_cast<std::size_t>(lim.low_pct) * lim.unexpected_cap) {
          best_ps->paused = false;
          gov_->resume_peer();
          if (tracer_ != nullptr) {
            tracer_->record(trace::Event::kOverloadPause,
                            static_cast<std::uint32_t>(consumed_src), 0);
          }
        }
      }
      matched = true;
    } else if (src != p2p::kAnySource && peer(src).dead) {
      // ft fail-fast: nothing matchable remains from a confirmed-dead
      // source and nothing more can arrive — enqueueing would hang the
      // receiver forever. ANY_SOURCE receives still enqueue: a live peer
      // may satisfy them.
      if (req->fail(common::ErrorCode::kPeerFailed)) {
        ctr.add(Counter::kFtPeerFailedOps);
      }
      matched = true;  // completed immediately, albeit with an error
    } else {
      req->post_stamp = post_stamp_++;
      // Route cancels through this engine while the request is linked
      // (cancel-vs-match settles under lock_, exactly once). Installed
      // before the request becomes matchable; the caller still holds it.
      req->set_cancel_scope(this);
      if (src == p2p::kAnySource) {
        posted_any_.push_back(req);
      } else {
        peer(src).posted.push_back(req);
      }
      // Deadline gate: keep next_deadline_ a lower bound for every posted
      // deadline so expire_deadlines costs one relaxed load when idle.
      const std::uint64_t dl = req->deadline();
      if (dl != 0) {
        std::uint64_t cur = next_deadline_.load(std::memory_order_relaxed);
        while (dl < cur && !next_deadline_.compare_exchange_weak(
                               cur, dl, std::memory_order_relaxed)) {
        }
      }
    }
  }
  ctr.add(Counter::kMatchTimeNs, CycleClock::to_ns(cycles));
  return matched;
}

bool MatchEngine::probe(int src, int tag, p2p::Status* status) {
  FAIRMPI_CHECK_MSG(src == p2p::kAnySource ||
                        (src >= 0 && src < static_cast<int>(peers_.size())),
                    "invalid source filter");
  LockGuard guard(lock_);

  auto accepts = [&](const Unexpected* u) {
    return tag == p2p::kAnyTag || tag == u->pkt.hdr.tag;
  };
  const Unexpected* best = nullptr;
  auto scan_peer = [&](const PeerState& ps) {
    for (const Unexpected* u = ps.unexpected.front(); u != nullptr;
         u = UnexpectedList::next(u)) {
      if (accepts(u)) {
        if (best == nullptr || u->arrival < best->arrival) best = u;
        break;
      }
    }
  };
  if (src == p2p::kAnySource) {
    for (const auto& ps : peers_) scan_peer(ps);
  } else {
    scan_peer(peers_[static_cast<std::size_t>(src)]);
  }
  if (best == nullptr) return false;

  if (status != nullptr) {
    status->source = static_cast<int>(best->pkt.hdr.src_rank);
    status->tag = best->pkt.hdr.tag;
    status->size = best->pkt.hdr.opcode == fabric::Opcode::kRndvRts
                       ? p2p::read_rts_body(best->pkt).total
                       : best->pkt.hdr.payload_size;
    status->truncated = false;
  }
  return true;
}

std::size_t MatchEngine::fail_source(int src) {
  FAIRMPI_CHECK_MSG(src >= 0 && src < static_cast<int>(peers_.size()),
                    "invalid source rank");
  LockGuard guard(lock_);
  auto ctr = spc_.cursor();
  PeerState& ps = peer(src);
  ps.dead = true;

  // Sever the reorder stream: parked out-of-sequence packets can never
  // drain (the gaps below them died with the sender), so they would pin
  // reorder_total_ and leak pooled payloads until teardown.
  if (ps.reorder != nullptr) {
    while (ps.reorder->present != 0) {
      const std::uint32_t idx =
          static_cast<std::uint32_t>(std::countr_zero(ps.reorder->present));
      ps.reorder->present &= ~(std::uint64_t{1} << idx);
      fabric::Packet drop = std::move(ps.reorder->slot[idx]);
      static_cast<void>(drop);
      --reorder_total_;
    }
  }
  reorder_total_ -= ps.spill.size();
  ps.spill.clear();

  // Fail every source-specific posted receive; count on settle win only.
  std::size_t failed = 0;
  while (p2p::Request* r = ps.posted.pop_front()) {
    if (r->fail(common::ErrorCode::kPeerFailed)) {
      ctr.add(Counter::kFtPeerFailedOps);
      ++failed;
    }
  }
  return failed;
}

std::size_t MatchEngine::fail_all_posted() {
  LockGuard guard(lock_);
  auto ctr = spc_.cursor();
  revoked_ = true;
  std::size_t failed = 0;
  const auto drain = [&](PostedList& list) {
    while (p2p::Request* r = list.pop_front()) {
      if (r->fail(common::ErrorCode::kCommRevoked)) {
        ctr.add(Counter::kFtRevokedOps);
        ++failed;
      }
    }
  };
  for (auto& ps : peers_) drain(ps.posted);
  drain(posted_any_);
  return failed;
}

std::size_t MatchEngine::expire_deadlines(std::uint64_t now_ns) {
  // One relaxed load answers the common case: nothing posted has a
  // deadline, or the earliest one is still in the future.
  // lint: allow(relaxed-sync) sweep-cadence gate only; authoritative state is under lock_
  if (next_deadline_.load(std::memory_order_relaxed) > now_ns) return 0;

  LockGuard guard(lock_);
  auto ctr = spc_.cursor();
  std::uint64_t next = ~std::uint64_t{0};
  std::size_t expired = 0;
  const auto sweep = [&](PostedList& list) {
    p2p::Request* r = list.front();
    while (r != nullptr) {
      p2p::Request* nxt = PostedList::next(r);
      const std::uint64_t dl = r->deadline();
      if (dl != 0 && dl <= now_ns) {
        list.erase(r);
        if (r->fail(common::ErrorCode::kDeadlineExceeded)) {
          ctr.add(Counter::kDeadlineExceededOps);
          if (tracer_ != nullptr) {
            tracer_->record(trace::Event::kDeadline,
                            static_cast<std::uint32_t>(r->source_filter() + 1),
                            static_cast<std::uint32_t>(r->tag_filter()));
          }
          ++expired;
        }
      } else if (dl != 0 && dl < next) {
        next = dl;
      }
      r = nxt;
    }
  };
  for (auto& ps : peers_) sweep(ps.posted);
  sweep(posted_any_);
  next_deadline_.store(next, std::memory_order_relaxed);
  return expired;
}

bool MatchEngine::cancel_request(p2p::Request* req) {
  const int src = req->source_filter();
  FAIRMPI_CHECK_MSG(src == p2p::kAnySource ||
                        (src >= 0 && src < static_cast<int>(peers_.size())),
                    "cancel of a request this engine never posted");
  LockGuard guard(lock_);
  auto ctr = spc_.cursor();
  // Settle only while the request is verifiably still linked: a matcher
  // that consumed it (under this same lock) already owns the completion,
  // and a cancel must never turn a delivered message into a lost one.
  PostedList& list = src == p2p::kAnySource ? posted_any_ : peer(src).posted;
  for (p2p::Request* r = list.front(); r != nullptr; r = PostedList::next(r)) {
    if (r != req) continue;
    list.erase(req);
    if (req->fail(common::ErrorCode::kCancelled)) {
      ctr.add(Counter::kCancelledOps);
      if (tracer_ != nullptr) {
        tracer_->record(trace::Event::kCancel,
                        static_cast<std::uint32_t>(src + 1),
                        static_cast<std::uint32_t>(req->tag_filter()));
      }
      return true;
    }
    return false;
  }
  return false;
}

std::size_t MatchEngine::unexpected_count() const noexcept {
  LockGuard guard(lock_);
  return unexpected_total_;
}

std::size_t MatchEngine::reorder_buffered() const noexcept {
  LockGuard guard(lock_);
  return reorder_total_;
}

std::size_t MatchEngine::posted_count() const noexcept {
  LockGuard guard(lock_);
  std::size_t n = posted_any_.size();
  for (const auto& ps : peers_) n += ps.posted.size();
  return n;
}

}  // namespace fairmpi::match
