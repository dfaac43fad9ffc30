#include "fairmpi/match/match_engine.hpp"

#include <bit>
#include <cstring>
#include <initializer_list>

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
    for (auto& list : ps.unexpected) {
      while (Unexpected* n = list.pop_front()) unexpected_pool_.release(n);
    }
  }
}

MatchEngine::PostedList& MatchEngine::posted_list(int src, int tag) {
  if (src == p2p::kAnySource) return posted_any_;
  PeerState& ps = peer(src);
  return tag == p2p::kAnyTag ? ps.posted_any_tag : ps.posted[bin_of(tag)];
}

MatchEngine::Unexpected* MatchEngine::find_unexpected(int src, int tag,
                                                      std::size_t& scanned) {
  Unexpected* best = nullptr;
  auto offer = [&](Unexpected* u) {
    if (best == nullptr || u->arrival < best->arrival) best = u;
  };
  // Within one bin arrival order is list order, so the first match is the
  // earliest; an ANY_TAG receive accepts every bin's front.
  auto scan_source = [&](PeerState& ps) {
    if (tag == p2p::kAnyTag) {
      for (auto& list : ps.unexpected) {
        if (Unexpected* u = list.front()) {
          ++scanned;
          offer(u);
        }
      }
      return;
    }
    for (Unexpected* u = ps.unexpected[bin_of(tag)].front(); u != nullptr;
         u = UnexpectedList::next(u)) {
      ++scanned;
      if (u->pkt.hdr.tag == tag) {
        offer(u);
        return;
      }
    }
  };
  if (src == p2p::kAnySource) {
    for (auto& ps : peers_) scan_source(ps);
  } else {
    scan_source(peer(src));
  }
  return best;
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

  // Queue search: the earliest posted receive (by post stamp) whose
  // filters accept this message. Each list is in post order, so its first
  // acceptor is its candidate; the lowest stamp over the candidates wins.
  std::size_t scanned = 0;
  auto first_acceptor = [&](PostedList& list) -> p2p::Request* {
    for (p2p::Request* r = list.front(); r != nullptr; r = PostedList::next(r)) {
      ++scanned;
      if (r->tag_filter() == tag || r->tag_filter() == p2p::kAnyTag) return r;
    }
    return nullptr;
  };
  const std::size_t bin = bin_of(tag);
  PostedList* win_list = &ps.posted[bin];
  p2p::Request* winner = first_acceptor(*win_list);
  for (PostedList* list : {&ps.posted_any_tag, &posted_any_}) {
    p2p::Request* r = first_acceptor(*list);
    if (r != nullptr && (winner == nullptr || r->post_stamp < winner->post_stamp)) {
      winner = r;
      win_list = list;
    }
  }
  ctr.add(Counter::kPostedQueueDepth, scanned);

  if (winner != nullptr) {
    win_list->erase(winner);
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
  ps.unexpected[bin].push_back(node);
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
    settle(ctr, req, common::ErrorCode::kCommRevoked);
    return true;
  }
  std::uint64_t cycles = 0;
  bool matched = false;
  {
    ScopedCycles timer(cycles);
    ctr.add(Counter::kMatchAttempts);

    // Search the unexpected bins for the earliest-arrived match.
    std::size_t scanned = 0;
    Unexpected* best = find_unexpected(src, tag, scanned);
    ctr.add(Counter::kUnexpectedQueueDepth, scanned);

    if (best != nullptr) {
      const int consumed_src = static_cast<int>(best->pkt.hdr.src_rank);
      PeerState& best_ps = peer(consumed_src);
      deliver(ctr, req, best->pkt);
      best_ps.unexpected[bin_of(best->pkt.hdr.tag)].erase(best);
      unexpected_pool_.release(best);
      note_unexpected_sub(best_ps);
      // kQueue re-admission: unlatch once the peer drained to the low
      // watermark (hysteresis — not at cap-1, or the latch would flap).
      if (best_ps.paused && gov_ != nullptr) {
        if (best_ps.unexpected_n * 100 <=
            static_cast<std::size_t>(overload::kLowPct) * gov_->limits().unexpected_cap) {
          best_ps.paused = false;
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
      settle(ctr, req, common::ErrorCode::kPeerFailed);
      matched = true;  // completed immediately, albeit with an error
    } else {
      req->post_stamp = post_stamp_++;
      // Route cancels through this engine while the request is linked
      // (cancel-vs-match settles under lock_, exactly once). Installed
      // before the request becomes matchable; the caller still holds it.
      req->set_cancel_scope(this);
      // Arm the rank's due time before the receive is linked: the deadline
      // sweep takes lock_ too, so it either sees the receive or runs after
      // this arm (timing.hpp).
      if (req->deadline() != 0 && due_ != nullptr) lower_due(*due_, req->deadline());
      posted_list(src, tag).push_back(req);
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
  std::size_t scanned = 0;
  const Unexpected* best = find_unexpected(src, tag, scanned);
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

bool MatchEngine::settle(spc::CounterSet::Cursor& ctr, p2p::Request* req,
                         common::ErrorCode code) {
  if (!req->fail(code)) return false;
  const p2p::SettleAccount acct = p2p::settle_account(code);
  if (acct.counter != Counter::kCount) ctr.add(acct.counter);
  if (acct.event != trace::Event::kNone && tracer_ != nullptr) {
    tracer_->record(acct.event, static_cast<std::uint32_t>(req->source_filter() + 1),
                    static_cast<std::uint32_t>(req->tag_filter()));
  }
  return true;
}

template <class Pick>
std::size_t MatchEngine::settle_list(spc::CounterSet::Cursor& ctr, PostedList& list,
                                     common::ErrorCode code, Pick pick) {
  std::size_t settled = 0;
  for (p2p::Request* r = list.front(); r != nullptr;) {
    p2p::Request* const nxt = PostedList::next(r);
    if (pick(r)) {
      list.erase(r);
      if (settle(ctr, r, code)) ++settled;
    }
    r = nxt;
  }
  return settled;
}

template <class Pick>
std::size_t MatchEngine::settle_posted(spc::CounterSet::Cursor& ctr, common::ErrorCode code,
                                       Pick pick) {
  std::size_t settled = 0;
  for (auto& ps : peers_) {
    for (auto& list : ps.posted) settled += settle_list(ctr, list, code, pick);
    settled += settle_list(ctr, ps.posted_any_tag, code, pick);
  }
  return settled + settle_list(ctr, posted_any_, code, pick);
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

  const auto all = [](const p2p::Request*) { return true; };
  std::size_t failed = 0;
  for (auto& list : ps.posted) {
    failed += settle_list(ctr, list, common::ErrorCode::kPeerFailed, all);
  }
  return failed + settle_list(ctr, ps.posted_any_tag, common::ErrorCode::kPeerFailed, all);
}

std::size_t MatchEngine::fail_all_posted() {
  LockGuard guard(lock_);
  auto ctr = spc_.cursor();
  revoked_ = true;
  return settle_posted(ctr, common::ErrorCode::kCommRevoked,
                       [](const p2p::Request*) { return true; });
}

std::uint64_t MatchEngine::expire_deadlines(std::uint64_t now_ns) {
  LockGuard guard(lock_);
  auto ctr = spc_.cursor();
  std::uint64_t next = kNever;
  settle_posted(ctr, common::ErrorCode::kDeadlineExceeded, [&](const p2p::Request* r) {
    const std::uint64_t dl = r->deadline();
    if (dl > now_ns && dl < next) next = dl;
    return dl != 0 && dl <= now_ns;
  });
  return next;
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
  return settle_list(ctr, posted_list(src, req->tag_filter()), common::ErrorCode::kCancelled,
                     [req](const p2p::Request* r) { return r == req; }) == 1;
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
  for (const auto& ps : peers_) {
    n += ps.posted_any_tag.size();
    for (const auto& list : ps.posted) n += list.size();
  }
  return n;
}

}  // namespace fairmpi::match
