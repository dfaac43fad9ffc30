// Simulated network fabric.
//
// Substitution for InfiniBand EDR / Cray Aries (DESIGN.md §4): an in-process
// fabric that provides the *structural* resources the paper's CRI design
// replicates — per-context RX queues and completion queues — and the same
// arbitrary cross-context arrival order real networks exhibit.
//
// Topology model: every rank owns a NIC with `n` network contexts, and a
// sender context can reach ANY context of a peer — one endpoint per
// (context, peer, peer context), the analog of a QP per endpoint pair. The
// sender picks the destination context. Until it knows better it uses the
// static cold-start route, context `i` -> the peer's context `i mod n_B`
// (Fabric::route). Once the peer has sent on a (communicator, peer) stream,
// the engine steers that stream into the context the peer sent from, which
// is the one the peer's thread progresses (DESIGN.md "Stream steering").
// A receiver progressing context `j` only sees traffic injected toward
// `j`; when senders spread over many contexts, messages from one stream
// arrive interleaved across rings, which is precisely the out-of-sequence
// pressure §II-C describes.
//
// RX lane decomposition (DESIGN.md §5f): a context's RX queue is not one
// shared MPSC ring but an array of SPSC *lanes*, one per (src_rank,
// src_ctx) source stream of the universe — the moral equivalent of one QP
// per endpoint pair in Zambre et al.'s scalable-endpoints design. Every
// production injection into lane (r, c) happens while holding source
// instance (r, c)'s lock (Endpoint::try_send callers go through
// CommResourceInstance::endpoint(), which is REQUIRES(lock_)), so each lane
// has exactly one producer at a time and enqueue needs NO atomic RMW. Two
// source contexts never share a lane: with steering both may target the
// same destination context, and a shared lane would then have two
// producers under different locks. The drain side sweeps lanes round-robin
// under the destination CRI lock, preserving the single-consumer
// discipline. Per-(src, ctx, dst ctx) FIFO is preserved; cross-stream
// interleaving was already arbitrary.
//
// Capacity semantics: FabricParams::rx_ring_entries is the PER-LANE depth —
// a per-source credit window, as real NICs bound in-flight traffic per QP —
// so a slow stream backpressures its own sender without stealing credits
// from other streams. A lane allocates that storage on its first push
// (SpscRing), so the many lanes no stream ever uses cost no slot memory.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/error.hpp"
#include "fairmpi/common/spsc_ring.hpp"
#include "fairmpi/fabric/faults.hpp"
#include "fairmpi/fabric/wire.hpp"

namespace fairmpi::fabric {

/// Sizing knobs for the fabric.
struct FabricParams {
  /// Per-lane RX depth (per-source credit window). Kept at the old shared-
  /// ring depth on purpose: a shallower per-lane window regresses bursty
  /// single-stream workloads — on the 1-core host a sender thread can fill
  /// a 512-entry lane within one scheduling quantum, and the backpressured
  /// retries land with stale sequence numbers (measured: ~860k out-of-
  /// sequence arrivals and -30% incast message rate at 512 vs ~300 at
  /// 4096). The footprint now scales with lane count (lanes x entries x
  /// sizeof(Packet)) of the lanes that carried traffic; memory-constrained
  /// runs shrink it in their Config, or with FAIRMPI_RX_RING_ENTRIES through
  /// config_from_env (a design knob: Universe ignores it in the environment).
  std::size_t rx_ring_entries = 4096;
  std::size_t cq_entries = 4096;       ///< per-context completion queue
};

/// Source-stream geometry a NIC needs to size its contexts' RX lanes.
struct RxLayout {
  int num_ranks = 1;
  int max_src_contexts = 1;  ///< max contexts on any rank's NIC
};

/// Destination-context argument meaning "no steering hint yet": take the
/// cold-start route (Fabric::route).
inline constexpr int kStaticRoute = -1;

/// A completion event on a context's CQ. Two-sided sends complete at
/// injection (eager, buffered semantics) or through the rendezvous protocol's
/// packets; the CQ carries the completions of one-sided operations.
struct Completion {
  enum class Kind : std::uint8_t { kNone = 0, kRmaDone };
  Kind kind = Kind::kNone;
  void* cookie = nullptr;  ///< kRmaDone: the initiator's pending-op counter
};

/// A context's receive queue: SPSC lanes indexed by source stream, drained
/// round-robin by the single consumer (the thread holding the owning CRI's
/// lock). Producers must hold the *source* instance's lock — that lock is
/// what serializes each lane (see file header).
class RxQueue {
 public:
  RxQueue(const RxLayout& layout, std::size_t entries_per_lane)
      : src_contexts_(layout.max_src_contexts < 1 ? 1 : layout.max_src_contexts) {
    const int n = (layout.num_ranks < 1 ? 1 : layout.num_ranks) * src_contexts_;
    lanes_.reserve(static_cast<std::size_t>(n));  // lint: allow(hotpath-alloc) ctor
    for (int i = 0; i < n; ++i) {
      lanes_.push_back(std::make_unique<SpscRing<Packet>>(entries_per_lane));
    }
  }

  /// Lane carrying stream (src_rank, src_ctx): one per source stream.
  /// Out-of-range streams (tests minting arbitrary headers) fold modulo the
  /// lane count — safe there because such pushes are single-threaded by
  /// construction.
  std::size_t lane_for(int src_rank, int src_ctx) const noexcept {
    const auto lane = static_cast<std::size_t>(src_rank) * static_cast<std::size_t>(src_contexts_) +
                      static_cast<std::size_t>(src_ctx);
    return lane < lanes_.size() ? lane : lane % lanes_.size();
  }

  /// Enqueue on a specific lane; false when that lane's credits are spent.
  /// Caller must be the lane's (serialized) producer.
  bool try_push_lane(std::size_t lane, Packet&& pkt) noexcept {
    return lanes_[lane]->try_push(std::move(pkt));
  }

  /// Stable pointer to a lane's ring, so an Endpoint can skip the
  /// vector + unique_ptr indirections on every send. Lanes are created in
  /// the constructor and never reallocated (their slots come on first push).
  SpscRing<Packet>* lane_ring(std::size_t lane) noexcept {
    return lanes_[lane].get();
  }

  /// Enqueue, deriving the lane from the packet's own header. Convenience
  /// for tests that push hand-built packets; production traffic goes
  /// through Endpoint, which caches the lane.
  bool try_push(Packet&& pkt) noexcept {
    return try_push_lane(lane_for(pkt.hdr.src_rank, pkt.hdr.src_ctx), std::move(pkt));
  }

  /// Dequeue up to `max_n` packets, sweeping each lane at most once.
  /// Single consumer. The cursor persists across calls so a hot lane
  /// cannot starve the others.
  std::size_t try_pop_n(Packet* out, std::size_t max_n) noexcept {
    const std::size_t lanes = lanes_.size();
    std::size_t n = 0;
    for (std::size_t i = 0; i < lanes && n < max_n; ++i) {
      n += lanes_[cursor_]->try_pop_n(out + n, max_n - n);
      if (n >= max_n) break;  // lane still hot: resume here next drain
      cursor_ = cursor_ + 1 == lanes ? 0 : cursor_ + 1;
    }
    return n;
  }

  /// Total packets ever enqueued (sum of lane push cursors).
  std::uint64_t pushed_total() const noexcept {
    std::uint64_t n = 0;
    for (const auto& lane : lanes_) n += lane->pushed_approx();
    return n;
  }

  /// Approximate occupancy across all lanes.
  std::size_t size_approx() const noexcept {
    std::size_t n = 0;
    for (const auto& lane : lanes_) n += lane->size_approx();
    return n;
  }

  bool empty_approx() const noexcept { return size_approx() == 0; }

  std::size_t num_lanes() const noexcept { return lanes_.size(); }
  /// Per-lane depth (the per-source credit window).
  std::size_t lane_capacity() const noexcept { return lanes_[0]->capacity(); }

 private:
  const int src_contexts_;  ///< lanes per source rank: max contexts on any NIC
  std::vector<std::unique_ptr<SpscRing<Packet>>> lanes_;
  std::size_t cursor_ = 0;  ///< consumer-owned; CRI lock hands it off
};

/// One network context: the unit of resource replication inside a CRI.
/// Owns an RX queue (per-source SPSC lanes, locally-locked consumer) and a
/// CQ. The CQ is one SpscRing: its producer (an RMA op posting a
/// completion) and its consumer (a drain, or the overrun harvest in
/// rma::Window::post_completion) both run under the owning instance's lock,
/// so that lock serializes each side as it does an RX lane's.
class NetworkContext {
 public:
  NetworkContext(int rank, int index, const RxLayout& layout, const FabricParams& params)
      : rank_(rank),
        index_(index),
        rx_(layout, params.rx_ring_entries),
        cq_(params.cq_entries) {}

  int rank() const noexcept { return rank_; }
  int index() const noexcept { return index_; }

  RxQueue& rx() noexcept { return rx_; }
  SpscRing<Completion>& cq() noexcept { return cq_; }

  /// Count of packets ever delivered into this context (diagnostics).
  /// Derived from the lanes' push cursors — every successful push IS a
  /// delivery, so maintaining a separate fetch_add per packet on the
  /// injection path bought nothing but an extra contended RMW.
  std::uint64_t delivered() const noexcept { return rx_.pushed_total(); }

 private:
  const int rank_;
  const int index_;
  RxQueue rx_;
  SpscRing<Completion> cq_;
};

/// A rank's NIC: the bundle of contexts the CRI pool hands out.
class Nic {
 public:
  Nic(int rank, int num_contexts, const RxLayout& layout, const FabricParams& params)
      : rank_(rank) {
    FAIRMPI_CHECK(num_contexts >= 1);
    contexts_.reserve(static_cast<std::size_t>(num_contexts));
    for (int i = 0; i < num_contexts; ++i) {
      contexts_.push_back(
          std::make_unique<NetworkContext>(rank, i, layout, params));
    }
  }

  int rank() const noexcept { return rank_; }
  int num_contexts() const noexcept { return static_cast<int>(contexts_.size()); }
  NetworkContext& context(int i) { return *contexts_[static_cast<std::size_t>(i)]; }
  const NetworkContext& context(int i) const { return *contexts_[static_cast<std::size_t>(i)]; }

 private:
  const int rank_;
  std::vector<std::unique_ptr<NetworkContext>> contexts_;
};

/// The switch connecting all NICs of a universe.
class Fabric {
 public:
  /// `contexts_per_rank[r]` = number of contexts on rank r's NIC.
  Fabric(const std::vector<int>& contexts_per_rank, FabricParams params = {})
      : params_(params) {
    RxLayout layout;
    layout.num_ranks = static_cast<int>(contexts_per_rank.size());
    for (const int n : contexts_per_rank) {
      if (n > layout.max_src_contexts) layout.max_src_contexts = n;
    }
    nics_.reserve(contexts_per_rank.size());
    for (std::size_t r = 0; r < contexts_per_rank.size(); ++r) {
      nics_.push_back(std::make_unique<Nic>(static_cast<int>(r), contexts_per_rank[r],
                                            layout, params_));
    }
  }

  int num_ranks() const noexcept { return static_cast<int>(nics_.size()); }
  Nic& nic(int rank) { return *nics_[static_cast<std::size_t>(rank)]; }

  /// Cold-start route: the RX context on `dst_rank` that sender context
  /// `src_ctx` feeds until the engine has a steering hint for the stream
  /// (DESIGN.md "Stream steering"). Resolved once per endpoint table, so
  /// the modulo stays off the injection path.
  int route(int dst_rank, int src_ctx) const noexcept {
    const int n = nics_[static_cast<std::size_t>(dst_rank)]->num_contexts();
    return src_ctx < n ? src_ctx : src_ctx % n;
  }

  /// Inject a packet from stream (src_rank, src_ctx) toward `dst_rank`,
  /// over the cold-start route (tests and single-threaded tools).
  /// Returns false when the stream's lane is out of credits — the caller
  /// must back off (drop the CRI lock, progress, retry); see Rank::eager_send.
  /// With checksums enabled every packet is stamped here, *before* fault
  /// injection, so in-flight corruption is detectable at the receiver.
  /// Callers must be the stream's serialized producer (the source instance
  /// lock); Endpoint::try_send is the production entry and caches the
  /// routing below.
  bool try_deliver(int dst_rank, int src_rank, int src_ctx, Packet&& pkt) {
    NetworkContext& ctx = nic(dst_rank).context(route(dst_rank, src_ctx));
    const std::size_t lane = ctx.rx().lane_for(src_rank, src_ctx);
    if (plain_path_) return ctx.rx().try_push_lane(lane, std::move(pkt));
    return deliver_slow(ctx, lane, dst_rank, std::move(pkt));
  }

  /// Reliability/fault path shared by try_deliver and the lane-cached
  /// Endpoint fast path: checksum stamping and the link fault model.
  bool deliver_slow(NetworkContext& ctx, std::size_t lane, int dst_rank, Packet&& pkt) {
    if (checksums_) stamp_checksum(pkt);
    if (injector_ == nullptr) return ctx.rx().try_push_lane(lane, std::move(pkt));
    return deliver_faulty(ctx, lane, dst_rank, std::move(pkt));
  }

  /// Enable checksum stamping and (when params.any()) fault injection.
  /// `force_injector` builds the injector even with all-zero probabilities —
  /// the ft layer needs its peer-death mode (kill_rank) available on an
  /// otherwise pristine fabric. Call before traffic flows; not thread-safe
  /// against concurrent sends.
  void configure_reliability(const FaultParams& faults, bool checksums,
                             bool force_injector = false) {
    checksums_ = checksums;
    if (faults.any() || force_injector) {
      injector_ = std::make_unique<FaultInjector>(num_ranks(), faults);
    }
    plain_path_ = !checksums_ && injector_ == nullptr;
  }

  FaultInjector* injector() noexcept { return injector_.get(); }
  bool checksums() const noexcept { return checksums_; }
  /// True when injection can bypass checksums and fault modeling.
  bool plain_path() const noexcept { return plain_path_; }

  const FabricParams& params() const noexcept { return params_; }

 private:
  /// Slow path: run the packet through the link's fault model and push the
  /// resulting batch. Only a full lane under the *primary* packet reports
  /// backpressure; lost duplicates/releases are ordinary wire losses. The
  /// whole batch lands on the caller's lane (the caller is its serialized
  /// producer) — a parked-then-released reordered packet may therefore hop
  /// streams, which is exactly the cross-stream reordering the fault model
  /// exists to produce.
  bool deliver_faulty(NetworkContext& ctx, std::size_t lane, int dst_rank, Packet&& pkt) {
    const int src = static_cast<int>(pkt.hdr.src_rank);
    FaultInjector::Batch batch;
    injector_->process(src, dst_rank, std::move(pkt), batch);
    bool ok = true;
    for (std::size_t i = 0; i < batch.n; ++i) {
      const bool is_primary = static_cast<int>(i) == batch.primary;
      if (ctx.rx().try_push_lane(lane, std::move(batch.pkts[i]))) {
        // delivered() is derived from the lanes' push cursors; nothing to do.
      } else if (is_primary) {
        pkt = std::move(batch.pkts[i]);  // hand it back for the retry
        ok = false;
      } else {
        injector_->stats().ring_losses.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return ok;
  }

  FabricParams params_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::unique_ptr<FaultInjector> injector_;
  bool checksums_ = false;
  bool plain_path_ = true;
};

/// A (context, peer, peer context) pairing — the sender-side handle a CRI
/// uses to reach one context of one destination rank, mirroring one
/// endpoint/QP per endpoint pair. The destination context and lane are
/// resolved ONCE here: re-walking nic/context/lane tables per packet cost
/// several dependent loads on the hottest path in the codebase. Steering
/// picks among a CRI's endpoints; an endpoint itself never re-routes.
class Endpoint {
 public:
  Endpoint(Fabric& fabric, NetworkContext& local, int dst_rank, int dst_ctx) noexcept
      : fabric_(&fabric),
        dst_ctx_(&fabric.nic(dst_rank).context(dst_ctx)),
        dst_rank_(dst_rank),
        lane_(dst_ctx_->rx().lane_for(local.rank(), local.index())),
        ring_(dst_ctx_->rx().lane_ring(lane_)),
        src_ctx_(static_cast<std::uint16_t>(local.index())) {}

  int dst_rank() const noexcept { return dst_rank_; }
  int dst_ctx() const noexcept { return dst_ctx_->index(); }

  /// Injects; false on backpressure. Caller must be this endpoint's
  /// serialized producer — production callers reach here through
  /// CommResourceInstance::endpoint(), which requires the instance lock.
  bool try_send(Packet&& pkt) {
    pkt.hdr.src_ctx = src_ctx_;
    if (fabric_->plain_path()) {
      return ring_->try_push(std::move(pkt));
    }
    return fabric_->deliver_slow(*dst_ctx_, lane_, dst_rank_, std::move(pkt));
  }

 private:
  Fabric* fabric_;
  NetworkContext* dst_ctx_;
  int dst_rank_;
  std::size_t lane_;
  SpscRing<Packet>* ring_;  ///< lane_'s ring, cached past two indirections
  std::uint16_t src_ctx_;
};

}  // namespace fairmpi::fabric
