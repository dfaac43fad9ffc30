// Communication Resource Instances (§III-B/D, Algorithm 1).
//
// A CRI bundles the resources one thread needs to drive the network — a
// network context (with its RX ring and CQ) plus one endpoint per peer —
// behind a single per-instance lock. The pool replicates CRIs so threads
// can inject and extract concurrently; the assignment policy decides which
// instance a thread uses:
//
//   * kRoundRobin — an atomic circular counter hands out a (probably)
//     different instance on every call: no sustained contention, good load
//     balance, at the price of one atomic per operation and losing
//     instance affinity (Alg. 1, GET-INSTANCE-ID--ROUND-ROBIN).
//   * kDedicated — sticky thread-local binding, first assigned by a
//     topology-aware claim scan (nearest-LLC-domain instance first, then
//     any free instance, round-robin once oversubscribed): zero contention
//     while #threads <= #instances (Alg. 1, GET-INSTANCE-ID--DEDICATED),
//     and no cross-domain coherence traffic while the host's topology
//     leaves room.
//
// Injection takes the instance lock (try-lock, then a timed blocking
// acquire). The design avoids contention by giving threads their own
// instances, not by making the shared lock faster (DESIGN.md §5f).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/debug/lockcheck.hpp"
#include "fairmpi/debug/thread_safety.hpp"
#include "fairmpi/fabric/fabric.hpp"
#include "fairmpi/obs/utilization.hpp"
#include "fairmpi/spc/spc.hpp"

namespace fairmpi::cri {

/// The per-instance lock type: a spinlock acquired through the lock-rank
/// validator at rank kCriInstance (progress gate < CRI < match).
using InstanceLock = RankedLock<Spinlock>;

enum class Assignment {
  kRoundRobin,
  kDedicated,
};

const char* assignment_name(Assignment a) noexcept;

/// One instance: context + per-peer endpoints + the protection lock.
/// Cache-line aligned so sibling instances in a pool never share a line
/// (placement, DESIGN.md §5f).
class alignas(kCacheLine) CommResourceInstance {
 public:
  CommResourceInstance(int id, fabric::Fabric& fabric, fabric::NetworkContext& ctx)
      : id_(id), ctx_(&ctx) {
    // lint: allow(hotpath-alloc) ctor: endpoint table sized once per instance
    endpoints_.reserve(static_cast<std::size_t>(fabric.num_ranks()));
    for (int peer = 0; peer < fabric.num_ranks(); ++peer) {
      endpoints_.emplace_back(fabric, ctx, peer);
    }
  }

  CommResourceInstance(const CommResourceInstance&) = delete;
  CommResourceInstance& operator=(const CommResourceInstance&) = delete;

  int id() const noexcept { return id_; }
  InstanceLock& lock() noexcept FAIRMPI_RETURN_CAPABILITY(lock_) { return lock_; }

  /// Acquire the instance lock: a free lock costs one try_lock; a
  /// contended one blocks, and the wait is charged to
  /// kInstanceLockWaitNs. Callers adopt it with
  /// LockGuard(lock(), adopt_lock).
  void lock_timed(spc::CounterSet& counters) FAIRMPI_ACQUIRE(lock_);

  /// The instance's network context. Deliberately NOT lock-required: the
  /// stall watchdog reads the context's lock-free counters while the
  /// instance is busy (that race is its design, watchdog.cpp), and ring
  /// consumption is governed by the single-consumer contract in
  /// mpsc_ring.hpp rather than a capability the analysis can express.
  fabric::NetworkContext& context() noexcept { return *ctx_; }

  /// Injection endpoint for `peer`. Injection mutates per-endpoint credit
  /// and sequence state, so callers must hold the instance lock.
  fabric::Endpoint& endpoint(int peer) FAIRMPI_REQUIRES(lock_) {
    return endpoints_[static_cast<std::size_t>(peer)];
  }

  /// Per-instance utilization counters (observability; no-ops unless
  /// obs::enabled()). Injection sites and the progress engine feed them.
  obs::InstanceCounters& stats() noexcept { return stats_; }
  const obs::InstanceCounters& stats() const noexcept { return stats_; }

  /// Inject one eager packet toward `dst`: lock_timed(), try_send, release.
  /// The caller must not hold the instance lock. Returns false on fabric
  /// backpressure (destination RX ring full); the packet is then left
  /// intact for the caller's retry loop.
  bool inject(int dst, fabric::Packet& pkt, spc::CounterSet& counters);

 private:
  const int id_;
  fabric::NetworkContext* ctx_;
  std::vector<fabric::Endpoint> endpoints_ FAIRMPI_GUARDED_BY(lock_);
  InstanceLock lock_{LockRank::kCriInstance, "cri.instance"};
  obs::InstanceCounters stats_;
};

/// The pool of CRIs owned by one rank, plus the "centralized body" (§III-B)
/// that assigns instances to threads.
class CriPool {
 public:
  /// Builds one CRI per context of `rank`'s NIC.
  CriPool(fabric::Fabric& fabric, int rank, Assignment assignment);

  CriPool(const CriPool&) = delete;
  CriPool& operator=(const CriPool&) = delete;

  int size() const noexcept { return static_cast<int>(instances_.size()); }
  Assignment assignment() const noexcept { return assignment_; }

  CommResourceInstance& instance(int i) { return *instances_[static_cast<std::size_t>(i)]; }

  /// Locality domain instance `i` is homed on: instances are laid out
  /// i mod D across the host's D LLC/NUMA domains at construction, so
  /// sibling instances land on distinct domains as long as the host has
  /// them. Single-domain hosts map everything to 0.
  int instance_domain(int i) const noexcept {
    return instance_domain_[static_cast<std::size_t>(i)];
  }

  /// Alg. 1 GET-INSTANCE-ID--ROUND-ROBIN: atomic circular counter.
  int next_round_robin() noexcept {
    return static_cast<int>(rr_->fetch_add(1, std::memory_order_relaxed) %
                            static_cast<std::uint32_t>(instances_.size()));
  }

  /// Alg. 1 GET-INSTANCE-ID--DEDICATED, topology-aware: on a thread's
  /// first use of this pool it claims a free instance — preferring ones
  /// homed on its own locality domain — and stays bound to it. Once every
  /// instance is claimed (threads > instances), later threads fall back to
  /// round-robin assignment, preserving the wrap behaviour of Alg. 1.
  int dedicated_id();

  /// The instance id for the calling thread per the configured policy.
  int id_for_thread() {
    return assignment_ == Assignment::kDedicated ? dedicated_id() : next_round_robin();
  }

 private:
  /// Claim a free instance for a first-time dedicated thread (see
  /// dedicated_id); -1 when every instance is already claimed.
  int claim_instance();

  const Assignment assignment_;
  const std::uint64_t pool_key_;  ///< global key for the TLS binding table
  std::vector<std::unique_ptr<CommResourceInstance>> instances_;
  std::vector<int> instance_domain_;  ///< instance -> locality domain
  /// Dedicated-claim flags, one padded cell per instance so two threads
  /// binding simultaneously never bounce a shared line.
  std::unique_ptr<Padded<std::atomic<std::uint8_t>>[]> claimed_;
  Padded<std::atomic<std::uint32_t>> rr_{};

  static std::atomic<std::uint64_t> next_pool_key_;
};

}  // namespace fairmpi::cri
