#include "fairmpi/cri/cri.hpp"

#include <memory>

#include "fairmpi/common/error.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/common/topology.hpp"

namespace fairmpi::cri {

const char* assignment_name(Assignment a) noexcept {
  switch (a) {
    case Assignment::kRoundRobin: return "round-robin";
    case Assignment::kDedicated: return "dedicated";
  }
  return "unknown";
}

std::atomic<std::uint64_t> CriPool::next_pool_key_{0};

void CommResourceInstance::lock_timed(spc::CounterSet& counters) {
  if (lock_.try_lock()) return;
  const std::uint64_t t0 = now_ns();
  // lint: allow(bare-lock) timed-acquire helper; every caller immediately
  // adopts with LockGuard(lock(), adopt_lock)
  lock_.lock();
  counters.add(spc::Counter::kInstanceLockWaitNs, now_ns() - t0);
}

bool CommResourceInstance::inject(int dst, fabric::Packet& pkt, spc::CounterSet& counters) {
  lock_timed(counters);
  LockGuard adopt(lock_, adopt_lock);
  const bool ok = endpoints_[static_cast<std::size_t>(dst)].try_send(std::move(pkt));
  if (ok) stats_.note_injection();
  return ok;
}

CriPool::CriPool(fabric::Fabric& fabric, int rank, Assignment assignment)
    : assignment_(assignment),
      pool_key_(next_pool_key_.fetch_add(1, std::memory_order_relaxed)) {
  fabric::Nic& nic = fabric.nic(rank);
  const int n = nic.num_contexts();
  // lint: allow(hotpath-alloc) ctor: pool built once per rank per universe
  instances_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    instances_.push_back(
        // lint: allow(hotpath-alloc) ctor: one instance per NIC context
        std::make_unique<CommResourceInstance>(i, fabric, nic.context(i)));
  }
  FAIRMPI_CHECK(!instances_.empty());
  // Domain layout i mod D: consecutive instances land on distinct
  // LLC/NUMA domains, so the default "thread t drives instance t" pattern
  // never stacks two hot instances on one domain while another sits idle.
  // Single-domain hosts (and the 1-CPU CI runner) map everything to 0 and
  // the layout is a no-op.
  const int domains = common::cpu_topology().num_domains;
  // lint: allow(hotpath-alloc) ctor: placement table sized once
  instance_domain_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    instance_domain_[static_cast<std::size_t>(i)] = i % (domains > 0 ? domains : 1);
  }
  // lint: allow(hotpath-alloc) ctor: one padded claim flag per instance
  claimed_ = std::make_unique<Padded<std::atomic<std::uint8_t>>[]>(static_cast<std::size_t>(n));
}

int CriPool::claim_instance() {
  // Preference order: instances homed on the calling thread's own locality
  // domain first (current_cpu() is a hint — a later migration costs
  // locality, not correctness), then everything else. The claim itself is
  // one CAS per probed flag; relaxed suffices because the flag only
  // allocates the id — all instance state transfer happens through the
  // instance lock.
  const int my_domain = common::cpu_topology().domain_of(common::current_cpu());
  const int n = size();
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < n; ++i) {
      const bool own = instance_domain_[static_cast<std::size_t>(i)] == my_domain;
      if ((pass == 0) != own) continue;
      std::uint8_t expected = 0;
      if (claimed_[static_cast<std::size_t>(i)]->compare_exchange_strong(
              expected, 1, std::memory_order_relaxed)) {
        return i;
      }
    }
  }
  return -1;  // oversubscribed: every instance already has an owner
}

int CriPool::dedicated_id() {
  // Per-thread binding table indexed by pool key. Pools are few and
  // long-lived (one per rank per universe), so a flat vector beats a hash
  // map on this hot path. -1 marks "not yet bound" (Alg. 1: my_id
  // undefined -> assign and remember).
  thread_local std::vector<std::int32_t> bindings;
  // lint: allow(hotpath-alloc) first-bind slow path: TLS table grows once per newer pool, later calls are a flat load
  if (bindings.size() <= pool_key_) bindings.resize(pool_key_ + 1, -1);
  std::int32_t& slot = bindings[pool_key_];
  if (slot < 0) {
    const int claimed = claim_instance();
    slot = static_cast<std::int32_t>(claimed >= 0 ? claimed : next_round_robin());
  }
  return slot;
}

}  // namespace fairmpi::cri
