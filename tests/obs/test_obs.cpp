// Observability layer tests: contention-profiler shards (TSan-exercised),
// CRI-utilization conservation against SPC totals, and exporter structure.
//
// obs::enabled() is a process-global switch; every test that flips it on
// restores it so suites stay order-independent. Contention counts are
// lifetime totals, so each test profiles its own uniquely named lock class
// and subtracts that class's counts from before the test.
// The one exception is the intern-past-cap test, which permanently fills
// the class registry — it is declared LAST so its suite runs last.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/core/universe.hpp"
#include "fairmpi/debug/lockcheck.hpp"
#include "fairmpi/obs/contention.hpp"
#include "fairmpi/obs/utilization.hpp"

#include "../chaos_env.hpp"

namespace fairmpi {
namespace {

/// RAII: obs on for the scope.
struct ObsScope {
  ObsScope() { obs::set_enabled(true); }
  ~ObsScope() { obs::set_enabled(false); }
};

const obs::ClassContention* find_class(const std::vector<obs::ClassContention>& all,
                                       const char* name) {
  for (const auto& c : all) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

/// Class `name`'s counts since `before` (all zero if it is not interned).
obs::ClassContention class_since(const std::vector<obs::ClassContention>& before,
                                 const char* name) {
  const auto now = obs::contention_snapshot();
  const obs::ClassContention* c = find_class(now, name);
  if (c == nullptr) return obs::ClassContention{name};
  obs::ClassContention out = *c;
  if (const obs::ClassContention* b = find_class(before, name)) {
    out.acquires -= b->acquires;
    out.contended -= b->contended;
    out.wait_ns -= b->wait_ns;
    out.trylock_fails -= b->trylock_fails;
  }
  return out;
}

// --- LockContention.* (name matches the CI TSan job's test filter) ---

TEST(LockContention, DisabledRecordsNothing) {
  obs::set_enabled(false);
  const auto before = obs::contention_snapshot();
  RankedLock<Spinlock> lock(LockRank::kTestBase, "obs.test.disabled");
  for (int i = 0; i < 100; ++i) {
    lock.lock();
    lock.unlock();
    ASSERT_TRUE(lock.try_lock());
    lock.unlock();
  }
  // The class is not even interned (nothing forces it while disabled); if a
  // future change interns eagerly, its cells must still not move.
  const obs::ClassContention c = class_since(before, "obs.test.disabled");
  EXPECT_EQ(c.acquires, 0u);
  EXPECT_EQ(c.trylock_fails, 0u);
}

TEST(LockContention, CountsAcquiresAndTrylockFails) {
  ObsScope scope;
  const auto before = obs::contention_snapshot();
  RankedLock<Spinlock> lock(LockRank::kTestBase, "obs.test.counts");
  constexpr int kOps = 1000;
  for (int i = 0; i < kOps; ++i) {
    lock.lock();
    lock.unlock();
  }
  lock.lock();
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(lock.try_lock());  // held by us: every probe fails
  }
  lock.unlock();

  ASSERT_NE(find_class(obs::contention_snapshot(), "obs.test.counts"), nullptr);
  const obs::ClassContention c = class_since(before, "obs.test.counts");
  EXPECT_EQ(c.acquires, static_cast<std::uint64_t>(kOps) + 1);
  EXPECT_EQ(c.trylock_fails, 7u);
  EXPECT_EQ(c.rank, static_cast<std::uint16_t>(LockRank::kTestBase));
}

TEST(LockContention, AttributesWaitTimeUnderContention) {
  ObsScope scope;
  const auto before = obs::contention_snapshot();
  RankedLock<Spinlock> lock(LockRank::kTestBase, "obs.test.contended");
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    lock.lock();
    held.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
    }
    lock.unlock();
  });
  while (!held.load(std::memory_order_acquire)) {
  }
  std::thread waiter([&] {
    lock.lock();  // blocks until the holder releases
    lock.unlock();
  });
  // Give the waiter time to actually block on the lock before releasing.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.store(true, std::memory_order_release);
  holder.join();
  waiter.join();

  ASSERT_NE(find_class(obs::contention_snapshot(), "obs.test.contended"), nullptr);
  const obs::ClassContention c = class_since(before, "obs.test.contended");
  EXPECT_GE(c.acquires, 2u);
  EXPECT_GE(c.contended, 1u);
  EXPECT_GT(c.wait_ns, 0u);
}

// The TSan target: many threads pounding one class through their own
// blocks of the counter store must neither race nor lose counts.
TEST(LockContention, ShardsSumExactlyAcrossThreads) {
  ObsScope scope;
  const auto before = obs::contention_snapshot();
  RankedLock<Spinlock> lock(LockRank::kTestBase, "obs.test.shards");
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (lock.try_lock()) {
          lock.unlock();
        }
        lock.lock();
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_NE(find_class(obs::contention_snapshot(), "obs.test.shards"), nullptr);
  const obs::ClassContention c = class_since(before, "obs.test.shards");
  // Every blocking lock() is exactly one acquire; successful try_locks add
  // more, failed ones only bump trylock_fails — together they account for
  // every one of the kThreads * kOpsPerThread probes.
  const std::uint64_t blocking =
      static_cast<std::uint64_t>(kThreads) * kOpsPerThread;
  EXPECT_GE(c.acquires, blocking);
  EXPECT_LE(c.acquires, 2 * blocking);
  EXPECT_EQ((c.acquires - blocking) + c.trylock_fails, blocking);
}

// --- CriUtilization.* (name matches the CI TSan job's test filter) ---

TEST(CriUtilization, DrainHistogramBuckets) {
  using obs::InstanceCounters;
  EXPECT_EQ(InstanceCounters::bucket(1), 0);
  EXPECT_EQ(InstanceCounters::bucket(2), 1);
  EXPECT_EQ(InstanceCounters::bucket(3), 2);
  EXPECT_EQ(InstanceCounters::bucket(4), 2);
  EXPECT_EQ(InstanceCounters::bucket(5), 3);
  EXPECT_EQ(InstanceCounters::bucket(8), 3);
  EXPECT_EQ(InstanceCounters::bucket(16), 4);
  EXPECT_EQ(InstanceCounters::bucket(32), 5);
  EXPECT_EQ(InstanceCounters::bucket(33), 6);
  EXPECT_EQ(InstanceCounters::bucket(64), 6);
}

/// Conservation: with a pristine fabric, reliability off and only eager
/// traffic, every completed send is exactly one injection into some CRI and
/// exactly one packet drained from some CRI — so at quiescence the
/// per-instance counters must sum to the aggregate SPCs.
TEST(CriUtilization, InjectionsAndDrainsConserveAgainstSpc) {
  ScopedChaosEnvClear env;  // conservation requires a lossless fabric
  ObsScope scope;
  Config cfg;
  cfg.num_ranks = 2;
  cfg.num_instances = 3;
  cfg.progress_mode = progress::ProgressMode::kConcurrent;
  cfg.obs_enabled = true;
  Universe uni(cfg);

  constexpr int kMessages = 200;
  std::thread peer([&] {
    char buf[64];
    for (int i = 0; i < kMessages; ++i) {
      uni.rank(1).recv(kWorldComm, 0, /*tag=*/1, buf, sizeof buf);
      uni.rank(1).send(kWorldComm, 0, /*tag=*/2, buf, 16);
    }
  });
  {
    char buf[64] = "conservation";
    for (int i = 0; i < kMessages; ++i) {
      uni.rank(0).send(kWorldComm, 1, /*tag=*/1, buf, 32);
      uni.rank(0).recv(kWorldComm, 1, /*tag=*/2, buf, sizeof buf);
    }
  }
  peer.join();

  const spc::Snapshot total = uni.aggregate_counters();
  std::uint64_t injections = 0, pkts = 0, comps = 0, visits = 0, hist = 0;
  for (int r = 0; r < uni.num_ranks(); ++r) {
    cri::CriPool& pool = uni.rank(r).pool();
    for (int i = 0; i < pool.size(); ++i) {
      const obs::InstanceUtilization u = pool.instance(i).stats().snapshot();
      injections += u.injections;
      pkts += u.packets_drained;
      comps += u.completions_drained;
      visits += u.drain_visits;
      for (const std::uint64_t h : u.drain_hist) hist += h;
    }
  }
  EXPECT_EQ(injections, total.get(spc::Counter::kMessagesSent));
  EXPECT_EQ(pkts, injections);  // quiescent: everything injected was drained
  EXPECT_EQ(comps, 0u);         // eager sends complete inline, no CQ events
  EXPECT_GE(visits, hist);      // only non-empty drains land in the histogram
  EXPECT_EQ(total.get(spc::Counter::kMessagesSent),
            static_cast<std::uint64_t>(2 * kMessages));
}

TEST(CriUtilization, ObsOffLeavesCountersZero) {
  obs::set_enabled(false);
  Config cfg;
  cfg.num_ranks = 2;
  Universe uni(cfg);
  char buf[16];
  std::thread peer([&] { uni.rank(1).recv(kWorldComm, 0, 0, buf, sizeof buf); });
  uni.rank(0).send(kWorldComm, 1, 0, "off", 4);
  peer.join();
  for (int r = 0; r < uni.num_ranks(); ++r) {
    const obs::InstanceUtilization u =
        uni.rank(r).pool().instance(0).stats().snapshot();
    EXPECT_EQ(u.injections, 0u);
    EXPECT_EQ(u.drain_visits, 0u);
  }
}

// --- exporter structure ---

TEST(ObsExport, ChromeTraceWellFormedWithEvents) {
  ObsScope scope;
  Config cfg;
  cfg.num_ranks = 2;
  cfg.trace_enabled = true;
  Universe uni(cfg);
  char buf[16];
  std::thread peer(
      [&] { uni.rank(1).recv(kWorldComm, 0, 0, buf, sizeof buf); });
  uni.rank(0).send(kWorldComm, 1, 0, "trace", 6);
  peer.join();

  std::ostringstream os;
  uni.export_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"Send\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"RecvPost\""), std::string::npos);
  // The drained eager packet produced a CriDrain async lane event.
  EXPECT_NE(json.find("\"name\":\"CriDrain\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"n\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"cri-"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
}

TEST(ObsExport, TracelessUniverseStillExportsValidSkeleton) {
  Config cfg;
  cfg.num_ranks = 1;
  Universe uni(cfg);
  std::ostringstream os;
  uni.export_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
}

TEST(ObsExport, DumpObservabilityHasAllSections) {
  ObsScope scope;
  Config cfg;
  cfg.num_ranks = 2;
  cfg.num_instances = 2;
  cfg.obs_enabled = true;
  Universe uni(cfg);
  char buf[16];
  std::thread peer(
      [&] { uni.rank(1).recv(kWorldComm, 0, 0, buf, sizeof buf); });
  uni.rank(0).send(kWorldComm, 1, 0, "dump", 5);
  peer.join();

  std::ostringstream os;
  uni.dump_observability(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"obs_enabled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"contention\""), std::string::npos);
  EXPECT_NE(json.find("\"cri.instance\""), std::string::npos);
  EXPECT_NE(json.find("\"ranks\""), std::string::npos);
  EXPECT_NE(json.find("\"injections\""), std::string::npos);
  EXPECT_NE(json.find("\"drain_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"spc_total\""), std::string::npos);
  EXPECT_NE(json.find("\"MessagesSent\""), std::string::npos);
  // Braces balance (cheap structural sanity without a JSON parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// --- declared last on purpose: exhausts the process-global class registry ---

TEST(LockContentionCapacity, InternPastCapIsNonFatal) {
  ObsScope scope;
  std::uint16_t last = 0;
  // Interning keeps the pointer, not a copy, so the names must outlive the
  // test. Anchor them through a never-destroyed static so LeakSanitizer
  // sees the over-cap ones (which the registry drops) as reachable — a
  // plain static vector would be destructed before the leak check runs.
  static std::vector<char*>* const names = new std::vector<char*>();
  for (int i = 0; i < obs::kMaxContentionClasses + 8; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "obs.test.cap.%d", i);
    names->push_back(strdup(name));
    last = obs::intern_contention_class(2000, names->back());
  }
  EXPECT_EQ(last, obs::kNoContentionClass);
  // Over-cap hooks are no-ops, not crashes.
  obs::note_uncontended_acquire(last);
  obs::note_contended_acquire(last, 123);
  obs::note_trylock_fail(last);
}

}  // namespace
}  // namespace fairmpi
