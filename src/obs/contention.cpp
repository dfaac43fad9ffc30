#include "fairmpi/obs/contention.hpp"

#include <cstring>

#include "fairmpi/common/sharded_cells.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/common/timing.hpp"

namespace fairmpi::obs {

namespace {

/// A class's four cells in the counter store: class c owns cells
/// [c * kCellsPerClass, (c + 1) * kCellsPerClass).
enum Cell : std::size_t { kAcquires, kContended, kWaitCycles, kTrylockFails, kCellsPerClass };

std::size_t cell(std::uint16_t cls, Cell field) noexcept {
  return std::size_t{cls} * kCellsPerClass + field;
}

/// Registry of interned classes. The intern lock is a bare Spinlock on
/// purpose: this file implements the profiler RankedLock reports into, so
/// routing its own lock through RankedLock would recurse (and interning is
/// a once-per-class cold path anyway).
// Static-contract note (DESIGN.md §5e): names/ranks deliberately carry no
// FAIRMPI_GUARDED_BY(intern_lock). They are written only under the lock,
// but snapshot readers read them lock-free — made safe by the release
// store to n_classes below paired with readers' acquire load (entries
// below n_classes are immutable once published). A guarded_by annotation
// would force readers to take the lock and outlaw the publish protocol.
struct Registry {
  // lint: allow(unranked-mutex) profiler-internal leaf lock, see comment above
  Spinlock intern_lock;
  std::atomic<int> n_classes{0};
  const char* names[kMaxContentionClasses] = {};
  std::uint16_t ranks[kMaxContentionClasses] = {};
  common::ShardedCells<kMaxContentionClasses * kCellsPerClass> cells;
};

Registry& registry() noexcept {
  // Never destroyed: lock classes are process-lifetime, and a lock taken by
  // a late static destructor must still find its cells. Constant-initialized,
  // so the hooks pay no guard check.
  static constinit union Holder {
    Registry r;
    constexpr Holder() : r() {}
    ~Holder() {}
  } holder;
  return holder.r;
}

}  // namespace

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint16_t intern_contention_class(std::uint16_t rank, const char* name) noexcept {
  Registry& r = registry();
  LockGuard guard(r.intern_lock);
  const int n = r.n_classes.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    if (r.ranks[i] == rank && std::strcmp(r.names[i], name) == 0) {
      return static_cast<std::uint16_t>(i);
    }
  }
  if (n >= kMaxContentionClasses) return kNoContentionClass;  // unprofiled, not fatal
  r.names[n] = name;
  r.ranks[n] = rank;
  r.n_classes.store(n + 1, std::memory_order_release);
  return static_cast<std::uint16_t>(n);
}

void note_uncontended_acquire(std::uint16_t cls) noexcept {
  if (cls >= kMaxContentionClasses) return;
  registry().cells.cursor().add(cell(cls, kAcquires));
}

void note_contended_acquire(std::uint16_t cls, std::uint64_t wait_cycles) noexcept {
  if (cls >= kMaxContentionClasses) return;
  auto c = registry().cells.cursor();
  c.add(cell(cls, kAcquires));
  c.add(cell(cls, kContended));
  c.add(cell(cls, kWaitCycles), wait_cycles);
}

void note_trylock_fail(std::uint16_t cls) noexcept {
  if (cls >= kMaxContentionClasses) return;
  registry().cells.cursor().add(cell(cls, kTrylockFails));
}

std::vector<ClassContention> contention_snapshot() {
  Registry& r = registry();
  const int n = r.n_classes.load(std::memory_order_acquire);
  std::vector<ClassContention> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto cls = static_cast<std::uint16_t>(i);
    ClassContention& row = out[static_cast<std::size_t>(i)];
    row.name = r.names[i];
    row.rank = r.ranks[i];
    row.acquires = r.cells.sum(cell(cls, kAcquires));
    row.contended = r.cells.sum(cell(cls, kContended));
    row.wait_ns = CycleClock::to_ns(r.cells.sum(cell(cls, kWaitCycles)));
    row.trylock_fails = r.cells.sum(cell(cls, kTrylockFails));
  }
  return out;
}

}  // namespace fairmpi::obs
