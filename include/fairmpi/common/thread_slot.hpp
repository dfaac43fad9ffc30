// Dense per-thread slot ids.
//
// Several hot-path structures (the counter store in sharded_cells.hpp,
// SlabArena's per-thread freelist caches) want one private cache line per
// *live* thread, indexed by a small integer. `std::thread::id` is neither small nor dense, and a bare
// monotonic thread_local counter would eventually alias two live threads onto
// one slot — which silently breaks the "single writer per cell" invariant
// those structures rely on.
//
// This registry hands out ids from [0, kMaxThreadSlots) and recycles an id
// when its thread exits (thread_local destructor), so two *live* threads
// never share a slot. If more than kMaxThreadSlots threads are alive at
// once, the surplus threads get kNoThreadSlot and callers must fall back to
// their shared/contended path — correct, just slower.
#pragma once

namespace fairmpi::common {

/// Upper bound on concurrently-registered threads. Sized well above any
/// bench configuration (the paper tops out at 2 x 20 thread pairs); per-slot
/// state is one cache line, so the cost of headroom is small.
inline constexpr int kMaxThreadSlots = 128;

/// Sentinel returned once the registry is exhausted.
inline constexpr int kNoThreadSlot = -1;

namespace detail {
/// Sentinel distinct from kNoThreadSlot: "this thread never registered".
inline constexpr int kSlotUnset = -2;
/// Cached slot id. Written by register_this_thread() on first use and reset
/// to kNoThreadSlot by the registry when the thread exits (so late TLS
/// destructors that still consult it take the shared fallback path instead
/// of touching a slot that may already belong to a new thread).
inline thread_local int tls_slot = kSlotUnset;
/// Registers the calling thread; sets tls_slot; returns the slot.
int register_this_thread() noexcept;
}  // namespace detail

/// This thread's slot in [0, kMaxThreadSlots), or kNoThreadSlot when more
/// than kMaxThreadSlots threads are currently alive. Stable for the thread's
/// lifetime; released (and eventually reused by a *later* thread) at exit.
/// The registry lock's release/acquire pairing orders everything the dead
/// thread did to slot-indexed state before any reuse — callers need no
/// extra synchronization for the handover.
/// Hot path is a single TLS read (called per SPC update / pool op).
inline int this_thread_slot() noexcept {
  const int s = detail::tls_slot;
  return s != detail::kSlotUnset ? s : detail::register_this_thread();
}

}  // namespace fairmpi::common
