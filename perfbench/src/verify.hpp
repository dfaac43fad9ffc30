// Result verification for the benchmark workloads.
//
// Every delivered payload carries an 8-byte stamp naming its stream and its
// sequence number, XOR-keyed by the run seed. A receiver checks each
// completed receive in posting order (MPI's non-overtaking rule makes the
// i-th receive on a (comm, source, tag) stream the i-th message sent on
// it); RMA initiators check the first and last word of every put after its
// flush. Whatever fails — an errored request, a wrong or out-of-order
// stamp, a receive that never completed — is tallied as failed and never
// as verified, so a broken engine cannot inflate rate_mops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace perfbench {

/// splitmix64 finalizer: derives independent keys from one seed.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Stamp of message `seq` on `stream` (16-bit stream id, 48-bit seq).
inline std::uint64_t make_stamp(std::uint64_t key, std::uint32_t stream,
                                std::uint64_t seq) noexcept {
  return key ^ ((static_cast<std::uint64_t>(stream & 0xFFFF) << 48) |
                (seq & 0xFFFF'FFFF'FFFFull));
}

inline std::uint64_t load_word(const void* p) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

inline void store_word(void* p, std::uint64_t w) noexcept { std::memcpy(p, &w, sizeof w); }

/// Operation outcomes of one thread (summed across threads at the end).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t verified = 0;
  std::uint64_t errored = 0;     ///< completed with a typed engine error
  std::uint64_t mismatched = 0;  ///< wrong payload, size or order
  std::uint64_t incomplete = 0;  ///< never completed before the run ended

  std::uint64_t failed() const noexcept { return errored + mismatched + incomplete; }

  void merge(const Tally& o) noexcept {
    attempted += o.attempted;
    verified += o.verified;
    errored += o.errored;
    mismatched += o.mismatched;
    incomplete += o.incomplete;
  }
};

/// In-order stamp checker for one receive stream.
class StreamCheck {
 public:
  StreamCheck(std::uint64_t key, std::uint32_t stream) noexcept
      : key_(key), stream_(stream & 0xFFFF) {}

  /// Settle one posted receive, in posting order. `done`/`errored` come
  /// from the Request, `size`/`truncated` from its Status, `word` is the
  /// first 8 payload bytes.
  void settle(Tally& t, bool done, bool errored, std::size_t size, bool truncated,
              std::uint64_t word) noexcept {
    ++t.attempted;
    if (!done) {
      ++t.incomplete;
      return;
    }
    if (errored) {
      ++t.errored;
      return;
    }
    if (size != sizeof(std::uint64_t) || truncated) {
      ++t.mismatched;
      ++next_;
      return;
    }
    if (word == make_stamp(key_, stream_, next_)) {
      ++t.verified;
      ++next_;
      return;
    }
    ++t.mismatched;
    // Resynchronise on a stamp of this stream so one lost or reordered
    // message costs one failure, not the rest of the run.
    const std::uint64_t plain = word ^ key_;
    if ((plain >> 48) == stream_) {
      next_ = (plain & 0xFFFF'FFFF'FFFFull) + 1;
    } else {
      ++next_;
    }
  }

 private:
  std::uint64_t key_;
  std::uint32_t stream_;
  std::uint64_t next_ = 0;
};

/// Put-side stamp: written into the first and last word of the source
/// buffer before a put of `n` >= 8 bytes (one word when n == 8), checked
/// in the target after flush.
inline void stamp_put(void* src, std::size_t n, std::uint64_t stamp) noexcept {
  store_word(src, stamp);
  store_word(static_cast<std::byte*>(src) + n - sizeof(std::uint64_t), stamp);
}

inline void check_put(Tally& t, const void* dst, std::size_t n, std::uint64_t stamp) noexcept {
  ++t.attempted;
  const bool ok =
      load_word(dst) == stamp &&
      load_word(static_cast<const std::byte*>(dst) + n - sizeof(std::uint64_t)) == stamp;
  if (ok) {
    ++t.verified;
  } else {
    ++t.mismatched;
  }
}

}  // namespace perfbench
