// Ablation: the matching engine's cost structure — in-order vs
// out-of-sequence arrival, posted-queue depth, overtaking, wildcard tags.
// These are the per-envelope costs §II-C identifies as the multithreaded
// bottleneck.
#include <benchmark/benchmark.h>

#include <vector>

#include "fairmpi/match/match_engine.hpp"

namespace {

using fairmpi::fabric::Opcode;
using fairmpi::fabric::Packet;
using fairmpi::match::MatchEngine;
using fairmpi::p2p::kAnyTag;
using fairmpi::p2p::Request;

Packet make_eager(std::uint32_t seq, int tag) {
  Packet pkt;
  pkt.hdr.opcode = Opcode::kEager;
  pkt.hdr.src_rank = 1;
  pkt.hdr.tag = tag;
  pkt.hdr.seq = seq;
  return pkt;
}

/// In-order arrival into a pre-posted receive: the fast path.
void BM_MatchInOrder(benchmark::State& state) {
  fairmpi::spc::CounterSet spc;
  MatchEngine eng(2, /*overtaking=*/false, spc);
  std::uint32_t seq = 0;
  std::uint32_t buf = 0;
  for (auto _ : state) {
    Request req;
    req.init_recv(&buf, sizeof buf, 1, 7);
    eng.post(&req);
    eng.incoming(make_eager(seq++, 7));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatchInOrder);

/// Reversed pairs: every second envelope is out of sequence and must be
/// buffered and drained — the allocation §II-C calls costly.
void BM_MatchOutOfSequencePairs(benchmark::State& state) {
  fairmpi::spc::CounterSet spc;
  MatchEngine eng(2, false, spc);
  std::uint32_t seq = 0;
  std::uint32_t buf = 0;
  for (auto _ : state) {
    Request r1, r2;
    r1.init_recv(&buf, sizeof buf, 1, 7);
    r2.init_recv(&buf, sizeof buf, 1, 7);
    eng.post(&r1);
    eng.post(&r2);
    eng.incoming(make_eager(seq + 1, 7));  // future: buffered
    eng.incoming(make_eager(seq, 7));      // fills the gap, drains
    seq += 2;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_MatchOutOfSequencePairs);

/// Same stream with overtaking: no sequence validation, no buffering.
void BM_MatchOvertaking(benchmark::State& state) {
  fairmpi::spc::CounterSet spc;
  MatchEngine eng(2, /*overtaking=*/true, spc);
  std::uint32_t seq = 0;
  std::uint32_t buf = 0;
  for (auto _ : state) {
    Request r1, r2;
    r1.init_recv(&buf, sizeof buf, 1, 7);
    r2.init_recv(&buf, sizeof buf, 1, 7);
    eng.post(&r1);
    eng.post(&r2);
    eng.incoming(make_eager(seq + 1, 7));
    eng.incoming(make_eager(seq, 7));
    seq += 2;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_MatchOvertaking);

/// Queue-search scaling: depth = posted receives with non-matching tags
/// ahead of the match (the linear scan §IV-D discusses).
void BM_MatchQueueSearchDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  fairmpi::spc::CounterSet spc;
  MatchEngine eng(2, false, spc);
  std::uint32_t buf = 0;
  // Decoys that never match (tag 1..depth).
  std::vector<Request> decoys(static_cast<std::size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    decoys[static_cast<std::size_t>(i)].init_recv(&buf, sizeof buf, 1, 1 + i);
    eng.post(&decoys[static_cast<std::size_t>(i)]);
  }
  std::uint32_t seq = 0;
  const int hot_tag = depth + 100;
  for (auto _ : state) {
    Request req;
    req.init_recv(&buf, sizeof buf, 1, hot_tag);
    eng.post(&req);
    eng.incoming(make_eager(seq++, hot_tag));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatchQueueSearchDepth)->Arg(0)->Arg(16)->Arg(128)->Arg(1024);

/// The tag bins' worst case: every decoy tag is congruent to the hot tag
/// mod 16, so all of them share its bin and the search is linear again.
void BM_MatchQueueSearchSameBin(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  fairmpi::spc::CounterSet spc;
  MatchEngine eng(2, false, spc);
  std::uint32_t buf = 0;
  const int hot_tag = 7;
  std::vector<Request> decoys(static_cast<std::size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    decoys[static_cast<std::size_t>(i)].init_recv(&buf, sizeof buf, 1, hot_tag + 16 * (1 + i));
    eng.post(&decoys[static_cast<std::size_t>(i)]);
  }
  std::uint32_t seq = 0;
  for (auto _ : state) {
    Request req;
    req.init_recv(&buf, sizeof buf, 1, hot_tag);
    eng.post(&req);
    eng.incoming(make_eager(seq++, hot_tag));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatchQueueSearchSameBin)->Arg(0)->Arg(16)->Arg(128)->Arg(1024);

/// Wildcard-tag receives skip the queue search (Fig. 4's trick): the
/// incoming envelope always matches the first posted entry.
void BM_MatchAnyTag(benchmark::State& state) {
  fairmpi::spc::CounterSet spc;
  MatchEngine eng(2, true, spc);
  std::uint32_t seq = 0;
  std::uint32_t buf = 0;
  for (auto _ : state) {
    Request req;
    req.init_recv(&buf, sizeof buf, 1, kAnyTag);
    eng.post(&req);
    eng.incoming(make_eager(seq++, 12345));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatchAnyTag);

/// Unexpected path: envelope arrives first, receive posted after.
void BM_MatchUnexpectedThenPost(benchmark::State& state) {
  fairmpi::spc::CounterSet spc;
  MatchEngine eng(2, false, spc);
  std::uint32_t seq = 0;
  std::uint32_t buf = 0;
  for (auto _ : state) {
    eng.incoming(make_eager(seq++, 7));
    Request req;
    req.init_recv(&buf, sizeof buf, 1, 7);
    eng.post(&req);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatchUnexpectedThenPost);

}  // namespace
