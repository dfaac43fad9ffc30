// Ablation: fabric building blocks — RX ring throughput under different
// producer counts, inline vs heap payload transfer, and the end-to-end
// injection path through an endpoint.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "fairmpi/common/mpsc_ring.hpp"
#include "fairmpi/common/spsc_ring.hpp"
#include "fairmpi/fabric/fabric.hpp"

namespace {

using fairmpi::MpscRing;
using fairmpi::SpscRing;
using fairmpi::fabric::Endpoint;
using fairmpi::fabric::Fabric;
using fairmpi::fabric::Opcode;
using fairmpi::fabric::Packet;

void BM_RingPushPopSingleThread(benchmark::State& state) {
  MpscRing<std::uint64_t> ring(4096);
  std::uint64_t v = 0;
  for (auto _ : state) {
    ring.try_push(std::uint64_t{v});
    std::uint64_t out = 0;
    ring.try_pop(out);
    benchmark::DoNotOptimize(out);
    ++v;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingPushPopSingleThread);

/// The progress engine's drain pattern: a burst of packets lands and the
/// consumer extracts it. Manual timing covers only the drain phase (the
/// fill is the producers' cost, measured elsewhere). Two variants: one
/// try_pop per item vs one try_pop_n batch — the batch amortizes the head
/// update and is what progress.cpp does under the CRI lock.
template <bool kBatch>
void ring_drain_bench(benchmark::State& state) {
  const std::size_t burst = static_cast<std::size_t>(state.range(0));
  MpscRing<std::uint64_t> ring(4096);
  std::uint64_t out[64];
  std::uint64_t v = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < burst; ++i) ring.try_push(std::uint64_t{v++});
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t drained = 0;
    if constexpr (kBatch) {
      while (drained < burst) {
        const std::size_t n = ring.try_pop_n(out, 64);
        if (n == 0) break;
        drained += n;
      }
    } else {
      while (drained < burst && ring.try_pop(out[0])) ++drained;
    }
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(drained);
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(burst));
}

void BM_RingDrainSingle(benchmark::State& state) { ring_drain_bench<false>(state); }
void BM_RingDrainBatch(benchmark::State& state) { ring_drain_bench<true>(state); }
BENCHMARK(BM_RingDrainSingle)->Arg(64)->UseManualTime();
BENCHMARK(BM_RingDrainBatch)->Arg(64)->UseManualTime();

void BM_RingMultiProducer(benchmark::State& state) {
  static MpscRing<std::uint64_t>* ring = nullptr;
  if (state.thread_index() == 0) ring = new MpscRing<std::uint64_t>(8192);
  for (auto _ : state) {
    if (state.thread_index() == 0) {
      // Consumer drains.
      std::uint64_t out;
      while (ring->try_pop(out)) benchmark::DoNotOptimize(out);
    } else {
      // No retry loop: the consumer thread may exhaust its iterations
      // first, and a spinning producer would then never terminate. A full
      // ring simply counts as one (failed) push attempt.
      benchmark::DoNotOptimize(ring->try_push(std::uint64_t{1}));
    }
  }
  if (state.thread_index() == 0) {
    delete ring;
    ring = nullptr;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingMultiProducer)->Threads(2)->Threads(4);

/// The RX lane primitive (DESIGN.md §5f): one SPSC push+pop with no atomic
/// RMW anywhere. This is the floor BM_RingPushPopSingleThread's MPSC
/// protocol is compared against — the gap is the per-packet price of
/// multi-producer arbitration.
void BM_SpscLanePushPop(benchmark::State& state) {
  SpscRing<std::uint64_t> ring(4096);
  std::uint64_t v = 0;
  for (auto _ : state) {
    ring.try_push(std::uint64_t{v});
    std::uint64_t out = 0;
    ring.try_pop(out);
    benchmark::DoNotOptimize(out);
    ++v;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscLanePushPop);

void BM_PacketInlinePayload(benchmark::State& state) {
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    Packet pkt;
    pkt.hdr.opcode = Opcode::kEager;
    pkt.set_payload(payload.data(), payload.size());
    benchmark::DoNotOptimize(pkt.payload());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PacketInlinePayload)->Arg(0)->Arg(32)->Arg(64)->Arg(256)->Arg(4096);

void BM_EndpointInjection(benchmark::State& state) {
  Fabric fabric({1, 1});
  Endpoint ep(fabric, fabric.nic(0).context(0), 1, /*dst_ctx=*/0);
  auto& rx = fabric.nic(1).context(0).rx();
  for (auto _ : state) {
    Packet pkt;
    pkt.hdr.opcode = Opcode::kEager;
    benchmark::DoNotOptimize(ep.try_send(std::move(pkt)));
    Packet out;
    rx.try_pop_n(&out, 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndpointInjection);

}  // namespace
