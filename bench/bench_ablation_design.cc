// E12: ablations over this reproduction's design choices and over the
// paper's future-work section (§5.2 mentions relaxing the security
// requirement to cut cost; §4.1.5 trades space for update throughput).
//
//   Relocation/{on,off}     in-place updates (off = StegFS 2003) are ~2x
//                           cheaper but break Definition 1 (see
//                           bench_security_distinguisher).
//   DummyRate/idle_ratio:R  idle dummy updates per real update: pure
//                           cover-traffic cost.
//   IndexIo/{memory,disk}   per-level hash index in agent memory vs
//                           spilled to disk (§5.1.2's fallback).
//   ObliSkew/theta:T        oblivious-store buffer hit rate under Zipf
//                           request skew — why the multi-tier cache keeps
//                           hot workloads cheap.

#include <benchmark/benchmark.h>

#include "bench/harness.h"

#include "bench/common.h"
#include "oblivious/oblivious_store.h"
#include "workload/file_population.h"
#include "workload/update_stream.h"
#include "workload/zipf.h"

namespace steghide::bench {
namespace {

constexpr uint64_t kVolumeBlocks = 16384;

void BM_Relocation(benchmark::State& state, bool relocate) {
  for (auto _ : state) {
    Rng rng(1);
    auto sys = MakeSystem(
        relocate ? SystemKind::kStegHideStar : SystemKind::kStegFs2003,
        kVolumeBlocks, 11);
    auto pop = workload::CreatePopulationBytes(
        *sys.adapter, rng, kVolumeBlocks / 4 * 4080, 4ull << 20);
    if (!pop.ok()) std::abort();
    const auto ops = workload::MakeUniformUpdateStream(
        *pop, sys.adapter->payload_size(), rng, 200, 1);
    const double t0 = sys.clock_ms();
    if (!workload::ApplyUpdateStream(*sys.adapter, ops, rng).ok()) {
      std::abort();
    }
    state.counters["mean_update_ms"] = (sys.clock_ms() - t0) / 200.0;
  }
}

void BM_DummyRate(benchmark::State& state, int idle_per_real) {
  for (auto _ : state) {
    Rng rng(2);
    auto sys = MakeSystem(SystemKind::kStegHideStar, kVolumeBlocks, 13);
    auto pop = workload::CreatePopulationBytes(
        *sys.adapter, rng, kVolumeBlocks / 4 * 4080, 4ull << 20);
    if (!pop.ok()) std::abort();
    const auto ops = workload::MakeUniformUpdateStream(
        *pop, sys.adapter->payload_size(), rng, 150, 1);
    const double t0 = sys.clock_ms();
    for (const auto& op : ops) {
      if (!workload::ApplyUpdate(*sys.adapter, op, rng).ok()) std::abort();
      if (!sys.nvagent->IdleDummyUpdates(idle_per_real).ok()) std::abort();
    }
    state.counters["ms_per_real_update"] =
        (sys.clock_ms() - t0) / static_cast<double>(ops.size());
  }
}

void BM_IndexIo(benchmark::State& state, bool on_disk) {
  for (auto _ : state) {
    constexpr uint64_t kN = 2048;
    constexpr uint64_t kB = 64;
    storage::MemBlockDevice mem(2 * kN + kN, 4096);
    storage::SimBlockDevice sim(&mem, storage::DiskModelParams{});
    oblivious::ObliviousStoreOptions opts;
    opts.buffer_blocks = kB;
    opts.capacity_blocks = kN;
    opts.partition_base = 0;
    opts.scratch_base = 2 * kN - 2 * kB;
    opts.charge_index_io = on_disk;
    opts.drbg_seed = 17;
    auto store = oblivious::ObliviousStore::Create(&sim, opts);
    if (!store.ok()) std::abort();
    (*store)->set_clock_fn([&] { return sim.clock_ms(); });

    Bytes payload((*store)->payload_size(), 1);
    for (uint64_t id = 0; id < kN; ++id) {
      if (!(*store)->Insert(id, payload.data()).ok()) std::abort();
    }
    (*store)->ResetStats();
    const double t0 = sim.clock_ms();
    Rng rng(19);
    Bytes out((*store)->payload_size());
    for (int i = 0; i < 1000; ++i) {
      if (!(*store)->Read(rng.Uniform(kN), out.data()).ok()) std::abort();
    }
    state.counters["access_ms"] = (sim.clock_ms() - t0) / 1000.0;
    state.counters["overhead_factor"] = (*store)->stats().OverheadFactor();
  }
}

void BM_ObliSkew(benchmark::State& state, double theta) {
  for (auto _ : state) {
    constexpr uint64_t kN = 2048;
    constexpr uint64_t kB = 128;
    storage::MemBlockDevice mem(2 * kN + kN, 4096);
    storage::SimBlockDevice sim(&mem, storage::DiskModelParams{});
    oblivious::ObliviousStoreOptions opts;
    opts.buffer_blocks = kB;
    opts.capacity_blocks = kN;
    opts.partition_base = 0;
    opts.scratch_base = 2 * kN - 2 * kB;
    opts.drbg_seed = 23;
    auto store = oblivious::ObliviousStore::Create(&sim, opts);
    if (!store.ok()) std::abort();
    (*store)->set_clock_fn([&] { return sim.clock_ms(); });

    Bytes payload((*store)->payload_size(), 1);
    for (uint64_t id = 0; id < kN; ++id) {
      if (!(*store)->Insert(id, payload.data()).ok()) std::abort();
    }
    (*store)->ResetStats();
    const double t0 = sim.clock_ms();
    workload::ZipfGenerator zipf(kN, theta);
    Rng rng(29);
    Bytes out((*store)->payload_size());
    for (int i = 0; i < 1500; ++i) {
      if (!(*store)->Read(zipf.Next(rng), out.data()).ok()) std::abort();
    }
    const auto& st = (*store)->stats();
    state.counters["access_ms"] = (sim.clock_ms() - t0) / 1500.0;
    state.counters["buffer_hit_rate"] =
        static_cast<double>(st.buffer_hits) /
        static_cast<double>(st.user_reads);
  }
}

}  // namespace
}  // namespace steghide::bench

int main(int argc, char** argv) {
  using namespace steghide::bench;
  for (bool on : {true, false}) {
    benchmark::RegisterBenchmark(
        (std::string("Ablation/Relocation/") + (on ? "on" : "off_2003")).c_str(),
        [on](benchmark::State& s) { BM_Relocation(s, on); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  for (int rate : {0, 1, 2, 4}) {
    benchmark::RegisterBenchmark(
        ("Ablation/DummyRate/idle_per_real:" + std::to_string(rate)).c_str(),
        [rate](benchmark::State& s) { BM_DummyRate(s, rate); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  for (bool disk : {false, true}) {
    benchmark::RegisterBenchmark(
        (std::string("Ablation/IndexIo/") + (disk ? "on_disk" : "in_memory")).c_str(),
        [disk](benchmark::State& s) { BM_IndexIo(s, disk); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  for (double theta : {0.0, 0.8, 1.2}) {
    benchmark::RegisterBenchmark(
        ("Ablation/ObliSkew/theta_x10:" +
         std::to_string(static_cast<int>(theta * 10))).c_str(),
        [theta](benchmark::State& s) { BM_ObliSkew(s, theta); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  return RunBenchmarks(argc, argv);
}
