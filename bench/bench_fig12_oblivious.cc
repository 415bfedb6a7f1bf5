// Reproduces Figure 12 of the paper: oblivious-storage performance.
//  (a) per-block access time vs buffer size, against plain StegFS (E7)
//  (b) split of the access time into retrieving vs sorting overhead (E8)
//
// Same N/B scaling as bench_table4 (README, "Virtual disk clock and N/B
// scaling"). Counters report virtual milliseconds:
//   obli_access_ms    mean time per oblivious read
//   stegfs_access_ms  mean time for one random StegFS block read
//   slowdown_vs_stegfs  Fig 12(a)'s 5-12x band
//   retrieve_frac / sort_frac  Fig 12(b)'s split (sort < 30 %)

#include <benchmark/benchmark.h>

#include "bench/harness.h"

#include "oblivious/oblivious_store.h"
#include "storage/mem_block_device.h"
#include "storage/sim_device.h"
#include "util/random.h"

namespace steghide::bench {
namespace {

constexpr uint64_t kCapacityBlocks = 8192;  // N = 32 MB

void RunObliviousAccess(benchmark::State& state, uint64_t buffer_blocks) {
  for (auto _ : state) {
    const uint64_t hierarchy = 2 * kCapacityBlocks - 2 * buffer_blocks;
    storage::MemBlockDevice mem(hierarchy + kCapacityBlocks + 16, 4096);
    storage::SimBlockDevice sim(&mem, storage::DiskModelParams{});

    oblivious::ObliviousStoreOptions opts;
    opts.buffer_blocks = buffer_blocks;
    opts.capacity_blocks = kCapacityBlocks;
    opts.partition_base = 0;
    opts.scratch_base = hierarchy;
    opts.drbg_seed = 5 + buffer_blocks;
    auto store = oblivious::ObliviousStore::Create(&sim, opts);
    if (!store.ok()) std::abort();
    (*store)->set_clock_fn([&] { return sim.clock_ms(); });

    Bytes payload((*store)->payload_size(), 0x3c);
    for (uint64_t id = 0; id < kCapacityBlocks; ++id) {
      if (!(*store)->Insert(id, payload.data()).ok()) std::abort();
    }
    (*store)->ResetStats();
    const double measure_start = sim.clock_ms();

    // "Reads through the whole oblivious storage" — a full sweep in
    // random order.
    Rng rng(11 + buffer_blocks);
    std::vector<uint64_t> order(kCapacityBlocks);
    for (uint64_t i = 0; i < kCapacityBlocks; ++i) order[i] = i;
    rng.Shuffle(order);
    Bytes out((*store)->payload_size());
    constexpr uint64_t kReads = 2500;  // sampled sweep, same distribution
    for (uint64_t i = 0; i < kReads; ++i) {
      if (!(*store)->Read(order[i % order.size()], out.data()).ok()) {
        std::abort();
      }
    }

    const auto& st = (*store)->stats();
    const double total_ms = sim.clock_ms() - measure_start;
    const double obli_ms = total_ms / static_cast<double>(kReads);

    // Plain StegFS baseline: one uniformly random block read per request
    // on an identical simulated disk.
    storage::MemBlockDevice base_mem(kCapacityBlocks, 4096);
    storage::SimBlockDevice base_sim(&base_mem, storage::DiskModelParams{});
    Bytes blk(4096);
    for (int i = 0; i < 500; ++i) {
      if (!base_sim.ReadBlock(rng.Uniform(kCapacityBlocks), blk.data()).ok()) {
        std::abort();
      }
    }
    const double stegfs_ms = base_sim.clock_ms() / 500.0;

    state.counters["height"] = (*store)->height();
    state.counters["obli_access_ms"] = obli_ms;
    state.counters["stegfs_access_ms"] = stegfs_ms;
    state.counters["slowdown_vs_stegfs"] = obli_ms / stegfs_ms;
    const double accounted = st.retrieve_ms + st.sort_ms;
    state.counters["retrieve_frac"] =
        accounted > 0 ? st.retrieve_ms / accounted : 0.0;
    state.counters["sort_frac"] =
        accounted > 0 ? st.sort_ms / accounted : 0.0;
    state.counters["sort_io_share"] =
        static_cast<double>(st.reorder_reads + st.reorder_writes) /
        static_cast<double>(st.TotalIo());
  }
}

// Batch-size sweep: the same sweep workload served through
// ObliviousStore::MultiRead in groups of k. The per-request touch count
// is unchanged (one slot per non-empty level), so the win shows up as
//  * scan_passes dropping by ~k (one planner/executor sweep per group),
//  * a lower overhead *factor* under charge_index_io (the spilled
//    per-level index is read once per pass instead of once per request),
//  * and fewer virtual ms per read (the elevator-sorted per-level passes
//    amortize seeks on the rotational model).
void RunBatchedAccess(benchmark::State& state, uint64_t buffer_blocks,
                      uint64_t batch_k) {
  for (auto _ : state) {
    const uint64_t hierarchy = 2 * kCapacityBlocks - 2 * buffer_blocks;
    storage::MemBlockDevice mem(hierarchy + kCapacityBlocks + 16, 4096);
    storage::SimBlockDevice sim(&mem, storage::DiskModelParams{});

    oblivious::ObliviousStoreOptions opts;
    opts.buffer_blocks = buffer_blocks;
    opts.capacity_blocks = kCapacityBlocks;
    opts.partition_base = 0;
    opts.scratch_base = hierarchy;
    opts.drbg_seed = 5 + buffer_blocks;
    opts.charge_index_io = true;  // the §5.1.2 spilled-index variant
    auto store = oblivious::ObliviousStore::Create(&sim, opts);
    if (!store.ok()) std::abort();
    (*store)->set_clock_fn([&] { return sim.clock_ms(); });

    Bytes payload((*store)->payload_size(), 0x3c);
    for (uint64_t id = 0; id < kCapacityBlocks; ++id) {
      if (!(*store)->Insert(id, payload.data()).ok()) std::abort();
    }
    (*store)->ResetStats();
    const double measure_start = sim.clock_ms();

    // Identical request distribution for every k: uniform random ids,
    // grouped batch_k at a time.
    Rng rng(17 + buffer_blocks);
    constexpr uint64_t kReads = 2048;  // divisible by every swept k
    std::vector<uint64_t> ids(batch_k);
    Bytes outs(batch_k * (*store)->payload_size());
    for (uint64_t done = 0; done < kReads; done += batch_k) {
      for (uint64_t i = 0; i < batch_k; ++i) {
        ids[i] = rng.Uniform(kCapacityBlocks);
      }
      if (!(*store)->MultiRead(ids, outs.data()).ok()) std::abort();
    }

    const auto& st = (*store)->stats();
    const double total_ms = sim.clock_ms() - measure_start;
    state.counters["height"] = (*store)->height();
    state.counters["batch_k"] = static_cast<double>(batch_k);
    state.counters["obli_access_ms"] = total_ms / static_cast<double>(kReads);
    state.counters["scan_passes"] = static_cast<double>(st.scan_passes);
    state.counters["batched_requests"] =
        static_cast<double>(st.batched_requests);
    state.counters["probes_saved"] = static_cast<double>(st.probes_saved);
    state.counters["overhead_factor"] = st.OverheadFactor();
    state.counters["probe_index_io_per_read"] =
        static_cast<double>(st.level_probe_reads + st.index_io) /
        static_cast<double>(st.user_reads);
  }
}

}  // namespace
}  // namespace steghide::bench

int main(int argc, char** argv) {
  using namespace steghide::bench;
  for (uint64_t buffer : {64, 128, 256, 512, 1024}) {
    benchmark::RegisterBenchmark(
        ("Fig12/buffer_blocks:" + std::to_string(buffer) +
         "/paper_buffer_mb:" + std::to_string(buffer / 8)).c_str(),
        [buffer](benchmark::State& s) { RunObliviousAccess(s, buffer); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  // k ∈ {1, 4, 16, B}: k = 1 is the legacy one-request-per-pass cost,
  // k = B the largest group one buffer admits.
  constexpr uint64_t kBatchBuffer = 256;
  for (uint64_t k : {uint64_t{1}, uint64_t{4}, uint64_t{16}, kBatchBuffer}) {
    benchmark::RegisterBenchmark(
        ("Fig12Batch/buffer_blocks:" + std::to_string(kBatchBuffer) +
         "/batch_k:" + std::to_string(k)).c_str(),
        [k](benchmark::State& s) { RunBatchedAccess(s, kBatchBuffer, k); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  return RunBenchmarks(argc, argv);
}
