// Reproduces Table 4 of the paper: oblivious-storage height and overhead
// factor as a function of the agent's buffer size (E6).
//
// Scale note (README, "Virtual disk clock and N/B scaling"): the paper
// used N = 1 GB with buffers of 8-128 MB. The mechanism depends only on
// the ratio N/B (height k = log2(N/B)), so we run N = 32 MB with buffers
// 256 KB - 4 MB, which yields the same N/B sweep 128...8 and therefore
// the same heights 7...3 and overhead factors ~10k.
//
// Counters: height, overhead_factor (mean device I/Os per request;
// Table 4 reports 10k), plus the analytic 10k reference.

#include <benchmark/benchmark.h>

#include "bench/harness.h"

#include "oblivious/oblivious_store.h"
#include "storage/mem_block_device.h"
#include "storage/sim_device.h"
#include "util/random.h"

namespace steghide::bench {
namespace {

constexpr uint64_t kCapacityBlocks = 8192;  // N = 32 MB of 4 KB blocks

void RunOverhead(benchmark::State& state, uint64_t buffer_blocks) {
  for (auto _ : state) {
    const uint64_t hierarchy = 2 * kCapacityBlocks - 2 * buffer_blocks;
    storage::MemBlockDevice mem(hierarchy + kCapacityBlocks + 16, 4096);
    storage::SimBlockDevice sim(&mem, storage::DiskModelParams{});

    oblivious::ObliviousStoreOptions opts;
    opts.buffer_blocks = buffer_blocks;
    opts.capacity_blocks = kCapacityBlocks;
    opts.partition_base = 0;
    opts.scratch_base = hierarchy;
    opts.drbg_seed = 42 + buffer_blocks;
    auto store = oblivious::ObliviousStore::Create(&sim, opts);
    if (!store.ok()) std::abort();
    (*store)->set_clock_fn([&] { return sim.clock_ms(); });

    // Fill the store to capacity (the paper reads through a full store).
    Bytes payload((*store)->payload_size(), 0x5a);
    for (uint64_t id = 0; id < kCapacityBlocks; ++id) {
      if (!(*store)->Insert(id, payload.data()).ok()) std::abort();
    }
    (*store)->ResetStats();

    // Steady-state random reads.
    Rng rng(7 + buffer_blocks);
    Bytes out((*store)->payload_size());
    for (int i = 0; i < 2000; ++i) {
      if (!(*store)->Read(rng.Uniform(kCapacityBlocks), out.data()).ok()) {
        std::abort();
      }
    }

    const auto& st = (*store)->stats();
    const int k = (*store)->height();
    state.counters["height"] = k;
    state.counters["overhead_factor"] = st.OverheadFactor();
    state.counters["paper_overhead_10k"] = 10.0 * k;
    state.counters["probe_io_per_read"] =
        static_cast<double>(st.level_probe_reads) /
        static_cast<double>(st.user_reads);
    state.counters["sort_io_per_read"] =
        static_cast<double>(st.reorder_reads + st.reorder_writes) /
        static_cast<double>(st.user_reads);
  }
}

// Batch-size sweep over the same steady-state workload, spilled-index
// variant (charge_index_io): the Table-4 overhead factor falls with k
// because the per-level index read amortizes over the group while the
// slot touches stay one per level per request.
void RunBatchedOverhead(benchmark::State& state, uint64_t buffer_blocks,
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
    opts.drbg_seed = 42 + buffer_blocks;
    opts.charge_index_io = true;
    auto store = oblivious::ObliviousStore::Create(&sim, opts);
    if (!store.ok()) std::abort();
    (*store)->set_clock_fn([&] { return sim.clock_ms(); });

    Bytes payload((*store)->payload_size(), 0x5a);
    for (uint64_t id = 0; id < kCapacityBlocks; ++id) {
      if (!(*store)->Insert(id, payload.data()).ok()) std::abort();
    }
    (*store)->ResetStats();

    Rng rng(7 + buffer_blocks);
    constexpr uint64_t kReads = 2048;
    std::vector<uint64_t> ids(batch_k);
    Bytes outs(batch_k * (*store)->payload_size());
    for (uint64_t done = 0; done < kReads; done += batch_k) {
      for (uint64_t i = 0; i < batch_k; ++i) {
        ids[i] = rng.Uniform(kCapacityBlocks);
      }
      if (!(*store)->MultiRead(ids, outs.data()).ok()) std::abort();
    }

    const auto& st = (*store)->stats();
    const int k = (*store)->height();
    state.counters["height"] = k;
    state.counters["batch_k"] = static_cast<double>(batch_k);
    state.counters["overhead_factor"] = st.OverheadFactor();
    state.counters["scan_passes"] = static_cast<double>(st.scan_passes);
    state.counters["probes_saved"] = static_cast<double>(st.probes_saved);
    state.counters["index_io_per_read"] =
        static_cast<double>(st.index_io) / static_cast<double>(st.user_reads);
  }
}

}  // namespace
}  // namespace steghide::bench

int main(int argc, char** argv) {
  using namespace steghide::bench;
  // Same N/B ratios as the paper's 8M..128M buffers against 1 GB.
  for (uint64_t buffer : {64, 128, 256, 512, 1024}) {
    benchmark::RegisterBenchmark(
        ("Table4/buffer_blocks:" + std::to_string(buffer) +
         "/paper_buffer_mb:" + std::to_string(buffer / 8)).c_str(),
        [buffer](benchmark::State& s) { RunOverhead(s, buffer); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  constexpr uint64_t kBatchBuffer = 256;
  for (uint64_t k : {uint64_t{1}, uint64_t{4}, uint64_t{16}, kBatchBuffer}) {
    benchmark::RegisterBenchmark(
        ("Table4Batch/buffer_blocks:" + std::to_string(kBatchBuffer) +
         "/batch_k:" + std::to_string(k)).c_str(),
        [k](benchmark::State& s) { RunBatchedOverhead(s, kBatchBuffer, k); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  return RunBenchmarks(argc, argv);
}
