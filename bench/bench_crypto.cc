// Bytes-per-cycle microbench for the crypto hot paths: AES-CBC block
// sealing/opening through the BlockCodec batch API, SHA-256 and the
// HashDrbg output stage (4 KiB draws, as dummy blocks take), each run
// once with the hardware kernels forced off (impl:scalar) and once with
// the dispatcher's resolved path (impl:accel — identical to scalar on
// CPUs without AES-NI/SHA-NI, in which case accel_speedup hovers at 1).
//
// Unlike the figure benches, the interesting axis here IS wall time —
// cycles spent in the kernels, read from the TSC around the batch call —
// so bytes_per_cycle/accel_speedup are the counters CI archives and
// bench_diff.py gates. Throughput numbers from the virtual disk clock
// never see these cycles (crypto runs off the simulated spindle).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "bench/harness.h"
#include "crypto/cbc.h"
#include "crypto/cpu_features.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "stegfs/block_codec.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace steghide::bench {
namespace {

/// Monotonic cycle counter: TSC on x86-64, the generic virtual counter
/// on aarch64 (a fixed-frequency timebase — "cycles" are timebase ticks
/// there, which still make scalar-vs-accel ratios meaningful).
inline uint64_t Cycles() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#elif defined(__aarch64__)
  uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

constexpr size_t kBlockSize = 4096;
constexpr size_t kBatchBlocks = 256;  // 1 MB of sealed blocks per call

/// Per-(benchmark, impl) bytes/cycle, kept across registrations so the
/// accel run can report its speedup over the scalar twin (benchmarks run
/// sequentially in one process; scalar registers first).
std::map<std::string, double>& ScalarBaseline() {
  static std::map<std::string, double> baseline;
  return baseline;
}

void Record(benchmark::State& state, const std::string& op, bool accel,
            double bytes_per_cycle) {
  state.counters["bytes_per_cycle"] = bytes_per_cycle;
  state.counters["accel"] = accel ? 1.0 : 0.0;
  if (!accel) {
    ScalarBaseline()[op] = bytes_per_cycle;
  } else if (const auto it = ScalarBaseline().find(op);
             it != ScalarBaseline().end() && it->second > 0) {
    state.counters["accel_speedup"] = bytes_per_cycle / it->second;
  }
}

enum class CbcOp { kSeal, kOpen };

void RunCbcBatch(benchmark::State& state, CbcOp op, bool accel) {
  crypto::ScopedCryptoImpl force(accel ? crypto::CryptoImpl::kAccel
                                       : crypto::CryptoImpl::kScalar);
  stegfs::BlockCodec codec(kBlockSize);
  crypto::HashDrbg drbg(uint64_t{2026});
  crypto::CbcCipher cipher;
  if (!cipher.SetKey(drbg.Generate(16)).ok()) std::abort();

  const size_t payload = codec.payload_size();
  const Bytes payloads = drbg.Generate(kBatchBlocks * payload);
  Bytes blocks(kBatchBlocks * kBlockSize);
  Bytes out(kBatchBlocks * payload);
  if (!codec.SealBlocks(cipher, drbg, payloads.data(), kBatchBlocks,
                        blocks.data())
           .ok()) {
    std::abort();
  }

  uint64_t cycles = 0;
  uint64_t bytes = 0;
  for (auto _ : state) {
    const uint64_t c0 = Cycles();
    const Status status =
        op == CbcOp::kSeal
            ? codec.SealBlocks(cipher, drbg, payloads.data(), kBatchBlocks,
                               blocks.data())
            : codec.OpenBlocks(cipher, blocks.data(), kBatchBlocks,
                               out.data());
    cycles += Cycles() - c0;
    if (!status.ok()) std::abort();
    bytes += kBatchBlocks * payload;
    benchmark::DoNotOptimize(blocks.data());
    benchmark::DoNotOptimize(out.data());
  }

  const std::string name(op == CbcOp::kSeal ? "CbcSeal" : "CbcOpen");
  Record(state, name, accel,
         cycles > 0 ? static_cast<double>(bytes) / cycles : 0.0);
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}

void RunSha256(benchmark::State& state, bool accel) {
  crypto::ScopedCryptoImpl force(accel ? crypto::CryptoImpl::kAccel
                                       : crypto::CryptoImpl::kScalar);
  crypto::HashDrbg drbg(uint64_t{2027});
  const Bytes data = drbg.Generate(kBatchBlocks * kBlockSize);

  uint64_t cycles = 0;
  uint64_t bytes = 0;
  for (auto _ : state) {
    const uint64_t c0 = Cycles();
    crypto::Sha256::Digest digest = crypto::Sha256::Hash(data);
    cycles += Cycles() - c0;
    bytes += data.size();
    benchmark::DoNotOptimize(digest);
  }

  Record(state, "Sha256", accel,
         cycles > 0 ? static_cast<double>(bytes) / cycles : 0.0);
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}

void RunDrbgGenerate(benchmark::State& state, bool accel) {
  crypto::ScopedCryptoImpl force(accel ? crypto::CryptoImpl::kAccel
                                       : crypto::CryptoImpl::kScalar);
  crypto::HashDrbg drbg(uint64_t{2028});
  Bytes out(kBlockSize);

  uint64_t cycles = 0;
  uint64_t bytes = 0;
  for (auto _ : state) {
    const uint64_t c0 = Cycles();
    for (size_t i = 0; i < kBatchBlocks; ++i) {
      drbg.Generate(out.data(), out.size());
      benchmark::DoNotOptimize(out.data());
    }
    cycles += Cycles() - c0;
    benchmark::ClobberMemory();
    bytes += kBatchBlocks * kBlockSize;
  }

  Record(state, "DrbgGenerate", accel,
         cycles > 0 ? static_cast<double>(bytes) / cycles : 0.0);
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}

}  // namespace
}  // namespace steghide::bench

int main(int argc, char** argv) {
  using namespace steghide::bench;
  // Scalar first: the accel twin reads its baseline from the same map.
  for (const bool accel : {false, true}) {
    const char* impl = accel ? "accel" : "scalar";
    benchmark::RegisterBenchmark(
        (std::string("Crypto/CbcSeal/impl:") + impl).c_str(),
        [accel](benchmark::State& s) {
          RunCbcBatch(s, CbcOp::kSeal, accel);
        });
    benchmark::RegisterBenchmark(
        (std::string("Crypto/CbcOpen/impl:") + impl).c_str(),
        [accel](benchmark::State& s) {
          RunCbcBatch(s, CbcOp::kOpen, accel);
        });
    benchmark::RegisterBenchmark(
        (std::string("Crypto/Sha256/impl:") + impl).c_str(),
        [accel](benchmark::State& s) { RunSha256(s, accel); });
    benchmark::RegisterBenchmark(
        (std::string("Crypto/DrbgGenerate/impl:") + impl).c_str(),
        [accel](benchmark::State& s) { RunDrbgGenerate(s, accel); });
  }
  return RunBenchmarks(argc, argv);
}
