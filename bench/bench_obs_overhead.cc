// Observability overhead guard: the instrumented hot path must stay
// within a few percent of an uninstrumented twin.
//
// The migration to obs:: cells left instruments compiled
// unconditionally into the serving hot paths — a memory-served read
// costs its lookup + payload copy PLUS two CounterCell bumps and one
// disabled-ScopedSpan check. There is deliberately no build-time off
// switch, so this bench is the guard that the "off" cost (registry
// wired or not, trace log disabled — the production default) stays
// noise-level: it times a synthetic in-memory hit path (mutex, map
// lookup, payload copy, LRU touch) with and without exactly that
// instrumentation, in paired rounds, and ABORTS when the median
// per-round overhead exceeds the budget. Running under
// `ctest -L bench_smoke` makes the regression un-mergeable rather than
// merely visible.
//
// Wall-clock is the measured quantity here — the one bench where that
// is correct: instrument cost is real CPU, invisible to the virtual
// disk clock.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "bench/harness.h"
#include "obs/metrics.h"
#include "obs/trace_log.h"

namespace steghide::bench {
namespace {

// Sanitizers inflate atomic ops by an order of magnitude; the guard
// then checks only that instrumentation is not catastrophically slow.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr double kMaxOverhead = 0.50;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr double kMaxOverhead = 0.50;
#else
constexpr double kMaxOverhead = 0.05;
#endif
#else
constexpr double kMaxOverhead = 0.05;
#endif

constexpr size_t kPayload = 4096;
constexpr size_t kBlocks = 64;
constexpr int kIters = 20000;
constexpr int kRounds = 24;

// The shared "service" work of one memory-served read: mutex, map
// lookup, payload copy out of the cached entry, LRU touch. Both twins
// run exactly this.
struct HitPath {
  struct Entry {
    uint64_t id;
    std::vector<uint8_t> data;
  };
  std::mutex mu;
  std::list<Entry> lru;
  std::unordered_map<uint64_t, std::list<Entry>::iterator> cache;
  std::vector<uint8_t> out = std::vector<uint8_t>(kPayload);

  HitPath() {
    for (uint64_t id = 0; id < kBlocks; ++id) {
      lru.push_front(Entry{id, std::vector<uint8_t>(
                                   kPayload, static_cast<uint8_t>(id))});
      cache.emplace(id, lru.begin());
    }
  }

  void Serve(uint64_t id) {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = cache.find(id);
    std::memcpy(out.data(), it->second->data.data(), kPayload);
    lru.splice(lru.begin(), lru, it->second);
    benchmark::DoNotOptimize(out.data());
  }
};

// One timed burst of the uninstrumented twin.
double PlainRoundMs(HitPath& path) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    path.Serve(static_cast<uint64_t>(i) % kBlocks);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// One timed burst of the instrumented twin: the same serve plus exactly
// what the real hit path carries — cache-hit + user-read counter bumps
// and the disabled-span pointer check (spans live at group granularity
// in the real funnel; the per-hit cost is the inert ScopedSpan).
double InstrumentedRoundMs(HitPath& path, obs::CounterCell& hits,
                           obs::CounterCell& reads, obs::TraceLog* log) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    obs::ScopedSpan span(log, "cache.hit", 0);
    path.Serve(static_cast<uint64_t>(i) % kBlocks);
    hits.Increment();
    reads.Increment();
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void ObsOverheadGuard(benchmark::State& state) {
  for (auto _ : state) {
    // Both twins serve one path, so they touch the same memory.
    HitPath path;
    obs::Registry registry;
    obs::CounterCell hits, reads;
    obs::Registration reg(&registry);
    reg.Counter("cache.hits", &hits);
    reg.Counter("store.user_reads", &reads);
    obs::TraceLog log;  // wired but disabled: the production default
    log.set_enabled(false);

    // Paired statistic: each round times both twins back to back, and
    // the guard takes the median of the per-round ratios. A round's two
    // halves share the machine's state of the moment (frequency,
    // co-tenant load), which swings the plain time by several percent
    // from round to round, so minima taken from different rounds would
    // let that swing through. The twins swap places every round, so
    // whatever running first or second costs cancels out.
    std::vector<double> plain_ms, instr_ms, ratios;
    for (int round = 0; round < kRounds; ++round) {
      if (round % 2 == 0) {
        plain_ms.push_back(PlainRoundMs(path));
        instr_ms.push_back(InstrumentedRoundMs(path, hits, reads, &log));
      } else {
        instr_ms.push_back(InstrumentedRoundMs(path, hits, reads, &log));
        plain_ms.push_back(PlainRoundMs(path));
      }
      ratios.push_back(instr_ms.back() / plain_ms.back());
    }

    const double overhead = Median(ratios) - 1.0;
    const double plain_ns = Median(plain_ms) * 1e6 / kIters;
    const double instr_ns = Median(instr_ms) * 1e6 / kIters;
    state.counters["plain_ns_per_op"] = plain_ns;
    state.counters["instrumented_ns_per_op"] = instr_ns;
    state.counters["overhead_pct"] = overhead * 100.0;
    state.counters["max_overhead_pct"] = kMaxOverhead * 100.0;

    if (overhead > kMaxOverhead) {
      std::fprintf(stderr,
                   "obs overhead guard FAILED: instrumented hot path is "
                   "%.2f%% slower than the uninstrumented twin (median "
                   "of %d paired rounds; budget %.0f%%; plain %.1f ns/op, "
                   "instrumented %.1f ns/op)\n",
                   overhead * 100.0, kRounds, kMaxOverhead * 100.0, plain_ns,
                   instr_ns);
      std::abort();
    }
    // The counters must actually have counted — a twin that optimized
    // the instruments away would make the guard vacuous.
    if (hits.value() != static_cast<uint64_t>(kIters) * kRounds) {
      std::abort();
    }
  }
}

BENCHMARK(ObsOverheadGuard)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace steghide::bench

int main(int argc, char** argv) {
  return steghide::bench::RunBenchmarks(argc, argv);
}
