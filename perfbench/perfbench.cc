// Host-time serving benchmark of the Section-5 system. One invocation
// builds one workload's system, drives it from this thread and prints one
// JSON line of raw metrics; run.py turns that into the benchmark result.
//
//   perfbench --workload hot_read --seed 1 --seconds 10 --trace 0
//             [--dump spans.tsv]
//   perfbench --selftest --seed 1
//
// --trace 0: kSetups timed set-ups, then the closed-loop vdisk probe and
//            one serving phase -> end-to-end metrics.
// --trace 1: one bare set-up and serving phase (stats()-based per-layer
//            metrics), then a timed and traced set-up and serving phase
//            whose spans and device bursts go to --dump for selftime.py.
//            Each phase serves for half of --seconds.

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agent/dispatch/request_dispatcher.h"
#include "load.h"
#include "obs/trace_log.h"
#include "reference.h"
#include "stegfs/block_codec.h"
#include "system.h"
#include "timing_device.h"

namespace perfbench {
namespace {

namespace sh = steghide;

struct Workload {
  const char* name;
  double write_frac;
  bool deamortize;
  bool replicated;
  bool open_loop;
  double rate_per_s;
  /// Stream no-repeat window: more than the requests a block can stay in
  /// flight for (2B - 2 submissions in the closed loop).
  size_t window;
};

// Why these: see README.md.
constexpr Workload kWorkloads[] = {
    {"hot_read", 0.0, true, false, false, 0.0, 64},
    {"update_blocking", 0.5, false, false, false, 0.0, 64},
    {"replicated_open", 0.1, true, true, true, 1200.0, 128},
};
constexpr size_t kSessions = 32;
constexpr double kZipfTheta = 0.9;
/// Length of the closed-loop probe behind the vdisk_* figures: a full store
/// capacity of records, so the probe spans one whole re-order cycle of the
/// bottom level.
constexpr uint64_t kProbeRequests = 16384;
/// Timed set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 5;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dump;
  bool selftest = false;
};

using Metrics = std::vector<std::pair<std::string, double>>;

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return v[std::min(n - 1, static_cast<size_t>(q / 100.0 * n))];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Confines the process, and every thread it starts from now on, to the
/// last CPU it may run on.
bool PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

size_t Payload() {
  return sh::stegfs::BlockCodec(sh::storage::kDefaultBlockSize).payload_size();
}

uint64_t ContentSeed(uint64_t seed) { return seed ^ 0x636f6e74656e74ULL; }

/// Cumulative counters sampled at the edges of a serving phase.
struct Counters {
  sh::storage::IoSchedulerStats io;
  sh::oblivious::StegPartitionReader::Stats reader;
  sh::agent::UpdateStats update;
  sh::stegfs::CryptoTrafficSnapshot crypto;
  std::vector<sh::storage::IoStats> sims;
  uint64_t read_repairs = 0;
  uint64_t quorum_widened = 0;
  sh::storage::remote::RemoteStats remote;
  double vclock_ms = 0.0;

  static Counters Take(System& sys) {
    Counters c;
    c.io = sys.agent().store().io_stats();
    c.reader = sys.agent().reader().stats();
    c.update = sys.agent().volatile_agent().update_stats();
    c.crypto = sh::stegfs::GlobalCryptoTraffic();
    for (const auto* sim : sys.sims()) c.sims.push_back(sim->stats());
    if (auto* volumes = sys.volumes()) {
      for (size_t k = 0; k < volumes->shard_count(); ++k) {
        const auto s = volumes->replicated(k)->stats();
        c.read_repairs += s.read_repairs;
        c.quorum_widened += s.quorum_widened;
      }
      c.remote = volumes->remote_device(0, 1)->stats();
    }
    c.vclock_ms = sys.clock_ms();
    return c;
  }
};

struct Phase {
  LoadResult load;
  uint64_t attempted = 0;  // including the probe
  uint64_t failed = 0;
  bool checker_live = true;
  std::string first_error;
  double cpu_s = 0.0;      // system CPU over RunLoad (generator excluded)
  double gen_cpu_s = 0.0;  // the generator thread's CPU over RunLoad
  sh::agent::DispatcherStats dispatch;
  sh::oblivious::ObliviousStats store;
  Counters before;
  Counters after;
  /// Virtual disk time and request count behind vdisk_*, and the
  /// dispatcher's virtual p99.
  double vdisk_ms = 0.0;
  uint64_t vdisk_requests = 0;
  double vdisk_p99_ms = 0.0;

  uint64_t completed() const {
    return load.read_us.size() + load.write_us.size();
  }
  double ops_per_s() const {
    return Ratio(static_cast<double>(completed()), load.wall_ms() / 1000.0);
  }
  void Absorb(const LoadResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    checker_live = checker_live && (r.read_us.empty() || r.checker_live);
    if (first_error.empty()) first_error = r.first_error;
  }
};

sh::agent::DispatcherOptions DispatchOptions(System& sys, bool closed_loop,
                                             sh::obs::TraceLog* trace) {
  sh::agent::DispatcherOptions opts;
  opts.max_batch = kBufferBlocks;
  opts.clock_fn = [&sys] { return sys.clock_ms(); };
  opts.trace = trace;
  // Closed loops: a wide window makes every group exactly the session
  // count, whatever the host speed. Open loop: the default window.
  if (closed_loop) opts.commit_window = std::chrono::milliseconds(50);
  return opts;
}

/// Runs the rest of a deamortized re-order chain, so that its virtual
/// time is charged to the phase whose requests caused it.
void DrainReorders(System& sys) {
  bool more = true;
  while (more) {
    const sh::Status status = sys.agent().store().StepReorder(1u << 20, &more);
    if (!status.ok()) {
      std::fprintf(stderr, "re-order drain failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }
}

Phase Serve(System& sys, ReferenceModel& reference, RequestStream& stream,
            ArrivalStream* arrivals, const Workload& w, double seconds,
            sh::obs::TraceLog* trace) {
  Phase phase;
  {
    // The virtual figures come from a fixed-length closed-loop probe with
    // the idle re-order pump off: group fill is then the session count and
    // re-order progress follows the request sequence alone, so virtual time
    // does not depend on host speed (in the open loop, group fill does).
    sh::agent::DispatcherOptions opts = DispatchOptions(sys, true, nullptr);
    opts.maintenance_budget = 0;
    sh::agent::RequestDispatcher probe(&sys.agent(), opts);
    const double v0 = sys.clock_ms();
    LoadSpec spec{.write_frac = w.write_frac,
                  .sessions = kSessions,
                  .max_requests = kProbeRequests};
    const LoadResult r = RunLoad(sys, probe, reference, stream, nullptr, spec);
    probe.Stop();
    DrainReorders(sys);
    phase.Absorb(r);
    phase.vdisk_ms = sys.clock_ms() - v0;
    phase.vdisk_requests = r.attempted;
    phase.vdisk_p99_ms = probe.stats().p99_latency_ms;
  }

  sys.agent().store().ResetStats();
  if (sys.steg_timer() != nullptr) sys.steg_timer()->Reset();
  for (TimingBlockDevice* timer : sys.cache_timers()) timer->Reset();
  phase.before = Counters::Take(sys);
  sh::agent::RequestDispatcher dispatcher(
      &sys.agent(), DispatchOptions(sys, !w.open_loop, trace));
  if (trace != nullptr) {
    trace->Clear();
    trace->set_enabled(true);
  }
  LoadSpec spec{.write_frac = w.write_frac,
                .open_loop = w.open_loop,
                .sessions = kSessions,
                .rate_per_s = w.rate_per_s,
                .seconds = seconds};
  const double cpu0 = SystemCpuSeconds();
  const double gen_cpu0 = ThreadCpuSeconds();
  phase.load = RunLoad(sys, dispatcher, reference, stream, arrivals, spec);
  phase.cpu_s = SystemCpuSeconds() - cpu0;
  phase.gen_cpu_s = ThreadCpuSeconds() - gen_cpu0;
  dispatcher.Stop();
  if (trace != nullptr) trace->set_enabled(false);
  DrainReorders(sys);
  phase.Absorb(phase.load);
  phase.after = Counters::Take(sys);
  phase.dispatch = dispatcher.stats();
  phase.store = sys.agent().store().stats();
  return phase;
}

/// End-to-end figures of a serving phase. The phase is cut into windows
/// of equal work (between consecutive generator marks). Interference from
/// a shared host only ever slows a window down, so the figures pool the
/// faster half of the windows: their completions over their wall time,
/// their CPU per request, and the latency percentiles of their reads.
/// Closed loops rank windows by throughput; the open loop, whose
/// throughput is the offered rate, by mean read latency. A change to the
/// system moves every window, and with it that half. A run too short for
/// one full window counts as one window.
struct Windowed {
  double read_p50_us = 0.0;
  double read_p99_us = 0.0;
  double ops_per_s = 0.0;
  double cpu_us_per_op = 0.0;
};

Windowed WindowFigures(const LoadResult& r, double run_cpu_s,
                       bool open_loop) {
  std::vector<std::pair<double, double>> marks = r.marks;
  if (marks.size() < 2) {
    marks = {{r.t0_ms, 0.0}, {r.t1_ms + 1e-9, run_cpu_s}};
  }
  struct Window {
    double ms = 0.0;
    double cpu_s = 0.0;
    size_t done = 0;
    std::vector<double> reads;
  };
  std::vector<Window> windows;
  auto in = [](double t, double a, double b) { return t >= a && t < b; };
  for (size_t i = 0; i + 1 < marks.size(); ++i) {
    const auto [a, cpu_a] = marks[i];
    const auto [b, cpu_b] = marks[i + 1];
    Window w{b - a, cpu_b - cpu_a, 0, {}};
    for (size_t j = 0; j < r.read_us.size(); ++j) {
      if (in(r.read_done_ms[j], a, b)) w.reads.push_back(r.read_us[j]);
    }
    w.done = w.reads.size() +
             static_cast<size_t>(std::count_if(
                 r.write_done_ms.begin(), r.write_done_ms.end(),
                 [&](double t) { return in(t, a, b); }));
    windows.push_back(std::move(w));
  }
  auto mean_read = [](const Window& w) {
    double sum = 0.0;
    for (const double us : w.reads) sum += us;
    return Ratio(sum, static_cast<double>(w.reads.size()));
  };
  std::sort(windows.begin(), windows.end(),
            [&](const Window& x, const Window& y) {  // faster first
              return open_loop ? mean_read(x) < mean_read(y)
                               : x.done * y.ms > y.done * x.ms;
            });
  windows.resize((windows.size() + 1) / 2);
  Window pooled;
  for (Window& w : windows) {
    pooled.ms += w.ms;
    pooled.cpu_s += w.cpu_s;
    pooled.done += w.done;
    pooled.reads.insert(pooled.reads.end(), w.reads.begin(), w.reads.end());
  }
  const double done = static_cast<double>(pooled.done);
  return Windowed{Percentile(pooled.reads, 50), Percentile(pooled.reads, 99),
                  Ratio(done, pooled.ms / 1000.0),
                  Ratio(pooled.cpu_s * 1e6, done)};
}

std::unique_ptr<System> BuildOrDie(const SystemConfig& config,
                                   const ReferenceModel& reference) {
  auto sys = System::Build(config, reference);
  if (!sys.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 sys.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(sys).value();
}

/// Per-layer metrics read from stats() over one bare serving phase.
void StatsMetrics(System& sys, const Phase& p, Metrics& m) {
  const Counters& a = p.before;
  const Counters& b = p.after;
  const double ops = static_cast<double>(p.completed());
  auto add = [&m](const char* name, double v) { m.emplace_back(name, v); };

  add("gen.late_p99_us", Percentile(p.load.late_us, 99));
  add("gen.backlog_end", static_cast<double>(p.load.backlog_end));
  add("gen.conflict_waits", static_cast<double>(p.load.conflict_waits));
  add("gen.cpu_us_per_op", Ratio(p.gen_cpu_s * 1e6, ops));
  add("read_samples", static_cast<double>(p.load.read_us.size()));
  add("write_samples", static_cast<double>(p.load.write_us.size()));
  add("write_p50_us", Percentile(p.load.write_us, 50));
  add("write_p99_us", Percentile(p.load.write_us, 99));

  add("dispatch.mean_fill", p.dispatch.MeanFill());
  add("dispatch.groups", static_cast<double>(p.dispatch.groups));

  const double writes =
      static_cast<double>(b.update.data_updates - a.update.data_updates);
  add("agent.fig6_iterations_per_write",
      Ratio(static_cast<double>(b.update.loop_iterations -
                                a.update.loop_iterations),
            writes));
  add("agent.fig6_io_per_write",
      Ratio(static_cast<double>(b.update.io_reads + b.update.io_writes -
                                a.update.io_reads - a.update.io_writes),
            writes));

  const auto& s = p.store;
  add("store.scan_passes", static_cast<double>(s.scan_passes));
  add("store.level_probe_reads", static_cast<double>(s.level_probe_reads));
  add("store.index_io", static_cast<double>(s.index_io));
  add("store.overhead_factor", s.OverheadFactor());
  add("store.reorder_reads", static_cast<double>(s.reorder_reads));
  add("store.reorder_writes", static_cast<double>(s.reorder_writes));
  add("store.deferred_flushes", static_cast<double>(s.deferred_flushes));
  add("store.sort_vms", s.sort_ms);
  add("store.retrieve_vms", s.retrieve_ms);
  add("store.max_stall_vms", s.max_stall_ms);
  add("store.stall_p99_vms", s.stall_p99_ms);
  add("store.crypto_wall_ms", s.crypto_wall_ms);

  const double hits =
      static_cast<double>(b.reader.cache_hits - a.reader.cache_hits);
  const double fetches =
      static_cast<double>(b.reader.real_fetches - a.reader.real_fetches);
  add("reader.cache_hits", Ratio(100.0 * hits, hits + fetches));
  add("reader.real_fetches", fetches);

  add("crypto.mb_per_op",
      Ratio(static_cast<double>(b.crypto.bytes - a.crypto.bytes) / 1e6, ops));
  add("crypto.batches_per_op",
      Ratio(static_cast<double>(b.crypto.batches - a.crypto.batches), ops));

  add("io.drains", static_cast<double>(b.io.drains - a.io.drains));
  add("io.physical_reads",
      static_cast<double>(b.io.physical_reads - a.io.physical_reads));
  add("io.physical_writes",
      static_cast<double>(b.io.physical_writes - a.io.physical_writes));
  // Lifetime histogram: the scheduler offers no reset, so set-up drains
  // are included.
  add("io.queue_depth_p99", b.io.queue_depth_p99);

  // sims()[0] is the StegFS spindle; the cache spindles follow.
  double busy = 0.0;
  double seq = 0.0;
  double cache_ops = 0.0;
  for (size_t i = 0; i < b.sims.size(); ++i) {
    busy += b.sims[i].busy_ms - a.sims[i].busy_ms;
    if (i == 0) continue;
    seq += static_cast<double>(b.sims[i].sequential - a.sims[i].sequential);
    cache_ops += static_cast<double>(b.sims[i].total_ops() -
                                     a.sims[i].total_ops());
  }
  add("disk.cache.seq_frac", Ratio(seq, cache_ops));
  add("disk.busy_vms", busy);
  std::vector<double> shard_busy;
  size_t i = 1;
  for (const auto& shard : sys.cache_shards()) {
    double most = 0.0;
    for (size_t r = 0; r < shard.size(); ++r, ++i) {
      most = std::max(most, b.sims[i].busy_ms - a.sims[i].busy_ms);
    }
    shard_busy.push_back(most);
  }
  add("disk.shard_skew",
      Ratio(*std::max_element(shard_busy.begin(), shard_busy.end()),
            Median(shard_busy)));
  add("repl.read_repairs", static_cast<double>(b.read_repairs - a.read_repairs));
  add("repl.quorum_widened",
      static_cast<double>(b.quorum_widened - a.quorum_widened));
  add("remote.rpcs", static_cast<double>(b.remote.rpcs - a.remote.rpcs));
  add("remote.mb",
      static_cast<double>(b.remote.bytes_sent + b.remote.bytes_received -
                          a.remote.bytes_sent - a.remote.bytes_received) /
          1e6);
}

/// Writes the traced phase's spans and device bursts for selftime.py.
bool WriteDump(const std::string& path, const sh::obs::TraceLog& trace,
               System& sys, const LoadResult& load) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "W\t%.6f\t%.6f\n", load.t0_ms, load.t1_ms);
  const std::vector<std::string> tracks = trace.tracks();
  for (const sh::obs::TraceEvent& e : trace.events()) {
    if (e.kind != sh::obs::TraceEvent::Kind::kSpan) continue;
    const char* track =
        e.track < tracks.size() ? tracks[e.track].c_str() : "?";
    std::fprintf(f, "S\t%s\t%s\t%.6f\t%.6f\n", e.label(), track, e.ts_ms,
                 e.ts_ms + e.dur_ms);
  }
  auto bursts = [f](const char* device, const TimingBlockDevice* timer) {
    for (const Burst& b : timer->bursts()) {
      std::fprintf(f, "B\t%s\t%.6f\t%.6f\t%.6f\n", device, b.start_ms,
                   b.end_ms, b.busy_ms);
    }
  };
  bursts("dev.steg", sys.steg_timer());
  for (const TimingBlockDevice* timer : sys.cache_timers()) {
    bursts("dev.cache", timer);
  }
  return std::fclose(f) == 0;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics, const std::string& error) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf(", \"error\": \"");
  for (const char c : error) {
    if (c == '"' || c == '\\') std::putchar('\\');
    if (c >= 0x20) std::putchar(c);
  }
  std::printf("\", \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second) ? metrics[i].second : 0;
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), v);
  }
  std::printf("}}\n");
}

int SelfTest(uint64_t seed) {
  auto draw = [](uint64_t s) {
    RequestStream stream(s, kBlocks, 0.5, kZipfTheta, 64);
    ArrivalStream arrivals(s, 6000.0);
    std::vector<double> out;
    for (int i = 0; i < 20000; ++i) {
      const Request r = stream.Next();
      out.push_back(r.block * 2.0 + (r.write ? 1 : 0));
      out.push_back(arrivals.NextMs());
    }
    return out;
  };
  const auto first = draw(seed);
  const bool pure = first == draw(seed);
  const bool seeded = first != draw(seed + 1);
  // The no-repeat window holds: no block twice within 64 requests.
  bool window = true;
  for (size_t i = 0; i < first.size(); i += 2) {
    for (size_t j = i + 2; j < first.size() && j < i + 2 * 64; j += 2) {
      const auto bi = static_cast<uint64_t>(first[i]) / 2;
      const auto bj = static_cast<uint64_t>(first[j]) / 2;
      window = window && bi != bj;
    }
  }

  ReferenceModel ref(ContentSeed(seed), kBlocks, Payload());
  sh::Bytes good = ref.Pattern(7, 0);
  const bool accepts = ref.Matches(7, good);
  sh::Bytes flipped = good;
  flipped[flipped.size() - 1] ^= 0x80;
  const bool corrupt_caught = !ref.Matches(7, flipped);
  const bool misdirect_caught = !ref.Matches(8, good);
  ref.Ack(7, 1);
  const bool stale_caught = !ref.Matches(7, good);
  const bool new_accepted = ref.Matches(7, ref.Pattern(7, 1));

  const bool ok = pure && seeded && window && accepts && corrupt_caught &&
                  misdirect_caught && stale_caught && new_accepted;
  std::printf(
      "{\"selftest\": %s, \"stream_pure\": %d, \"seed_changes_stream\": %d, "
      "\"window\": %d, \"accepts_good\": %d, \"corrupt_caught\": %d, "
      "\"misdirect_caught\": %d, \"stale_caught\": %d, "
      "\"new_version_accepted\": %d}\n",
      ok ? "true" : "false", pure, seeded, window, accepts, corrupt_caught,
      misdirect_caught, stale_caught, new_accepted);
  return ok ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--selftest") {
      o.selftest = true;
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--dump") {
      o.dump = v;
    } else {
      return false;
    }
  }
  return o.selftest || (!o.workload.empty() && o.seconds > 0);
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--dump PATH] | --selftest\n");
    return 2;
  }
  // Timed waits of the generator should wake on time, not up to the
  // default 50 us timer slack late.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  if (o.selftest) return SelfTest(o.seed);

  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (o.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  // The replicated stack hands every scan I/O to a shard thread and every
  // I/O of shard 0's remote mirror to a server thread. On a virtual
  // machine, waking a thread on an idle virtual CPU costs a varying
  // hypervisor round trip, which made these figures swing by 2x between
  // runs. On one CPU a hand-off is a plain context switch.
  if (w->replicated && !PinToOneCpu()) {
    std::fprintf(stderr, "cannot pin to one CPU\n");
    return 1;
  }
  if (o.trace && o.dump.empty()) {
    std::fprintf(stderr, "--trace 1 needs --dump\n");
    return 2;
  }

  SystemConfig config;
  config.seed = o.seed;
  config.deamortize = w->deamortize;
  config.replicated = w->replicated;
  ArrivalStream arrivals(o.seed, w->open_loop ? w->rate_per_s : 1.0);
  auto fresh_stream = [&] {
    return RequestStream(o.seed, kBlocks, w->write_frac, kZipfTheta,
                         w->window);
  };
  Metrics m;

  if (!o.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<System> sys;
    std::unique_ptr<ReferenceModel> reference;
    for (int i = 0; i < kSetups; ++i) {
      sys.reset();  // one system alive at a time
      reference = std::make_unique<ReferenceModel>(ContentSeed(o.seed),
                                                   kBlocks, Payload());
      const double start = WallMs();
      sys = BuildOrDie(config, *reference);
      setup_s.push_back((WallMs() - start) / 1000.0);
    }
    RequestStream stream = fresh_stream();
    const Phase p =
        Serve(*sys, *reference, stream, &arrivals, *w, o.seconds, nullptr);
    const Windowed win = WindowFigures(p.load, p.cpu_s, w->open_loop);
    m.emplace_back("ops_per_s", win.ops_per_s);
    m.emplace_back("cpu_us_per_op", win.cpu_us_per_op);
    m.emplace_back("read_p50_us", win.read_p50_us);
    m.emplace_back("read_p99_us", win.read_p99_us);
    m.emplace_back("vdisk_ops_per_s",
                   Ratio(static_cast<double>(p.vdisk_requests),
                         p.vdisk_ms / 1000.0));
    m.emplace_back("vdisk_p99_ms", p.vdisk_p99_ms);
    m.emplace_back("setup_s", Median(setup_s));
    m.emplace_back("peak_rss_mb", PeakRssMiB());
    m.emplace_back("space_amp",
                   Ratio(static_cast<double>(sys->provisioned_bytes()),
                         static_cast<double>(kBlocks) * sys->payload()));
    m.emplace_back("read_samples", static_cast<double>(p.load.read_us.size()));
    m.emplace_back("write_samples",
                   static_cast<double>(p.load.write_us.size()));
    m.emplace_back("write_p50_us", Percentile(p.load.write_us, 50));
    m.emplace_back("write_p99_us", Percentile(p.load.write_us, 99));
    m.emplace_back("vdisk_requests", static_cast<double>(p.vdisk_requests));
    m.emplace_back("windows", static_cast<double>(p.load.marks.size() - 1));
    m.emplace_back("run_ops_per_s", p.ops_per_s());
    m.emplace_back("run_read_p99_us", Percentile(p.load.read_us, 99));
    const bool correct =
        p.failed == 0 && p.checker_live && p.load.attempted > 0;
    PrintResult(correct, p.attempted, p.failed, m,
                p.checker_live ? p.first_error
                               : "reference check accepted a corrupted read");
    return 0;
  }

  // Traced invocation, part 1: bare phase for the stats() metrics and the
  // untraced throughput.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string error;
  double untraced_ops = 0.0;
  {
    ReferenceModel reference(ContentSeed(o.seed), kBlocks, Payload());
    auto sys = BuildOrDie(config, reference);
    RequestStream stream = fresh_stream();
    const Phase p =
        Serve(*sys, reference, stream, &arrivals, *w, o.seconds / 2, nullptr);
    StatsMetrics(*sys, p, m);
    m.emplace_back("read_p99_us",
                   WindowFigures(p.load, p.cpu_s, w->open_loop).read_p99_us);
    m.emplace_back("space_amp",
                   Ratio(static_cast<double>(sys->provisioned_bytes()),
                         static_cast<double>(kBlocks) * sys->payload()));
    untraced_ops = p.ops_per_s();
    attempted += p.attempted;
    failed += p.failed;
    correct = correct && p.checker_live;
    error = p.first_error;
    // Prewarm must leave every block cached: serving never fetches from
    // the partition.
    for (const auto& [name, value] : m) {
      if (name == "reader.real_fetches" && value != 0) correct = false;
    }
  }

  // Part 2: timed and traced phase on a fresh system with the same seed.
  // The trace clock is the host wall clock, so every span carries its wall
  // start and end and selftime.py can nest spans by interval.
  sh::obs::TraceLog trace(size_t{1} << 28);
  trace.set_clock_fn([] { return WallMs(); });
  ArrivalStream traced_arrivals(o.seed, w->open_loop ? w->rate_per_s : 1.0);
  {
    ReferenceModel reference(ContentSeed(o.seed), kBlocks, Payload());
    config.trace = &trace;
    auto sys = BuildOrDie(config, reference);
    RequestStream stream = fresh_stream();
    const Phase p = Serve(*sys, reference, stream, &traced_arrivals, *w,
                          o.seconds / 2, &trace);
    attempted += p.attempted;
    failed += p.failed;
    correct = correct && p.checker_live;
    if (error.empty()) error = p.first_error;

    const TimingBlockDevice* steg = sys->steg_timer();
    m.emplace_back("dev.steg.calls", static_cast<double>(steg->calls()));
    m.emplace_back("dev.steg.wall_ms", steg->wall_ms());
    uint64_t calls = 0;
    uint64_t blocks = 0;
    double wall = 0.0;
    for (const TimingBlockDevice* timer : sys->cache_timers()) {
      calls += timer->calls();
      blocks += timer->blocks();
      wall += timer->wall_ms();
    }
    m.emplace_back("dev.cache.calls", static_cast<double>(calls));
    m.emplace_back("dev.cache.blocks_per_call",
                   Ratio(static_cast<double>(blocks),
                         static_cast<double>(calls)));
    m.emplace_back("dev.cache.wall_ms", wall);
    m.emplace_back("obs.dropped_events", static_cast<double>(trace.dropped()));
    m.emplace_back("obs.trace_overhead_pct",
                   Ratio(100.0 * (untraced_ops - p.ops_per_s()),
                         untraced_ops));
    m.emplace_back("traced_ops_per_s", p.ops_per_s());
    if (!WriteDump(o.dump, trace, *sys, p.load)) {
      std::fprintf(stderr, "cannot write %s\n", o.dump.c_str());
      return 1;
    }
  }
  PrintResult(correct && failed == 0, attempted, failed, m, error);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
