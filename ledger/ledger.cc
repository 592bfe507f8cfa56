// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// The Endure ledger: one end-to-end benchmark from client through an
// in-process net::Server to a robust-tuned, durable ShardedDB.
//
//   ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          [--work-dir <dir>] [--tiny] [--plant-wrong-result]
//
// Deployment (every workload): the robust tuning for the paper's w11
// (0.33, 0.33, 0.33, 0.01) at rho = 1 with B = 256 entries per page,
// opened by bridge::OpenTunedShardedDb on the file backend (durable,
// WalSyncMode::kBackground) with the block cache and background
// maintenance on. kClients connections drive it in a closed loop, one
// blocking thread each; a connection's consecutive writes go out as one
// pipelined burst (at most kWriteDepth), each read alone. Every reply is
// checked by the workload oracle.
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints per-layer
// metrics instead: the timed phase alternates untraced and traced
// quarters (ABBA), recording a span per client round trip in the traced
// ones; then the same operations are replayed directly on an identical
// deployment, timing each engine call and diffing the engine counters
// around it. Spans go to <work-dir>/spans/<workload>.csv (the latest traced
// run of each workload, so repeated runs do not pile up files of ~100 MB).
//
// The last line of stdout is one JSON object: correct, attempted,
// failed, metrics. A wrong result, a dropped operation or a failed
// workload-purpose guard makes the exit code non-zero.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include <time.h>
#include <unistd.h>

#include "bridge/tuned_db.h"
#include "core/cost_model.h"
#include "core/robust_tuner.h"
#include "lsm/sharded_db.h"
#include "lsm/statistics.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "util/env.h"
#include "util/wal.h"
#include "workload.h"

namespace ledger {
namespace {

namespace fs = std::filesystem;
using endure::NowNanos;
using endure::lsm::Statistics;

constexpr int kSetupRepeats = 7;
/// Tune calls timed after each set-up, and again after the timed phase:
/// tune_cpu_ms is their median, so it samples the whole run, not one
/// moment.
constexpr int kTunesPerSample = 5;
/// The timed phase is cut into this many equal windows; throughput and
/// round-trip statistics are medians over them, so a short stall of the
/// host moves one window, not the result.
constexpr int kWindows = 10;
constexpr double kRho = 1.0;
constexpr uint64_t kEntriesPerPage = 256;
/// Smoke scale: --tiny divides entries and cache by this.
constexpr uint64_t kTinyDivisor = 50;
/// User bytes per live entry (key + value).
constexpr double kUserBytesPerEntry = 16.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string work_dir = ".bench_build/ledger_work";
  bool tiny = false;
  bool plant_wrong_result = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--tiny") {
      a->tiny = true;
    } else if (flag == "--plant-wrong-result") {
      a->plant_wrong_result = true;
    } else if (flag == "--workload" && has_value) {
      a->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      a->seconds = std::atoi(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      a->trace = std::string(argv[++i]) == "1";
    } else if (flag == "--work-dir" && has_value) {
      a->work_dir = argv[++i];
    } else {
      std::fprintf(stderr, "ledger: bad argument %s\n", flag.c_str());
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

endure::SystemConfig LedgerConfig() {
  endure::SystemConfig cfg;
  cfg.entries_per_page = kEntriesPerPage;
  return cfg;
}

const endure::Workload kW11(0.33, 0.33, 0.33, 0.01);

/// Two shards, so two maintenance workers: with kClients client threads
/// and the server's event loop on a 4-CPU machine, more would crowd the
/// serving threads (ingest measured 35-50k ops/s with 4 shards, 65-78k
/// with 2).
int NumShards() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 2u));
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// CPU time of every thread of this process, exited ones included. Time
/// the host takes a virtual CPU away for (steal) is not charged to it, so
/// it measures the program's work where wall time on a shared host also
/// measures the neighbours'.
int64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Round trips in log-spaced buckets 1% wide, from 0.1 us up: fixed
/// memory whatever the throughput, so the benchmark's own footprint does
/// not move peak_rss_mb. A percentile interpolates within its bucket.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(double us, uint64_t n) {
    const double b = std::log(std::max(us, kMinUs) / kMinUs) / kLogGrowth;
    counts_[std::min<size_t>(static_cast<size_t>(b), kBuckets - 1)] +=
        static_cast<uint32_t>(n);
    total_ += n;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  uint64_t count() const { return total_; }

  /// Mean of the middle half of the round trips (ranks 25% to 75%), each
  /// bucket counted at its centre.
  double InterquartileMean() const {
    const double lo = 0.25 * static_cast<double>(total_);
    const double hi = 0.75 * static_cast<double>(total_);
    double below = 0, sum = 0, n = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      const double c = counts_[i];
      const double overlap = std::min(below + c, hi) - std::max(below, lo);
      if (overlap > 0) {
        sum += overlap * kMinUs *
               std::exp((static_cast<double>(i) + 0.5) * kLogGrowth);
        n += overlap;
      }
      below += c;
    }
    return n > 0 ? sum / n : 0;
  }

  double Percentile(double q) const {
    if (total_ == 0) return 0;
    const double rank = std::max(1.0, std::ceil(q * static_cast<double>(total_)));
    double below = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      const double c = counts_[i];
      if (below + c >= rank) {
        const double frac = (rank - below - 0.5) / c;
        return kMinUs * std::exp((static_cast<double>(i) + frac) * kLogGrowth);
      }
      below += c;
    }
    return kMinUs * std::exp(static_cast<double>(kBuckets) * kLogGrowth);
  }

 private:
  static constexpr double kMinUs = 0.1;
  static constexpr size_t kBuckets = 2400;  // up to ~2.3e9 us
  static inline const double kLogGrowth = std::log(1.01);
  std::vector<uint32_t> counts_;
  uint64_t total_ = 0;
};

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Bytes of the regular files under `dir`; files that vanish while it
/// walks (compaction deletes them) are skipped.
uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code size_ec;
    const uintmax_t size = it->file_size(size_ec);
    if (!size_ec && it->is_regular_file(size_ec)) bytes += size;
  }
  return bytes;
}

/// Keeps every CPU busy for a while. The host ramps a CPU's clock up only
/// after about a second of load; without this the set-up, tune and first
/// second of traffic of every run are timed on a cold CPU.
void WarmCpus() {
  constexpr int64_t kWarmNs = 2000000000;
  const int64_t end = NowNanos() + kWarmNs;
  std::vector<std::thread> spinners;
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency());
       ++i) {
    spinners.emplace_back([end] {
      uint64_t x = 0;
      while (NowNanos() < end) x = x * 6364136223846793005ull + 1;
      if (x == 1) std::fputs("", stderr);
    });
  }
  for (auto& t : spinners) t.join();
}

// ------------------------------------------------------------ deployment --

/// One opened deployment; removes its directory when destroyed.
class Deployment {
 public:
  Deployment(std::string dir, endure::TuningResult tuning,
             std::unique_ptr<endure::lsm::ShardedDB> db)
      : dir_(std::move(dir)), tuning_(tuning), db_(std::move(db)) {}
  ~Deployment() {
    db_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  endure::lsm::ShardedDB* db() const { return db_.get(); }
  const endure::TuningResult& tuning() const { return tuning_; }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  endure::TuningResult tuning_;
  std::unique_ptr<endure::lsm::ShardedDB> db_;
};

struct Scale {
  uint64_t entries;
  uint64_t cache_bytes;
};

/// Tune + open + bulk load + warm-up: what setup_s measures.
endure::StatusOr<std::unique_ptr<Deployment>> SetUp(const WorkloadSpec& spec,
                                                    const Scale& scale,
                                                    const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  const endure::SystemConfig cfg = LedgerConfig();
  const endure::CostModel model(cfg);
  const endure::TuningResult tuning =
      endure::RobustTuner(model).Tune(kW11, kRho);
  auto db_or = endure::bridge::OpenTunedShardedDb(
      cfg, tuning.tuning, scale.entries, NumShards(),
      /*background_maintenance=*/true, endure::lsm::StorageBackend::kFile, dir,
      endure::WalSyncMode::kBackground, scale.cache_bytes);
  if (!db_or.ok()) return db_or.status();
  auto dep = std::make_unique<Deployment>(dir, tuning,
                                          std::move(db_or).value());
  dep->db()->WaitForMaintenance();
  if (spec.warm_cache) {
    constexpr uint64_t kChunk = 1 << 16;
    // Rewrites every entry with its bulk value first, so the shards'
    // first merges into their last level, and the allocator growth they
    // bring, happen here. Without it the first such merge came ~20 s into
    // a hot_cached phase, and whether a run reached it depended on the
    // host's speed: peak_rss_mb read ~20 or ~36 MiB.
    std::vector<std::pair<endure::lsm::Key, endure::lsm::Value>> batch;
    for (uint64_t i = 0; i < scale.entries; ++i) {
      batch.emplace_back(2 * i, i);
      if (batch.size() == kChunk || i + 1 == scale.entries) {
        ENDURE_RETURN_IF_ERROR(dep->db()->PutBatch(batch));
        batch.clear();
      }
    }
    dep->db()->WaitForMaintenance();
    for (uint64_t lo = 0; lo < 2 * scale.entries; lo += 2 * kChunk) {
      auto got = dep->db()->Scan(lo, lo + 2 * kChunk);
      if (!got.ok()) return got.status();
    }
  }
  return dep;
}

// ----------------------------------------------------------- timed phase --

/// One client round trip: a single read, or a pipelined run of writes.
struct Request {
  uint32_t first_op = 0;  ///< index into ConnLog::ops
  uint32_t nops = 0;
  OpClass cls = kZ0;
  bool traced = false;
  uint32_t acked = 0;  ///< ops acknowledged with the right result
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// What one connection saw. Every run keeps counts and round trips per
/// window; a traced run also logs every request and op for the replay.
struct ConnLog {
  uint64_t attempted = 0;
  uint64_t acked = 0;
  uint64_t issued[kNumClasses] = {};
  uint64_t writes_acked = 0;
  uint64_t acked_traced[2] = {};  ///< acked in untraced / traced quarters
  uint64_t window_acked[kWindows] = {};
  /// Round trips by window (of completion) and class; a write counts its
  /// burst's round trip.
  LatencyHistogram rtt_us[kWindows][kNumClasses];
  std::vector<Op> ops;
  std::vector<Request> reqs;
  uint64_t retries = 0;
  std::string error;  ///< connection-level failure, if any
};

struct PhaseClock {
  int64_t start_ns = 0;
  int64_t end_ns = 0;  ///< deadline for starting a new request
  bool trace = false;
  /// ABBA: quarters 1 and 2 are traced, 0 and 3 are not.
  bool Traced(int64_t now) const {
    if (!trace) return false;
    const int64_t quarter = (now - start_ns) * 4 / (end_ns - start_ns);
    return quarter == 1 || quarter == 2;
  }
  /// The last window also takes the requests in flight at the deadline.
  int Window(int64_t now) const {
    return static_cast<int>(std::min<int64_t>(
        kWindows - 1, (now - start_ns) * kWindows / (end_ns - start_ns)));
  }
};

/// Sends one request and checks its replies; fills req.acked.
void Issue(endure::net::Client* client, Oracle* oracle, const Op* ops,
           Request* req) {
  const Op& op = ops[0];
  switch (req->cls) {
    case kZ0:
    case kZ1: {
      req->start_ns = NowNanos();
      auto got = client->Get(op.key);
      req->end_ns = NowNanos();
      req->acked = got.ok() && oracle->CheckGet(op, *got) ? 1 : 0;
      break;
    }
    case kQ: {
      req->start_ns = NowNanos();
      auto got = client->Scan(op.key, op.key + 2 * kScanKeys);
      req->end_ns = NowNanos();
      req->acked = got.ok() && oracle->CheckScan(op, *got) ? 1 : 0;
      break;
    }
    case kW: {
      auto pipe = client->NewPipeline();
      for (uint32_t i = 0; i < req->nops; ++i) {
        pipe.Put(ops[i].key, ops[i].value);
      }
      req->start_ns = NowNanos();
      auto results = pipe.Execute();
      req->end_ns = NowNanos();
      if (!results.ok() || results->size() != req->nops) break;
      for (uint32_t i = 0; i < req->nops; ++i) {
        if (!(*results)[i].status.ok()) continue;
        oracle->OnWriteAcked(ops[i].key, ops[i].value);
        ++req->acked;
      }
      break;
    }
  }
}

void DriveConnection(uint16_t port, const WorkloadSpec& spec,
                     uint64_t entries, uint64_t seed, int conn,
                     const PhaseClock& clock,
                     std::atomic<uint64_t>* fresh_acked, ConnLog* log) {
  endure::net::ClientOptions copts;
  copts.port = port;
  auto client_or = endure::net::Client::Connect(copts);
  if (!client_or.ok()) {
    log->error = client_or.status().ToString();
    return;
  }
  std::unique_ptr<endure::net::Client> client = std::move(client_or).value();
  OpStream stream(spec, entries, seed, conn);
  Oracle oracle(entries, conn);
  std::optional<Op> pending;
  std::vector<Op> burst;
  while (NowNanos() < clock.end_ns) {
    burst.clear();
    burst.push_back(pending.has_value() ? *pending : stream.Next());
    pending.reset();
    Request req;
    req.cls = burst.front().cls;
    while (req.cls == kW && burst.size() < kWriteDepth) {
      const Op next = stream.Next();
      if (next.cls != kW) {
        pending = next;
        break;
      }
      burst.push_back(next);
    }
    req.nops = static_cast<uint32_t>(burst.size());
    req.traced = clock.Traced(NowNanos());
    Issue(client.get(), &oracle, burst.data(), &req);

    const int w = clock.Window(req.end_ns);
    log->attempted += req.nops;
    log->acked += req.acked;
    log->issued[req.cls] += req.nops;
    log->acked_traced[req.traced ? 1 : 0] += req.acked;
    log->window_acked[w] += req.acked;
    log->rtt_us[w][req.cls].Add(
        static_cast<double>(req.end_ns - req.start_ns) / 1e3, req.nops);
    if (req.cls == kW) {
      log->writes_acked += req.acked;
      if (spec.fresh_writes) fresh_acked->fetch_add(req.acked);
    }
    if (clock.trace) {
      req.first_op = static_cast<uint32_t>(log->ops.size());
      log->ops.insert(log->ops.end(), burst.begin(), burst.end());
      log->reqs.push_back(req);
    }
  }
  log->retries = client->reconnects() + client->throttle_retries();
}

struct PhaseResult {
  std::vector<ConnLog> logs;
  int64_t length_ns = 0;  ///< the timed length (--seconds)
  Statistics engine;  ///< engine counters over the phase + its maintenance
  int64_t cpu_ns = 0;  ///< process CPU over the phase + its maintenance
  endure::net::ServerCounters server;  ///< server counter diff
  /// Deployment bytes over live user bytes, sampled through the phase.
  std::vector<double> space_amp;
};

endure::net::ServerCounters Diff(const endure::net::ServerCounters& a,
                                 const endure::net::ServerCounters& b) {
  endure::net::ServerCounters d;
  d.requests_served = a.requests_served - b.requests_served;
  d.puts_coalesced = a.puts_coalesced - b.puts_coalesced;
  d.coalesced_batches = a.coalesced_batches - b.coalesced_batches;
  d.bytes_read = a.bytes_read - b.bytes_read;
  d.bytes_written = a.bytes_written - b.bytes_written;
  return d;
}

endure::StatusOr<PhaseResult> RunPhase(Deployment* dep,
                                       const WorkloadSpec& spec,
                                       uint64_t entries, const Args& args) {
  auto server_or = endure::net::Server::Start(dep->db(), {});
  if (!server_or.ok()) return server_or.status();
  std::unique_ptr<endure::net::Server> server = std::move(server_or).value();

  PhaseResult r;
  r.logs.resize(kClients);
  const Statistics engine_before = dep->db()->TotalStats();
  const endure::net::ServerCounters server_before = server->counters();
  PhaseClock clock;
  clock.trace = args.trace;
  clock.start_ns = NowNanos();
  clock.end_ns =
      clock.start_ns + static_cast<int64_t>(args.seconds) * 1000000000;
  r.length_ns = clock.end_ns - clock.start_ns;
  std::atomic<uint64_t> fresh_acked{0};
  const int64_t cpu_before = ProcessCpuNanos();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(DriveConnection, server->port(), std::cref(spec),
                         entries, args.seed, c, std::cref(clock),
                         &fresh_acked, &r.logs[c]);
  }
  // Space is sampled through the phase rather than read once at the end:
  // a quiesced deployment keeps the segments its last merge replaced
  // until the next manifest is published, so one reading after a major
  // merge is twice one after a minor merge.
  constexpr int64_t kSampleNs = 250000000;
  for (int64_t next = clock.start_ns + kSampleNs; next < clock.end_ns;
       next += kSampleNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(next - NowNanos()));
    const double live = static_cast<double>(entries + fresh_acked.load());
    r.space_amp.push_back(static_cast<double>(DirBytes(dep->dir())) /
                          (live * kUserBytesPerEntry));
  }
  for (auto& t : clients) t.join();
  r.server = Diff(server->counters(), server_before);
  server->Shutdown();
  dep->db()->WaitForMaintenance();
  r.cpu_ns = ProcessCpuNanos() - cpu_before;
  const Statistics engine_after = dep->db()->TotalStats();
  r.engine = engine_after.Delta(engine_before);
  r.engine.sched_queue_peak = engine_after.sched_queue_peak;
  for (const ConnLog& log : r.logs) {
    if (!log.error.empty()) {
      return endure::Status::Internal("client: " + log.error);
    }
  }
  return r;
}

// --------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// The connections' logs merged.
struct Tally {
  uint64_t attempted = 0;
  uint64_t acked = 0;
  uint64_t issued[kNumClasses] = {};
  uint64_t writes_acked = 0;
  uint64_t acked_traced[2] = {};
  uint64_t retries = 0;
  uint64_t window_acked[kWindows] = {};
  LatencyHistogram rtt_us[kWindows][kNumClasses];
};

std::unique_ptr<Tally> Merge(const PhaseResult& phase) {
  auto tally = std::make_unique<Tally>();
  Tally& t = *tally;
  for (const ConnLog& log : phase.logs) {
    t.attempted += log.attempted;
    t.acked += log.acked;
    t.writes_acked += log.writes_acked;
    t.retries += log.retries;
    for (int i = 0; i < 2; ++i) t.acked_traced[i] += log.acked_traced[i];
    for (int c = 0; c < kNumClasses; ++c) t.issued[c] += log.issued[c];
    for (int w = 0; w < kWindows; ++w) {
      t.window_acked[w] += log.window_acked[w];
      for (int c = 0; c < kNumClasses; ++c) {
        t.rtt_us[w][c].Merge(log.rtt_us[w][c]);
      }
    }
  }
  return tally;
}

/// Median over the windows of a class's round-trip percentile.
double WindowedPercentile(const Tally& t, int cls, double q) {
  std::vector<double> per_window;
  for (const auto& window : t.rtt_us) {
    per_window.push_back(window[cls].Percentile(q));
  }
  return Median(per_window);
}

/// Median over the windows of a class's interquartile mean round trip.
double WindowedIqm(const Tally& t, int cls) {
  std::vector<double> per_window;
  for (const auto& window : t.rtt_us) {
    per_window.push_back(window[cls].InterquartileMean());
  }
  return Median(per_window);
}

/// Median over the windows of acked ops per second.
double WindowedOpsPerSec(const Tally& t, const PhaseResult& phase) {
  const double window_s = Seconds(phase.length_ns) / kWindows;
  std::vector<double> rates;
  for (const uint64_t acked : t.window_acked) {
    rates.push_back(static_cast<double>(acked) / window_s);
  }
  return Median(rates);
}

/// Checks that the server served, and the engine executed, exactly the
/// operations the clients sent, so a dropped op cannot pass as fast. A
/// scan counts once per shard it visits (all of them).
std::string CheckAccounting(const PhaseResult& phase, const Tally& t,
                            uint64_t shards) {
  char buf[256];
  const uint64_t gets = t.issued[kZ0] + t.issued[kZ1];
  if (phase.server.requests_served != t.attempted ||
      phase.engine.gets != gets ||
      phase.engine.range_queries != t.issued[kQ] * shards ||
      phase.engine.writes != t.writes_acked) {
    std::snprintf(buf, sizeof(buf),
                  "accounting mismatch: served %" PRIu64 "/%" PRIu64
                  " frames, gets %" PRIu64 "/%" PRIu64 ", scans %" PRIu64
                  "/%" PRIu64 ", writes %" PRIu64 "/%" PRIu64,
                  phase.server.requests_served, t.attempted,
                  static_cast<uint64_t>(phase.engine.gets), gets,
                  static_cast<uint64_t>(phase.engine.range_queries),
                  t.issued[kQ] * shards,
                  static_cast<uint64_t>(phase.engine.writes),
                  t.writes_acked);
    return buf;
  }
  return "";
}

double CacheHitRatio(const Statistics& s) {
  return Ratio(static_cast<double>(s.cache_hits),
               static_cast<double>(s.cache_hits + s.cache_misses));
}

/// Bytes one page occupies on disk: its entries, then the entry count and
/// the CRC (docs/durability.md).
double PageDiskBytes() {
  return kEntriesPerPage * endure::lsm::kEncodedEntryBytes + 8.0;
}

// ---------------------------------------------------------------- tracing --

/// One span: a layer boundary crossed by one request.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  ///< index of the causing span, or -1
  uint64_t request_id;
};

const char* const kClientSpan[kNumClasses] = {
    "client.get_z0", "client.get_z1", "client.scan", "client.put_run"};
const char* const kEngineSpan[kNumClasses] = {"lsm.get_z0", "lsm.get_z1",
                                              "lsm.scan", "lsm.put_batch"};

struct ReplayResult {
  std::vector<double> call_us[kNumClasses];  ///< per request
  std::vector<double> self_us[kNumClasses];  ///< traced requests only
  double logical_pages[kNumClasses] = {};    ///< device reads + cache hits
  uint64_t ops[kNumClasses] = {};
  Statistics engine;  ///< whole replay, after maintenance
  uint64_t wrong = 0;
};

/// Replays every request of `phase`, round-robin over the connections, as
/// direct engine calls on `dep` from one thread (the server, too, runs
/// every engine call on its one event-loop thread). Records an engine
/// span under the client span of each traced request.
ReplayResult Replay(const PhaseResult& phase, Deployment* dep,
                    uint64_t entries, std::vector<Span>* spans) {
  endure::lsm::ShardedDB* db = dep->db();
  ReplayResult r;
  std::vector<Oracle> oracles;
  for (int c = 0; c < kClients; ++c) oracles.emplace_back(entries, c);
  // Client spans first, so engine spans can name them as parents.
  std::vector<std::vector<int64_t>> client_span(kClients);
  uint64_t request_id = 0;
  for (int c = 0; c < kClients; ++c) {
    for (const Request& req : phase.logs[c].reqs) {
      client_span[c].push_back(-1);
      ++request_id;
      if (!req.traced) continue;
      client_span[c].back() = static_cast<int64_t>(spans->size());
      spans->push_back({kClientSpan[req.cls], req.start_ns, req.end_ns, -1,
                        request_id});
    }
  }
  const Statistics replay_before = db->TotalStats();
  std::vector<std::pair<Key, Value>> batch;
  std::vector<std::pair<Key, Value>> rows;
  size_t longest = 0;
  for (const ConnLog& log : phase.logs) {
    longest = std::max(longest, log.reqs.size());
  }
  for (size_t k = 0; k < longest; ++k) {
    for (int c = 0; c < kClients; ++c) {
      const ConnLog& log = phase.logs[c];
      if (k >= log.reqs.size()) continue;
      const Request& req = log.reqs[k];
      const Op* ops = &log.ops[req.first_op];
      const Statistics before = db->TotalStats();
      int64_t start = 0, end = 0;
      bool right = true;
      if (req.cls == kW) {
        batch.clear();
        for (uint32_t i = 0; i < req.nops; ++i) {
          batch.emplace_back(ops[i].key, ops[i].value);
        }
        start = NowNanos();
        const endure::Status st = db->PutBatch(batch);
        end = NowNanos();
        right = st.ok();
        for (const auto& kv : batch) {
          if (right) oracles[c].OnWriteAcked(kv.first, kv.second);
        }
      } else if (req.cls == kQ) {
        start = NowNanos();
        auto got = db->Scan(ops[0].key, ops[0].key + 2 * kScanKeys);
        end = NowNanos();
        rows.clear();
        if (got.ok()) {
          for (const auto& e : *got) rows.emplace_back(e.key, e.value);
        }
        right = got.ok() && oracles[c].CheckScan(ops[0], rows);
      } else {
        start = NowNanos();
        const std::optional<Value> got = db->Get(ops[0].key);
        end = NowNanos();
        right = oracles[c].CheckGet(ops[0], got);
      }
      if (!right) r.wrong += req.nops;
      const Statistics d = db->TotalStats().Delta(before);
      const double call_us = static_cast<double>(end - start) / 1e3;
      r.call_us[req.cls].push_back(call_us);
      r.ops[req.cls] += req.nops;
      r.logical_pages[req.cls] += static_cast<double>(
          d.point_pages_read + d.range_pages_read + d.cache_hits);
      const int64_t parent = client_span[c][k];
      if (parent >= 0) {
        const double rtt_us =
            static_cast<double>(req.end_ns - req.start_ns) / 1e3;
        r.self_us[req.cls].push_back(rtt_us - call_us);
        spans->push_back({kEngineSpan[req.cls], start, end, parent,
                          (*spans)[parent].request_id});
      }
    }
  }
  db->WaitForMaintenance();
  r.engine = db->TotalStats().Delta(replay_before);
  return r;
}

/// Encode + parse of every request and its reply on the phase's ops, as
/// the client and server codec would, in ns per op.
double CodecNsPerOp(const PhaseResult& phase) {
  namespace net = endure::net;
  uint64_t ops = 0;
  uint64_t sink = 0;
  bool ok = true;
  net::FrameDecoder decoder;
  net::Frame frame;
  auto roundtrip = [&](const std::string& bytes) {
    bool got = false;
    decoder.Feed(bytes.data(), bytes.size());
    ok = ok && decoder.Next(&frame, &got).ok() && got;
  };
  std::vector<std::pair<Key, Value>> rows;
  const int64_t start = NowNanos();
  for (const ConnLog& log : phase.logs) {
    for (const Op& op : log.ops) {
      ++ops;
      Key k = 0, hi = 0;
      Value v = 0;
      switch (op.cls) {
        case kZ0:
        case kZ1: {
          roundtrip(net::EncodeGetRequest(ops, op.key));
          ok = ok && net::ParseGetRequest(frame, &k).ok();
          std::optional<Value> value;
          if (op.cls == kZ1) value = k / 2;
          roundtrip(net::EncodeGetResponse(ops, value));
          ok = ok && net::ParseGetResponse(frame, &value).ok();
          sink += value.value_or(0);
          break;
        }
        case kQ: {
          roundtrip(
              net::EncodeScanRequest(ops, op.key, op.key + 2 * kScanKeys));
          ok = ok && net::ParseScanRequest(frame, &k, &hi).ok();
          rows.clear();
          for (Key key = k; key < hi; key += 2) rows.emplace_back(key, key / 2);
          roundtrip(net::EncodeScanResponse(ops, rows));
          ok = ok && net::ParseScanResponse(frame, &rows).ok();
          sink += rows.size();
          break;
        }
        case kW: {
          roundtrip(net::EncodePutRequest(ops, op.key, op.value));
          ok = ok && net::ParsePutRequest(frame, &k, &v).ok();
          roundtrip(net::EncodeStatusResponse(net::Opcode::kPut, ops,
                                              endure::Status::OK()));
          ok = ok && net::ParseStatusOnlyResponse(frame).ok();
          sink += v;
          break;
        }
      }
    }
  }
  const double ns = static_cast<double>(NowNanos() - start);
  if (!ok || sink == 1) std::fputs("ledger: codec round trip failed\n", stderr);
  return Ratio(ns, static_cast<double>(ops));
}

/// Median ns per KiB of Crc32 over one page-sized buffer.
double Crc32NsPerKib() {
  const size_t bytes = static_cast<size_t>(PageDiskBytes()) - 4;
  std::vector<unsigned char> page(bytes);
  endure::Rng rng(7);
  for (auto& b : page) b = static_cast<unsigned char>(rng.Next());
  std::vector<double> per_kib;
  uint32_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    constexpr int kCalls = 500;
    const int64_t start = NowNanos();
    for (int i = 0; i < kCalls; ++i) {
      page[0] = static_cast<unsigned char>(i);
      sink ^= endure::Crc32(page.data(), page.size());
    }
    const double ns = static_cast<double>(NowNanos() - start);
    per_kib.push_back(ns / kCalls / (static_cast<double>(bytes) / 1024.0));
  }
  if (sink == 1) std::fputs("", stderr);  // keeps the work observable
  return Median(per_kib);
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "ledger: cannot write %s\n", path.c_str());
    return;
  }
  std::fputs("index,name,start_ns,end_ns,parent,request_id\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu,%s,%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRIu64 "\n",
                 i, s.name, s.start_ns, s.end_ns, s.parent, s.request_id);
  }
  std::fclose(f);
}

// ---------------------------------------------------------------- guards --

/// Each workload must keep stressing the layer it was chosen for; a change
/// in sizes or tuning that turns one workload into another fails here.
/// The thresholds sit well outside the values measured at the commit that
/// set them (in brackets).
std::string CheckPurpose(const WorkloadSpec& spec, const Tally& t,
                         const PhaseResult& phase, int shards) {
  char buf[256];
  for (int w = 0; w < kWindows; ++w) {
    for (int c = 0; c < kNumClasses; ++c) {
      // A window's p90 needs at least ten samples beyond it.
      if (t.rtt_us[w][c].count() < 200) {
        std::snprintf(buf, sizeof(buf),
                      "only %" PRIu64 " %s samples in window %d",
                      t.rtt_us[w][c].count(), kClassNames[c], w);
        return buf;
      }
    }
  }
  const Statistics& e = phase.engine;
  const double hit = CacheHitRatio(e);
  const std::string name = spec.name;
  if (name == "reads_uncached") {
    // [hit ratio 0.25-0.28, device pages per get 0.97]
    const double pages_per_get = Ratio(static_cast<double>(e.point_pages_read),
                                       static_cast<double>(e.gets));
    if (hit > 0.4 || pages_per_get < 0.8) {
      std::snprintf(buf, sizeof(buf),
                    "reads_uncached: cache hit ratio %.3f (max 0.4), "
                    "device pages per get %.3f (min 0.8)",
                    hit, pages_per_get);
      return buf;
    }
  } else if (name == "hot_cached") {
    if (hit < 0.95) {  // [0.99]
      std::snprintf(buf, sizeof(buf),
                    "hot_cached: cache hit ratio %.3f (min 0.95)", hit);
      return buf;
    }
  } else if (name == "ingest") {
    // [~600 compactions per shard, 6.5 puts per batch]
    const double per_shard = static_cast<double>(e.compactions) / shards;
    const double puts_per_batch =
        Ratio(static_cast<double>(phase.server.puts_coalesced),
              static_cast<double>(phase.server.coalesced_batches));
    if (per_shard < 3 || puts_per_batch <= 1) {
      std::snprintf(buf, sizeof(buf),
                    "ingest: %.1f compactions per shard (min 3), "
                    "%.2f puts per batch (min > 1)",
                    per_shard, puts_per_batch);
      return buf;
    }
  }
  return "";
}

// ------------------------------------------------------------------ main --

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                attempted, failed);
  json += buf;
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Writes a wrong value, behind the clients' backs, under the first bulk
/// key connection 0 reads before writing it: the oracle must report it.
endure::Status PlantWrongResult(Deployment* dep, const WorkloadSpec& spec,
                                uint64_t entries, uint64_t seed) {
  OpStream stream(spec, entries, seed, 0);
  std::unordered_set<Key> written;
  for (;;) {
    const Op op = stream.Next();
    if (op.cls == kW) written.insert(op.key);
    if (op.cls == kZ1 && op.key < 2 * entries && !written.count(op.key)) {
      return dep->db()->Put(op.key, op.key / 2 + 1);
    }
  }
}

/// The per-layer metrics of a traced run (see BENCHMARK.json).
std::vector<Metric> LayerMetrics(const PhaseResult& phase, const Tally& t,
                                 const ReplayResult& rp,
                                 const endure::Tuning& tuning,
                                 uint64_t entries, int evaluations,
                                 double tune_wall_ms) {
  std::vector<Metric> m;
  const Statistics& e = phase.engine;
  const Statistics& re = rp.engine;
  double pages_per_op[kNumClasses];
  for (int c = 0; c < kW; ++c) {
    pages_per_op[c] = Ratio(rp.logical_pages[c], static_cast<double>(rp.ops[c]));
  }
  pages_per_op[kW] =
      Ratio(static_cast<double>(re.flush_pages_written +
                                re.compaction_pages_read +
                                re.compaction_pages_written),
            static_cast<double>(rp.ops[kW]));

  const char* const calls[kNumClasses] = {"get_z0", "get_z1", "scan",
                                          "put_batch"};
  for (int c = 0; c < kNumClasses; ++c) {
    m.push_back({std::string("lsm.call_us.") + calls[c],
                 Median(rp.call_us[c]), "us"});
  }
  for (int c = 0; c < kNumClasses; ++c) {
    m.push_back({std::string("lsm.pages_per_op.") + kClassNames[c],
                 pages_per_op[c], "pages/op"});
  }
  const double probes = static_cast<double>(re.bloom_probes);
  m.push_back({"lsm.bloom_useful_ratio",
               Ratio(static_cast<double>(re.bloom_negatives), probes),
               "ratio"});
  m.push_back({"lsm.bloom_fp_ratio",
               Ratio(static_cast<double>(re.bloom_false_positives), probes),
               "ratio"});
  // The engine counts fence skips on point lookups only; a scan that
  // skips a run by its key range shows as a lower range_seeks count.
  m.push_back({"lsm.fence_skips_per_get",
               Ratio(static_cast<double>(re.fence_skips),
                     static_cast<double>(rp.ops[kZ0] + rp.ops[kZ1])),
               "runs/op"});
  m.push_back({"lsm.range_seeks_per_q",
               Ratio(static_cast<double>(re.range_seeks),
                     static_cast<double>(rp.ops[kQ])),
               "runs/op"});
  m.push_back({"util.crc32_ns_per_kib", Crc32NsPerKib(), "ns/KiB"});
  m.push_back({"lsm.cache_hit_ratio", CacheHitRatio(e), "ratio"});
  m.push_back({"lsm.cache_evictions_per_op",
               Ratio(static_cast<double>(e.cache_evictions),
                     static_cast<double>(t.acked)),
               "pages/op"});
  for (int c = 0; c < kNumClasses; ++c) {
    m.push_back({std::string("net.self_us.") + kClassNames[c],
                 Median(rp.self_us[c]), "us"});
  }
  m.push_back({"client.ops_per_sec", WindowedOpsPerSec(t, phase), "1/s"});
  for (int c = 0; c < kNumClasses; ++c) {
    m.push_back({std::string("client.p50_us.") + kClassNames[c],
                 WindowedPercentile(t, c, 0.50), "us"});
  }
  for (int c = 0; c < kNumClasses; ++c) {
    m.push_back({std::string("client.p90_us.") + kClassNames[c],
                 WindowedPercentile(t, c, 0.90), "us"});
  }
  for (int c = 0; c < kNumClasses; ++c) {
    m.push_back({std::string("client.p99_us.") + kClassNames[c],
                 WindowedPercentile(t, c, 0.99), "us"});
  }
  m.push_back({"net.codec_ns_per_op", CodecNsPerOp(phase), "ns"});
  m.push_back({"net.bytes_per_op",
               Ratio(static_cast<double>(phase.server.bytes_read +
                                         phase.server.bytes_written),
                     static_cast<double>(t.attempted)),
               "B/op"});
  m.push_back({"net.puts_per_batch",
               Ratio(static_cast<double>(phase.server.puts_coalesced),
                     static_cast<double>(phase.server.coalesced_batches)),
               "puts"});
  m.push_back({"util.wal_bytes_per_write",
               Ratio(static_cast<double>(e.wal_bytes),
                     static_cast<double>(t.writes_acked)),
               "B"});
  m.push_back({"util.wal_syncs", static_cast<double>(e.wal_syncs), "count"});
  m.push_back({"lsm.write_amp",
               Ratio(static_cast<double>(e.flush_pages_written +
                                         e.compaction_pages_written) *
                         PageDiskBytes(),
                     static_cast<double>(t.writes_acked) *
                         endure::lsm::kEncodedEntryBytes),
               "ratio"});
  m.push_back({"lsm.flushes", static_cast<double>(e.flushes), "count"});
  m.push_back({"lsm.compactions", static_cast<double>(e.compactions), "count"});
  m.push_back({"lsm.write_stalls", static_cast<double>(e.write_stalls),
               "count"});
  m.push_back({"lsm.stall_ms", static_cast<double>(e.compaction_stall_ms),
               "ms"});
  m.push_back({"lsm.sched_queue_peak",
               static_cast<double>(e.sched_queue_peak), "jobs"});
  m.push_back({"core.evaluations", static_cast<double>(evaluations),
               "count"});
  m.push_back({"core.tune_wall_ms", tune_wall_ms, "ms"});
  // Predictions for the deployed (integer size ratio) tuning at the
  // deployed scale, as model_vs_system_test makes them.
  endure::SystemConfig scaled =
      endure::bridge::ScaledConfig(LedgerConfig(), entries);
  scaled.level_policy = endure::LevelPolicy::kInteger;
  const endure::Tuning deployed(
      tuning.policy, std::max(2.0, std::ceil(tuning.size_ratio - 1e-9)),
      tuning.filter_bits_per_entry);
  const endure::CostVector model = endure::CostModel(scaled).Costs(deployed);
  const double predicted[kNumClasses] = {model.z0, model.z1, model.q,
                                         model.w};
  for (int c = 0; c < kNumClasses; ++c) {
    m.push_back({std::string("core.io_residual.") + kClassNames[c],
                 Ratio(pages_per_op[c], predicted[c]), "ratio"});
  }
  m.push_back({"net.retries", static_cast<double>(t.retries), "count"});
  // Untraced over traced throughput, from the ABBA quarters of the phase.
  m.push_back({"trace.overhead",
               Ratio(static_cast<double>(t.acked_traced[0]),
                     static_cast<double>(t.acked_traced[1])),
               "ratio"});
  return m;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "ledger: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const uint64_t divisor = args.tiny ? kTinyDivisor : 1;
  const Scale scale{spec->entries / divisor, spec->cache_bytes / divisor};
  std::error_code ec;
  fs::create_directories(args.work_dir + "/spans", ec);
  const std::string dir = args.work_dir + "/db-" + std::to_string(::getpid());

  const endure::CostModel model(LedgerConfig());
  const endure::RobustTuner tuner(model);
  // Each Tune call, in process CPU (all solver threads) and in wall time.
  // Nothing else runs while it is timed: the deployment is idle and no
  // server is up.
  std::vector<double> tune_cpu_ms, tune_wall_ms;
  auto time_tunes = [&] {
    for (int i = 0; i < kTunesPerSample; ++i) {
      const int64_t cpu0 = ProcessCpuNanos();
      const int64_t t0 = NowNanos();
      (void)tuner.Tune(kW11, kRho);
      tune_wall_ms.push_back(static_cast<double>(NowNanos() - t0) / 1e6);
      tune_cpu_ms.push_back(
          static_cast<double>(ProcessCpuNanos() - cpu0) / 1e6);
    }
  };

  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  auto timed_setup = [&]() -> bool {
    dep.reset();
    const int64_t t0 = NowNanos();
    auto dep_or = SetUp(*spec, scale, dir);
    if (!dep_or.ok()) {
      std::fprintf(stderr, "ledger: setup: %s\n",
                   dep_or.status().ToString().c_str());
      return false;
    }
    dep = std::move(dep_or).value();
    setup_s.push_back(Seconds(NowNanos() - t0));
    time_tunes();
    return true;
  };

  WarmCpus();
  // The measured deployment is set up first; the further set-ups setup_s
  // takes its median over come after the phase, so peak_rss_mb covers one
  // set-up and the phase, not what the allocator kept of earlier
  // deployments (hot_cached read 51-61 MiB with six set-ups before).
  if (!timed_setup()) return 1;
  const endure::Tuning tuning = dep->tuning().tuning;
  const int evaluations = dep->tuning().evaluations;
  std::fprintf(stderr,
               "ledger: %s seed %" PRIu64 ", %" PRIu64
               " entries, %d shards, %s\n",
               spec->name, args.seed, scale.entries, NumShards(),
               tuning.ToString().c_str());

  if (args.plant_wrong_result) {
    const endure::Status st =
        PlantWrongResult(dep.get(), *spec, scale.entries, args.seed);
    if (!st.ok()) return 1;
  }

  auto phase_or = RunPhase(dep.get(), *spec, scale.entries, args);
  if (!phase_or.ok()) {
    std::fprintf(stderr, "ledger: %s\n", phase_or.status().ToString().c_str());
    return 1;
  }
  const PhaseResult& phase = *phase_or;
  const std::unique_ptr<Tally> tally = Merge(phase);
  const Tally& t = *tally;
  uint64_t failed = t.attempted - t.acked;
  std::string problem = CheckAccounting(phase, t, NumShards());
  if (problem.empty() && failed == 0 && !args.tiny) {
    problem = CheckPurpose(*spec, t, phase, NumShards());
  }
  std::fprintf(stderr,
               "  samples: z0 %" PRIu64 ", z1 %" PRIu64 ", q %" PRIu64
               ", w %" PRIu64 "; fail_ratio %.6f\n",
               t.issued[kZ0], t.issued[kZ1], t.issued[kQ], t.issued[kW],
               Ratio(static_cast<double>(failed),
                     static_cast<double>(t.attempted)));

  time_tunes();
  std::vector<Metric> metrics;
  if (!args.trace) {
    const double peak_rss_mb = PeakRssMb();
    for (int i = 1; i < kSetupRepeats; ++i) {
      if (!timed_setup()) return 1;
    }
    // Wall-clock throughput and tail latency move with the host: on the
    // shared 4-vCPU host this was tuned on, the time the host stole from
    // the virtual CPUs ranged from under 1% to 25% from run to run, and
    // ops_per_sec and the p90s spread 0.16-0.38 (IQR over median) across
    // seeds while process CPU per op spread 0.02. So the end-to-end set is
    // CPU per op plus the typical round trip of each class; throughput,
    // the median and the tails are per-layer metrics of the traced run.
    metrics.push_back({"cpu_us_per_op",
                       Ratio(static_cast<double>(phase.cpu_ns) / 1e3,
                             static_cast<double>(t.acked)),
                       "us"});
    // The typical round trip is the interquartile mean, not the median:
    // three connections queue at one event loop, so a round trip waits
    // behind zero, one or two others and the distribution has modes
    // tens of us apart (reads_uncached z1: p40 74 us, p50 90-105 us, p55
    // 105-115 us). The median sits in the gap and jumped between modes
    // from run to run (z1 p50 71-93 us in one set); the mean of the middle
    // half moves smoothly with the modes' weights and ignores the tails.
    for (int c = 0; c < kNumClasses; ++c) {
      metrics.push_back({std::string(kClassNames[c]) + "_iqm_us",
                         WindowedIqm(t, c), "us"});
    }
    const Statistics& e = phase.engine;
    metrics.push_back(
        {"io_per_op",
         Ratio(static_cast<double>(e.pages_read + e.pages_written),
               static_cast<double>(t.acked)),
         "pages/op"});
    metrics.push_back({"space_amp", Median(phase.space_amp), "ratio"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    metrics.push_back({"tune_cpu_ms", Median(tune_cpu_ms), "ms"});
  } else {
    // The replay deployment is identical to the measured one.
    dep.reset();
    auto replay_dep_or = SetUp(*spec, scale, dir);
    if (!replay_dep_or.ok()) {
      std::fprintf(stderr, "ledger: replay setup: %s\n",
                   replay_dep_or.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<Deployment> replay_dep = std::move(replay_dep_or).value();
    std::vector<Span> spans;
    const ReplayResult rp =
        Replay(phase, replay_dep.get(), scale.entries, &spans);
    failed += rp.wrong;
    WriteSpans(spans, args.work_dir + "/spans/" + spec->name + ".csv");
    metrics = LayerMetrics(phase, t, rp, tuning, scale.entries, evaluations,
                           Median(tune_wall_ms));
    if (problem.empty() && !args.tiny &&
        spec->name == std::string("reads_uncached")) {
      // [1.01 pages per z1]
      const double z1_pages =
          Ratio(rp.logical_pages[kZ1], static_cast<double>(rp.ops[kZ1]));
      if (z1_pages < 0.8 || z1_pages > 2.5) {
        problem = "reads_uncached: " + std::to_string(z1_pages) +
                  " pages per z1 (expected about 1)";
      }
    }
  }
  if (problem.empty() && t.retries != 0) {
    problem = std::to_string(t.retries) + " client retries";
  }

  const bool correct = failed == 0 && problem.empty();
  if (!problem.empty()) {
    std::fprintf(stderr, "ledger: FAILED: %s\n", problem.c_str());
  }
  if (failed != 0) {
    std::fprintf(stderr,
                 "ledger: FAILED: %" PRIu64 " of %" PRIu64
                 " operations failed or returned a wrong result\n",
                 failed, t.attempted);
  }
  PrintResult(correct, t.attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  ledger::Args args;
  if (!ledger::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ledger --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>] [--tiny] "
                 "[--plant-wrong-result]\n");
    return 2;
  }
  return ledger::Run(args);
}
