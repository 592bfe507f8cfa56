// Copyright (c) endure-cpp authors. Licensed under the MIT license.

#include "workload.h"

#include <algorithm>
#include <cmath>

namespace ledger {
namespace {

constexpr uint64_t kMiB = 1ull << 20;

// Every workload issues all four classes, so every latency metric exists
// on every workload; where the traffic the workload models has no such
// class, its share is a small 2%.
const WorkloadSpec kWorkloads[] = {
    // reads_uncached: uniform reads over data 32x the block cache. Page
    // reads (pread + page CRC), fence pointers and the filters do most of
    // the work; the 5% writes keep WAL and compaction light. A page-store
    // or checksum optimisation shows here first.
    {"reads_uncached", {0.30, 0.50, 0.15, 0.05}, /*zipf=*/false,
     /*fresh_writes=*/false, /*entries=*/2000000, /*cache_bytes=*/2 * kMiB,
     /*warm_cache=*/false},
    // ingest: the paper's "Writes" session (Fig. 11) against the
    // read-leaning w11 tuning. Fresh keys arrive in pipelined runs, so PUT
    // coalescing, WAL appends, memtable seals, the compaction scheduler
    // and write stalls do most of the work while reads run beside
    // compaction.
    {"ingest", {0.05, 0.10, 0.02, 0.83}, /*zipf=*/false,
     /*fresh_writes=*/true, /*entries=*/2000000, /*cache_bytes=*/1 * kMiB,
     /*warm_cache=*/false},
    // hot_cached: YCSB-B (95% reads, Zipfian s = 0.99) on a data set that
    // fits in the block cache, warmed during set-up. Reads skip pread and
    // CRC, so the wire codec, the event loop and the cache dominate; a
    // page-store optimisation should show no change here.
    {"hot_cached", {0.02, 0.91, 0.02, 0.05}, /*zipf=*/true,
     /*fresh_writes=*/false, /*entries=*/200000, /*cache_bytes=*/32 * kMiB,
     /*warm_cache=*/true},
};

constexpr double kZipfS = 0.99;
// Scrambles Zipfian ranks over a connection's keys (a bijection for any
// key count below it, since it is prime), so hot keys are spread over the
// key space rather than packed into a few pages.
constexpr uint64_t kScramblePrime = 2654435761ull;

uint64_t Mix64(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t StreamSeed(std::string_view name, uint64_t seed, int conn) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over the workload name
  for (const char ch : name) {
    h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
  }
  return Mix64(h ^ Mix64(seed) ^ Mix64(static_cast<uint64_t>(conn) + 1));
}

double Zeta(uint64_t n, double s) {
  double sum = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), s);
  }
  return sum;
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Value WriteValue(Key key, uint64_t seq) {
  const uint64_t tag = (Mix64(key) | (1ull << 63)) & ~0xffffffffull;
  return tag | (seq & 0xffffffffull);
}

namespace {
bool CarriesTag(Key key, Value value) {
  return (value & ~0xffffffffull) == (WriteValue(key, 0) & ~0xffffffffull);
}
}  // namespace

OpStream::OpStream(const WorkloadSpec& spec, uint64_t entries, uint64_t seed,
                   int conn)
    : spec_(spec),
      entries_(entries),
      conn_(conn),
      owned_((entries - static_cast<uint64_t>(conn) + kClients - 1) /
             kClients),
      rng_(StreamSeed(spec.name, seed, conn)) {
  if (spec_.zipf) {
    zetan_ = Zeta(owned_, kZipfS);
    alpha_ = 1.0 / (1.0 - kZipfS);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(owned_), 1.0 - kZipfS)) /
           (1.0 - Zeta(2, kZipfS) / zetan_);
  }
}

uint64_t OpStream::OwnIndex() {
  uint64_t rank = 0;
  if (spec_.zipf) {
    const double u = rng_.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, kZipfS)) {
      rank = 1;
    } else {
      rank = std::min(owned_ - 1,
                      static_cast<uint64_t>(
                          static_cast<double>(owned_) *
                          std::pow(eta_ * u - eta_ + 1.0, alpha_)));
    }
    rank = (rank * kScramblePrime) % owned_;
  } else {
    rank = rng_.UniformInt(0, owned_ - 1);
  }
  return static_cast<uint64_t>(conn_) + kClients * rank;
}

Op OpStream::Next() {
  double u = rng_.NextDouble();
  int cls = 0;
  while (cls < kNumClasses - 1 && u >= spec_.mix[cls]) u -= spec_.mix[cls++];
  Op op;
  op.cls = static_cast<OpClass>(cls);
  switch (op.cls) {
    case kZ0:
      op.key = 2 * rng_.UniformInt(0, entries_ - 1) + 1;
      break;
    case kZ1:
      // Ingest reads its own fresh keys half the time: those sit in the
      // memtable and the young levels that compaction is rewriting.
      if (spec_.fresh_writes && writes_ > 0 && rng_.NextDouble() < 0.5) {
        op.key = 2 * entries_ +
                 rng_.UniformInt(0, writes_ - 1) * kClients + conn_;
      } else {
        op.key = 2 * OwnIndex();
      }
      break;
    case kQ:
      op.key = 2 * std::min(OwnIndex(), entries_ - kScanKeys);
      break;
    case kW:
      op.key = spec_.fresh_writes
                   ? 2 * entries_ + writes_ * kClients + conn_
                   : 2 * OwnIndex();
      op.value = WriteValue(op.key, ++writes_);
      break;
  }
  return op;
}

bool Oracle::Owns(Key key) const {
  if (key >= 2 * entries_) {
    return (key - 2 * entries_) % kClients == static_cast<Key>(conn_);
  }
  return key % 2 == 0 && (key / 2) % kClients == static_cast<Key>(conn_);
}

void Oracle::OnWriteAcked(Key key, Value value) {
  if (key < 2 * entries_) latest_[key] = value;
}

Value Oracle::Expected(Key key) const {
  if (key >= 2 * entries_) {
    // Fresh keys are written once: key j of this connection by its
    // (j+1)-th write (OpStream::Next), acknowledged before any read of it.
    return WriteValue(key, (key - 2 * entries_) / kClients + 1);
  }
  const auto it = latest_.find(key);
  return it != latest_.end() ? it->second : key / 2;
}

bool Oracle::CheckGet(const Op& op, std::optional<Value> got) const {
  if (op.cls == kZ0) return !got.has_value();
  return got.has_value() && Owns(op.key) && *got == Expected(op.key);
}

bool Oracle::CheckScan(const Op& op,
                       const std::vector<std::pair<Key, Value>>& got) const {
  if (got.size() != kScanKeys) return false;
  for (uint64_t j = 0; j < kScanKeys; ++j) {
    const Key key = op.key + 2 * j;
    const Value value = got[j].second;
    if (got[j].first != key) return false;
    // Another connection may be updating its keys concurrently: any value
    // it ever wrote to the key is a valid read.
    const bool ok = Owns(key) ? value == Expected(key)
                              : value == key / 2 || CarriesTag(key, value);
    if (!ok) return false;
  }
  return true;
}

}  // namespace ledger
