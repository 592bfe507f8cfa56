// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// The ledger's workloads: their definitions (with the reason each one
// exists), the seeded per-connection operation streams, and the result
// oracle that checks every reply.
//
// Key layout. The deployment is bulk loaded with keys 2i -> value i for
// i in [0, N) (bridge::OpenTunedShardedDb). Connection c owns the bulk
// keys with i % kClients == c: it is the only writer of those keys, so
// its oracle knows their exact current value. Empty point lookups (z0)
// probe odd keys below 2N, which nothing ever writes. Fresh keys
// (ingest) live at 2N and above, out of every scan's range.

#ifndef ENDURE_LEDGER_WORKLOAD_H_
#define ENDURE_LEDGER_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lsm/entry.h"
#include "util/random.h"

namespace ledger {

using endure::lsm::Key;
using endure::lsm::Value;

/// The paper's four query classes.
enum OpClass : uint8_t { kZ0 = 0, kZ1 = 1, kQ = 2, kW = 3 };
inline constexpr int kNumClasses = 4;
inline constexpr const char* kClassNames[kNumClasses] = {"z0", "z1", "q",
                                                         "w"};

/// Client connections, one blocking thread each (closed loop).
inline constexpr int kClients = 3;
/// Bulk keys every range query returns.
inline constexpr uint64_t kScanKeys = 16;
/// Longest run of consecutive writes sent as one pipelined burst.
inline constexpr size_t kWriteDepth = 16;

struct WorkloadSpec {
  const char* name;
  /// Shares of z0, z1, q, w in each connection's stream.
  double mix[kNumClasses];
  /// Key popularity: Zipfian (s = 0.99, YCSB) or uniform.
  bool zipf;
  /// Writes insert fresh keys (true) or update the writer's bulk keys.
  bool fresh_writes;
  /// Bulk-loaded entries.
  uint64_t entries;
  /// Block cache budget.
  uint64_t cache_bytes;
  /// Set-up rewrites the whole data set with its bulk values, then reads
  /// it once, so the timed phase starts after the first merges into the
  /// last level and with a warm cache.
  bool warm_cache;
};

/// The named workload, or null.
const WorkloadSpec* FindWorkload(std::string_view name);

/// One operation. For kQ the range is [key, key + 2 * kScanKeys).
struct Op {
  OpClass cls = kZ0;
  Key key = 0;
  Value value = 0;  ///< kW only
};

/// The value a connection's `seq`-th write stores under `key`: the upper
/// half is a hash of the key, so a value read back can be traced to a
/// write of that key, never confused with a bulk value (< 2^32).
Value WriteValue(Key key, uint64_t seq);

/// The deterministic operation stream of one connection: a function of
/// (workload, seed, connection) alone. Reads only target keys written
/// before them in the same stream, so a closed-loop client that sends the
/// ops in order has every such write acknowledged first.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, uint64_t entries, uint64_t seed,
           int conn);

  Op Next();

 private:
  /// A bulk key index owned by this connection, drawn by popularity.
  uint64_t OwnIndex();

  const WorkloadSpec& spec_;
  const uint64_t entries_;
  const int conn_;
  const uint64_t owned_;  ///< bulk keys this connection owns
  endure::Rng rng_;
  uint64_t writes_ = 0;
  // Zipfian sampler state (Gray et al.'s closed form).
  double zetan_ = 0, alpha_ = 0, eta_ = 0;
};

/// Checks the replies one connection receives against what it wrote.
class Oracle {
 public:
  Oracle(uint64_t entries, int conn) : entries_(entries), conn_(conn) {}

  void OnWriteAcked(Key key, Value value);

  /// A z0 must miss; a z1 must return the key's current value.
  bool CheckGet(const Op& op, std::optional<Value> got) const;

  /// A range query must return exactly its kScanKeys bulk keys in order,
  /// each with a value that was written to it.
  bool CheckScan(const Op& op,
                 const std::vector<std::pair<Key, Value>>& got) const;

 private:
  bool Owns(Key key) const;
  /// The value `key` must hold now (it is owned by this connection).
  Value Expected(Key key) const;

  const uint64_t entries_;
  const int conn_;
  std::unordered_map<Key, Value> latest_;  ///< updated bulk keys only
};

}  // namespace ledger

#endif  // ENDURE_LEDGER_WORKLOAD_H_
