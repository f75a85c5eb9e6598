// Stream prefetcher (Table I: "Stream Prefetcher").
//
// Detects ascending/descending line streams within 4KB pages at the LLC
// and issues prefetches a configurable degree ahead. Prefetched fills go
// through the full security path (decryption/verification) like any other
// memory read, but never block the core.
#pragma once

#include <cstdint>
#include <vector>

#include "common/serial.h"
#include "common/types.h"

namespace secddr::sim {

struct PrefetcherConfig {
  unsigned streams = 16;   ///< tracked streams (across all cores)
  unsigned degree = 2;     ///< prefetches issued per trigger
  unsigned distance = 4;   ///< how far ahead of the demand stream
  unsigned train_threshold = 2;  ///< sequential hits before prefetching

  static auto fields(auto& c) {
    return std::tie(c.streams, c.degree, c.distance, c.train_threshold);
  }
};
static_assert(serial::lists_all_fields<PrefetcherConfig>());

class StreamPrefetcher {
 public:
  explicit StreamPrefetcher(const PrefetcherConfig& config = {});

  /// Trains on a demand LLC access and appends prefetch line addresses
  /// (line-aligned) to `out`.
  void train(Addr line_addr, std::vector<Addr>& out);

  std::uint64_t prefetches_issued() const { return issued_; }

  /// Checkpoint hooks: tracked streams + LRU clock + issue counter.
  void save(serial::Sink& s) const;
  void load(serial::Source& s);

 private:
  struct Stream {
    bool valid = false;
    Addr page = 0;
    Addr last_line = 0;
    int direction = 0;  ///< +1 / -1
    unsigned confidence = 0;
    std::uint64_t lru = 0;
  };

  PrefetcherConfig config_;
  std::vector<Stream> streams_;
  std::uint64_t lru_clock_ = 0;
  std::uint64_t issued_ = 0;
};

}  // namespace secddr::sim
