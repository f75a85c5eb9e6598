// Generic set-associative write-back cache model with true-LRU replacement.
//
// Used for the private L1s, the shared LLC, and the 128KB security-metadata
// cache (Table I). This is a tag store only: the timing simulator never
// moves data bytes, it tracks presence and dirtiness.
#pragma once

#include <cstdint>
#include <vector>

#include "common/serial.h"
#include "common/types.h"

namespace secddr {

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;

  double miss_rate() const {
    return accesses ? static_cast<double>(misses) /
                          static_cast<double>(accesses)
                    : 0.0;
  }

  static auto fields(auto& s) {
    return std::tie(s.accesses, s.misses, s.evictions, s.dirty_evictions);
  }
};
static_assert(serial::lists_all_fields<CacheStats>());

/// Tag-store cache. All addresses are byte addresses; lines are 64B.
class SetAssocCache {
 public:
  /// `size_bytes` must be a multiple of `assoc * kLineSize`.
  SetAssocCache(std::uint64_t size_bytes, unsigned assoc);

  /// Result of an allocating access/install.
  struct Result {
    bool hit = false;
    bool evicted = false;
    Addr victim_addr = 0;
    bool victim_dirty = false;
  };

  /// True if the line is present (no LRU update, no stats).
  bool probe(Addr addr) const;

  /// Demand access: counts stats, updates LRU, allocates on miss.
  Result access(Addr addr, bool mark_dirty);

  /// Fill without demand-stat accounting (e.g. prefetch or metadata
  /// install); still evicts and updates LRU.
  Result install(Addr addr, bool dirty);

  /// LRU/dirty update iff present; returns whether the line was present.
  bool touch(Addr addr, bool mark_dirty);

  /// Removes the line if present; returns whether it was dirty.
  bool invalidate(Addr addr);

  /// Drops every line (e.g. DIMM replacement); dirty contents are lost.
  void flush_all();

  const CacheStats& stats() const { return stats_; }
  std::uint64_t size_bytes() const { return sets_count_ * assoc_ * kLineSize; }
  unsigned associativity() const { return assoc_; }

  /// Checkpoint hooks: the full mutable state (tags, LRU stamps, validity,
  /// dirtiness, stats). load() requires a cache constructed with the same
  /// geometry and throws std::runtime_error on mismatch.
  void save(serial::Sink& s) const;
  void load(serial::Source& s);

 private:
  // Structure-of-arrays layout: probes — the per-cycle hot path — scan
  // only the dense tag array (a 16-way set is two cache lines instead of
  // six), with validity in a per-set bitmask. Dirty bits and LRU stamps
  // are touched only on hits and fills.
  std::uint64_t set_of(Addr addr) const { return line_index(addr) % sets_count_; }
  std::uint64_t tag_of(Addr addr) const { return line_index(addr) / sets_count_; }
  Addr addr_of(std::uint64_t set, std::uint64_t tag) const {
    return (tag * sets_count_ + set) << kLineBits;
  }
  /// Way index of `tag` within `set`, or -1.
  int find_way(std::uint64_t set, std::uint64_t tag) const {
    const std::uint32_t mask = valid_[set];
    const std::uint64_t* t = &tags_[set * assoc_];
    for (unsigned w = 0; w < assoc_; ++w)
      if (((mask >> w) & 1u) != 0 && t[w] == tag) return static_cast<int>(w);
    return -1;
  }
  Result fill(Addr addr, bool dirty);

  std::uint64_t sets_count_;
  unsigned assoc_;
  std::uint32_t full_mask_;
  std::vector<std::uint64_t> tags_;   ///< sets_count_ * assoc_
  std::vector<std::uint64_t> lru_;    ///< sets_count_ * assoc_ (larger = newer)
  std::vector<std::uint32_t> valid_;  ///< per-set way bitmask
  std::vector<std::uint32_t> dirty_;  ///< per-set way bitmask
  std::uint64_t lru_clock_ = 0;
  CacheStats stats_;
};

}  // namespace secddr
