// The shared on-chip metadata cache (Table I: 128KB, 64B lines, 8-way).
//
// Holds encryption-counter lines, integrity-tree nodes, and — in hash-tree
// mode — in-memory MAC lines. A hit on a tree node terminates the upward
// verification walk (the cached copy is trusted); Fig. 7 reports this
// cache's miss rate per workload.
#pragma once

#include <cstdint>

#include "common/cache.h"

namespace secddr::secmem {

/// Demand lookups and their misses (the Fig. 7 miss rate).
struct MetadataCacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;

  static auto fields(auto& s) { return std::tie(s.accesses, s.misses); }
};
static_assert(serial::lists_all_fields<MetadataCacheStats>());

class MetadataCache {
 public:
  MetadataCache(std::uint64_t size_bytes = 128 * 1024, unsigned assoc = 8)
      : cache_(size_bytes, assoc) {}

  /// Demand lookup (counts in the Fig. 7 miss rate). No allocation: fills
  /// happen via install() when the memory responds.
  bool lookup(Addr addr) {
    ++stats_.accesses;
    const bool hit = cache_.touch(addr, false);
    if (!hit) ++stats_.misses;
    return hit;
  }

  /// Marks a cached line dirty (counter increment / tree-node update).
  /// Returns false if the line is not present.
  bool mark_dirty(Addr addr) { return cache_.touch(addr, true); }

  /// Installs a line fetched from memory. The victim (if dirty) must be
  /// written back by the caller.
  SetAssocCache::Result install(Addr addr, bool dirty) {
    return cache_.install(addr, dirty);
  }

  bool probe(Addr addr) const { return cache_.probe(addr); }

  /// Checkpoint hooks: cache contents + demand stats.
  void save(serial::Sink& s) const {
    cache_.save(s);
    serial::put(s, stats_);
  }
  void load(serial::Source& s) {
    cache_.load(s);
    serial::get(s, stats_);
  }

  double miss_rate() const {
    return stats_.accesses ? static_cast<double>(stats_.misses) /
                                 static_cast<double>(stats_.accesses)
                           : 0.0;
  }
  std::uint64_t accesses() const { return stats_.accesses; }
  std::uint64_t misses() const { return stats_.misses; }
  void reset_stats() { stats_ = MetadataCacheStats{}; }

 private:
  SetAssocCache cache_;
  MetadataCacheStats stats_;
};

}  // namespace secddr::secmem
