#include "common/cache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "common/bitops.h"

namespace secddr {

SetAssocCache::SetAssocCache(std::uint64_t size_bytes, unsigned assoc)
    : sets_count_(size_bytes / (static_cast<std::uint64_t>(assoc) * kLineSize)),
      assoc_(assoc),
      full_mask_(assoc >= 32 ? ~0u : (1u << assoc) - 1u),
      tags_(sets_count_ * assoc),
      lru_(sets_count_ * assoc),
      valid_(sets_count_, 0),
      dirty_(sets_count_, 0) {
  // The per-set way bitmasks are 32 bits; fail loudly in Release too —
  // a silent UB shift would corrupt hit/victim decisions in an
  // associativity sweep instead of stopping it.
  if (assoc < 1 || assoc > 32) {
    std::fprintf(stderr,
                 "SetAssocCache: associativity %u unsupported (1..32)\n",
                 assoc);
    std::abort();
  }
  assert(sets_count_ > 0);
  assert(size_bytes % (static_cast<std::uint64_t>(assoc) * kLineSize) == 0);
}

bool SetAssocCache::probe(Addr addr) const {
  return find_way(set_of(addr), tag_of(addr)) >= 0;
}

SetAssocCache::Result SetAssocCache::fill(Addr addr, bool dirty) {
  const std::uint64_t set = set_of(addr);
  const std::uint32_t mask = valid_[set];
  unsigned victim;
  if (mask != full_mask_) {
    // First invalid way in index order (as the AoS loop picked).
    victim = static_cast<unsigned>(std::countr_one(mask));
  } else {
    // Oldest LRU stamp; strict < keeps the lowest index on ties.
    const std::uint64_t* l = &lru_[set * assoc_];
    victim = 0;
    for (unsigned w = 1; w < assoc_; ++w)
      if (l[w] < l[victim]) victim = w;
  }
  Result r;
  const std::uint32_t bit = 1u << victim;
  if ((mask & bit) != 0) {
    r.evicted = true;
    r.victim_addr = addr_of(set, tags_[set * assoc_ + victim]);
    r.victim_dirty = (dirty_[set] & bit) != 0;
    ++stats_.evictions;
    if (r.victim_dirty) ++stats_.dirty_evictions;
  }
  valid_[set] |= bit;
  if (dirty)
    dirty_[set] |= bit;
  else
    dirty_[set] &= ~bit;
  tags_[set * assoc_ + victim] = tag_of(addr);
  lru_[set * assoc_ + victim] = ++lru_clock_;
  return r;
}

SetAssocCache::Result SetAssocCache::access(Addr addr, bool mark_dirty) {
  ++stats_.accesses;
  const std::uint64_t set = set_of(addr);
  const int w = find_way(set, tag_of(addr));
  if (w >= 0) {
    lru_[set * assoc_ + static_cast<unsigned>(w)] = ++lru_clock_;
    if (mark_dirty) dirty_[set] |= 1u << static_cast<unsigned>(w);
    Result r;
    r.hit = true;
    return r;
  }
  ++stats_.misses;
  return fill(addr, mark_dirty);
}

SetAssocCache::Result SetAssocCache::install(Addr addr, bool dirty) {
  const std::uint64_t set = set_of(addr);
  const int w = find_way(set, tag_of(addr));
  if (w >= 0) {
    lru_[set * assoc_ + static_cast<unsigned>(w)] = ++lru_clock_;
    if (dirty) dirty_[set] |= 1u << static_cast<unsigned>(w);
    Result r;
    r.hit = true;
    return r;
  }
  return fill(addr, dirty);
}

bool SetAssocCache::touch(Addr addr, bool mark_dirty) {
  const std::uint64_t set = set_of(addr);
  const int w = find_way(set, tag_of(addr));
  if (w < 0) return false;
  lru_[set * assoc_ + static_cast<unsigned>(w)] = ++lru_clock_;
  if (mark_dirty) dirty_[set] |= 1u << static_cast<unsigned>(w);
  return true;
}

bool SetAssocCache::invalidate(Addr addr) {
  const std::uint64_t set = set_of(addr);
  const int w = find_way(set, tag_of(addr));
  if (w < 0) return false;
  const std::uint32_t bit = 1u << static_cast<unsigned>(w);
  const bool was_dirty = (dirty_[set] & bit) != 0;
  valid_[set] &= ~bit;
  dirty_[set] &= ~bit;
  return was_dirty;
}

void SetAssocCache::flush_all() {
  std::fill(valid_.begin(), valid_.end(), 0u);
  std::fill(dirty_.begin(), dirty_.end(), 0u);
}

void SetAssocCache::save(serial::Sink& s) const {
  s.u64(sets_count_);
  s.u32(assoc_);
  for (const std::uint64_t t : tags_) s.u64(t);
  for (const std::uint64_t l : lru_) s.u64(l);
  for (const std::uint32_t v : valid_) s.u32(v);
  for (const std::uint32_t d : dirty_) s.u32(d);
  s.u64(lru_clock_);
  serial::put(s, stats_);
}

void SetAssocCache::load(serial::Source& s) {
  if (s.u64() != sets_count_ || s.u32() != assoc_)
    throw std::runtime_error("cache geometry mismatch");
  for (std::uint64_t& t : tags_) t = s.u64();
  for (std::uint64_t& l : lru_) l = s.u64();
  for (std::uint32_t& v : valid_) v = s.u32();
  for (std::uint32_t& d : dirty_) d = s.u32();
  lru_clock_ = s.u64();
  serial::get(s, stats_);
}

}  // namespace secddr
