#include "src/sim/page_cache.h"

#include <algorithm>
#include <cassert>

namespace fsbench {

// Keep the key table's load factor at or under 0.25 at the worst-case
// live-node count so linear probes are nearly collision-free and the table
// never rehashes. Slots are 4 bytes; even the default ~105k-page ARC cache
// pays only 4 MiB.
PageCache::PageCache(size_t capacity_pages, EvictionPolicyKind policy_kind)
    : capacity_(capacity_pages),
      kind_(policy_kind),
      geometry_(PolicyGeometry::For(policy_kind, capacity_pages)),
      table_(PowerOfTwoAtLeast(4 * geometry_.max_live_nodes, 16)),
      inode_index_(64) {
  assert(capacity_ > 0);
  const size_t max_nodes = geometry_.max_live_nodes;
  keys_.reserve(max_nodes);
  list_meta_.reserve(max_nodes);
  links_.reserve(max_nodes);
  ino_links_.reserve(max_nodes);
  dirty_links_.reserve(max_nodes);
  blocks_.reserve(max_nodes);
  hashes_.reserve(max_nodes);
  slots_.reserve(max_nodes);
}

// --- hash table -------------------------------------------------------------

void PageCache::TableInsertAt(size_t slot, uint32_t node) {
  assert(table_[slot].empty());
  table_[slot].id = node;
  slots_[node] = static_cast<uint32_t>(slot);
}

void PageCache::TableEraseNode(uint32_t node) {
  assert(table_[slots_[node]].id == node);
  ++table_erase_count_;
  last_erase_hole_ = table_.Erase(
      slots_[node], [this](FlatId slot) { return hashes_[slot.id]; },
      [this](FlatId slot, size_t pos) { slots_[slot.id] = static_cast<uint32_t>(pos); });
}

// --- slab -------------------------------------------------------------------

uint32_t PageCache::AllocNode(const PageKey& key, uint32_t hash) {
  uint32_t n;
  if (free_head_ != kNil) {
    n = free_head_;
    free_head_ = links_[n].next;
  } else {
    assert(slab_size_ < geometry_.max_live_nodes);
    n = static_cast<uint32_t>(slab_size_++);
    keys_.emplace_back();
    list_meta_.push_back(0);
    links_.emplace_back();
    ino_links_.emplace_back();
    dirty_links_.emplace_back();
    blocks_.push_back(kInvalidBlock);
    hashes_.push_back(0);
    slots_.push_back(0);
  }
  keys_[n] = key;
  hashes_[n] = hash;
  list_meta_[n] = 0;
  blocks_[n] = kInvalidBlock;
  links_[n] = Link{};
  ino_links_[n] = Link{};
  dirty_links_[n] = Link{};
  ++live_count_;
  return n;
}

void PageCache::ReleaseNode(uint32_t n) {
  list_meta_[n] = static_cast<uint8_t>(CacheListId::kNone);
  links_[n].next = free_head_;
  free_head_ = n;
  --live_count_;
}

// --- intrusive policy lists -------------------------------------------------

void PageCache::ListLinkBefore(CacheListId id, uint32_t pos, uint32_t n) {
  ListAnchor& anchor = AnchorOf(id);
  SetList(n, id);
  Link& link = links_[n];
  if (pos == kNil) {  // insert at the back
    link.prev = anchor.tail;
    link.next = kNil;
    if (anchor.tail != kNil) {
      links_[anchor.tail].next = n;
    } else {
      anchor.head = n;
    }
    anchor.tail = n;
  } else {
    Link& at = links_[pos];
    link.prev = at.prev;
    link.next = pos;
    if (at.prev != kNil) {
      links_[at.prev].next = n;
    } else {
      anchor.head = n;
    }
    at.prev = n;
  }
  ++anchor.size;
}

// --- per-inode chain --------------------------------------------------------

size_t PageCache::InodeProbe(InodeId ino) const {
  return inode_index_.Probe(MixId(ino), [ino](const InodeSlot& slot) { return slot.ino == ino; });
}

void PageCache::InodeChainLink(uint32_t n) {
  const InodeId ino = keys_[n].ino;
  size_t slot = InodeProbe(ino);
  if (inode_index_[slot].empty()) {
    if ((inode_index_used_ + 1) * 10 > inode_index_.size() * 7) {
      inode_index_.Resize(inode_index_.size() * 2, InodeSlot::Hash);
      slot = InodeProbe(ino);
    }
    inode_index_[slot] = InodeSlot{ino, n};
    ++inode_index_used_;
    ino_links_[n] = Link{};
    return;
  }
  const uint32_t head = inode_index_[slot].head;
  ino_links_[n].prev = kNil;
  ino_links_[n].next = head;
  ino_links_[head].prev = n;
  inode_index_[slot].head = n;
}

void PageCache::InodeChainUnlink(uint32_t n) {
  Link& link = ino_links_[n];
  if (link.prev != kNil) {
    ino_links_[link.prev].next = link.next;
  } else {
    const size_t slot = InodeProbe(keys_[n].ino);
    if (link.next == kNil) {
      InodeIndexErase(slot);
    } else {
      inode_index_[slot].head = link.next;
    }
  }
  if (link.next != kNil) {
    ino_links_[link.next].prev = link.prev;
  }
  link.prev = link.next = kNil;
}

void PageCache::InodeIndexErase(size_t slot) {
  inode_index_.Erase(slot, InodeSlot::Hash);
  --inode_index_used_;
}

// --- dirty FIFO -------------------------------------------------------------

void PageCache::DirtyChainUnlink(uint32_t n) {
  list_meta_[n] = static_cast<uint8_t>(list_meta_[n] & ~kDirtyBit);
  Link& link = dirty_links_[n];
  if (link.prev != kNil) {
    dirty_links_[link.prev].next = link.next;
  } else {
    dirty_head_ = link.next;
  }
  if (link.next != kNil) {
    dirty_links_[link.next].prev = link.prev;
  } else {
    dirty_tail_ = link.prev;
  }
  link.prev = link.next = kNil;
  --dirty_count_;
}

// --- policy transitions -----------------------------------------------------
//
// These reproduce, decision-for-decision, the straightforward reference
// implementations (kept in tests/reference_policies.h as differential
// oracles): same queues, same adaptation arithmetic, same tie-breaks.

bool PageCache::PolicyPrepareNewInsert() {
  if (kind_ != EvictionPolicyKind::kArc) {
    return false;
  }
  // Brand new key: trim ghost lists per the ARC paper's cases. Returns
  // whether a ghost was freed (i.e. the hash table was mutated).
  const ListAnchor& t1 = AnchorOf(CacheListId::kT1);
  const ListAnchor& b1 = AnchorOf(CacheListId::kB1);
  const ListAnchor& b2 = AnchorOf(CacheListId::kB2);
  if (t1.size + b1.size >= geometry_.arc_c) {
    if (b1.size > 0) {
      FreeGhostNode(b1.tail);
      return true;
    }
  } else if (live_count_ >= 2 * geometry_.arc_c) {
    if (b2.size > 0) {
      FreeGhostNode(b2.tail);
      return true;
    }
  }
  return false;
}

void PageCache::PolicyInsertNew(uint32_t n) {
  switch (kind_) {
    case EvictionPolicyKind::kLru:
      ListPushFront(CacheListId::kLruList, n);
      break;
    case EvictionPolicyKind::kClock:
      // Insert just behind the hand, i.e. at the position visited last
      // (clock_hand_ == kNil means the "end" position: insert at the back).
      ListLinkBefore(CacheListId::kClockRing, clock_hand_, n);
      if (AnchorOf(CacheListId::kClockRing).size == 1) {
        clock_hand_ = n;
      }
      break;
    case EvictionPolicyKind::kTwoQueue:
      ListPushFront(CacheListId::kA1in, n);
      break;
    case EvictionPolicyKind::kArc:
      ListPushFront(CacheListId::kT1, n);
      break;
  }
}

void PageCache::PolicyGhostRevive(uint32_t n) {
  if (ListOf(n) == CacheListId::kA1out) {
    // 2Q: a re-reference after falling out of A1in promotes into Am.
    ListUnlink(n);
    ListPushFront(CacheListId::kAm, n);
    return;
  }
  // ARC: a ghost hit adapts the T1 target p toward the list that hit.
  const double b1_size = static_cast<double>(AnchorOf(CacheListId::kB1).size);
  const double b2_size = static_cast<double>(AnchorOf(CacheListId::kB2).size);
  const double c = static_cast<double>(geometry_.arc_c);
  if (ListOf(n) == CacheListId::kB1) {
    const double delta = b1_size >= b2_size ? 1.0 : b2_size / b1_size;
    arc_p_ = std::min(c, arc_p_ + delta);
  } else {
    assert(ListOf(n) == CacheListId::kB2);
    const double delta = b2_size >= b1_size ? 1.0 : b1_size / b2_size;
    arc_p_ = std::max(0.0, arc_p_ - delta);
  }
  ListUnlink(n);
  ListPushFront(CacheListId::kT2, n);
}

uint32_t PageCache::PolicyChooseVictim() {
  switch (kind_) {
    case EvictionPolicyKind::kLru:
      return AnchorOf(CacheListId::kLruList).tail;
    case EvictionPolicyKind::kClock: {
      // Second chance: a set referenced bit buys one more lap of the hand.
      uint32_t hand = clock_hand_;
      for (;;) {
        if (hand == kNil) {
          hand = AnchorOf(CacheListId::kClockRing).head;
        }
        if ((list_meta_[hand] & kReferencedBit) != 0) {
          list_meta_[hand] = static_cast<uint8_t>(list_meta_[hand] & ~kReferencedBit);
          hand = links_[hand].next;
        } else {
          clock_hand_ = links_[hand].next;
          return hand;
        }
      }
    }
    case EvictionPolicyKind::kTwoQueue: {
      const ListAnchor& a1in = AnchorOf(CacheListId::kA1in);
      if (a1in.size > geometry_.kin || AnchorOf(CacheListId::kAm).size == 0) {
        assert(a1in.size > 0);
        return a1in.tail;
      }
      return AnchorOf(CacheListId::kAm).tail;
    }
    case EvictionPolicyKind::kArc: {
      // REPLACE from the ARC paper: evict from T1 if it exceeds target p.
      const ListAnchor& t1 = AnchorOf(CacheListId::kT1);
      const ListAnchor& t2 = AnchorOf(CacheListId::kT2);
      const bool from_t1 =
          t1.size > 0 && (static_cast<double>(t1.size) > arc_p_ || t2.size == 0);
      if (from_t1) {
        return t1.tail;
      }
      assert(t2.size > 0);
      return t2.tail;
    }
  }
  return kNil;
}

void PageCache::PolicyDemoteVictim(uint32_t n) {
  const CacheListId from = ListOf(n);
  ListUnlink(n);
  switch (kind_) {
    case EvictionPolicyKind::kLru:
    case EvictionPolicyKind::kClock:
      TableEraseNode(n);
      ReleaseNode(n);
      return;
    case EvictionPolicyKind::kTwoQueue:
      if (from == CacheListId::kA1in) {
        // A1in victims leave a ghost in A1out, bounded by kout.
        blocks_[n] = kInvalidBlock;
        ListPushFront(CacheListId::kA1out, n);
        while (AnchorOf(CacheListId::kA1out).size > geometry_.kout) {
          FreeGhostNode(AnchorOf(CacheListId::kA1out).tail);
        }
      } else {
        TableEraseNode(n);
        ReleaseNode(n);
      }
      return;
    case EvictionPolicyKind::kArc:
      blocks_[n] = kInvalidBlock;
      ListPushFront(from == CacheListId::kT1 ? CacheListId::kB1 : CacheListId::kB2, n);
      return;
  }
}

void PageCache::FreeGhostNode(uint32_t n) {
  assert(IsGhostList(ListOf(n)));
  ListUnlink(n);
  TableEraseNode(n);
  ReleaseNode(n);
}

// --- public operations ------------------------------------------------------

void PageCache::EvictOne(EvictedBatch* evicted) {
  const uint32_t victim = PolicyChooseVictim();
  const bool dirty = IsDirty(victim);
  if (evicted != nullptr) {
    assert(evicted->count_ < EvictedBatch::kInlineCapacity);
    evicted->items_[evicted->count_++] = Evicted{keys_[victim], blocks_[victim], dirty};
  }
  if (dirty) {
    DirtyChainUnlink(victim);
    ++stats_.dirty_evictions;
  }
  InodeChainUnlink(victim);
  --resident_count_;
  ++stats_.evictions;
  PolicyDemoteVictim(victim);
}

void PageCache::PrefetchVictimHint() const {
  // The likely victim is known before the probe resolves hit vs. miss;
  // starting its cache lines early overlaps eviction latency with the probe.
  // A wrong or useless hint (hit path, CLOCK hand walk, ARC predicate flip)
  // costs nothing but the prefetch itself.
  uint32_t hint = kNil;
  switch (kind_) {
    case EvictionPolicyKind::kLru:
      hint = AnchorOf(CacheListId::kLruList).tail;
      break;
    case EvictionPolicyKind::kClock:
      hint = clock_hand_ != kNil ? clock_hand_ : AnchorOf(CacheListId::kClockRing).head;
      break;
    case EvictionPolicyKind::kTwoQueue: {
      const ListAnchor& a1in = AnchorOf(CacheListId::kA1in);
      hint = (a1in.size > geometry_.kin || AnchorOf(CacheListId::kAm).size == 0)
                 ? a1in.tail
                 : AnchorOf(CacheListId::kAm).tail;
      break;
    }
    case EvictionPolicyKind::kArc: {
      const ListAnchor& t1 = AnchorOf(CacheListId::kT1);
      const ListAnchor& t2 = AnchorOf(CacheListId::kT2);
      hint = (t1.size > 0 && (static_cast<double>(t1.size) > arc_p_ || t2.size == 0))
                 ? t1.tail
                 : t2.tail;
      break;
    }
  }
  if (hint == kNil) {
    return;
  }
  __builtin_prefetch(&keys_[hint]);
  __builtin_prefetch(&blocks_[hint]);
  __builtin_prefetch(&slots_[hint]);
  __builtin_prefetch(&list_meta_[hint]);
  // Eviction unsplices the victim from its policy list and inode chain; pull
  // the neighbour links forward as well so the second level of the pointer
  // chase also overlaps the probe.
  const Link link = links_[hint];
  if (link.prev != kNil) {
    __builtin_prefetch(&links_[link.prev]);
  }
  if (link.next != kNil) {
    __builtin_prefetch(&links_[link.next]);
  }
  const Link ino_link = ino_links_[hint];
  if (ino_link.prev != kNil) {
    __builtin_prefetch(&ino_links_[ino_link.prev]);
  }
  if (ino_link.next != kNil) {
    __builtin_prefetch(&ino_links_[ino_link.next]);
  }
}

void PageCache::Insert(const PageKey& key, BlockId block, bool dirty, EvictedBatch* evicted) {
  if (evicted != nullptr) {
    // One Insert evicts at most one page, but a reused batch must not creep
    // toward the inline bound across calls: each call reports only its own.
    evicted->clear();
  }
  if (resident_count_ >= capacity_) {
    PrefetchVictimHint();
  }
  const uint32_t hash = HashOf(key);
  size_t slot = ProbeSlot(key, hash);
  uint32_t n = table_[slot].id;
  if (n != kNil && IsResidentNode(n)) {
    // Refresh: update block, possibly dirty, touch recency.
    if (dirty && !IsDirty(n)) {
      DirtyChainAppend(n);
    }
    blocks_[n] = block;
    PolicyResidentAccess(n);
    return;
  }

  if (resident_count_ >= capacity_) {
    const size_t erases_before = table_erase_count_;
    do {
      EvictOne(evicted);
    } while (resident_count_ >= capacity_);
    // Eviction can rearrange the table and even retire the ghost we just
    // found (2Q's A1out trim may pop it); what counts is ghost membership
    // *after* eviction, exactly as the reference policies see it. Two cases
    // are provably harmless and skip the re-probe: no table erase happened
    // (ARC demotes in place), or exactly one erase left its hole outside
    // this key's probe run (a backward shift empties only that hole, and
    // never occupies a previously empty slot).
    const size_t erase_delta = table_erase_count_ - erases_before;
    const size_t mask = table_.mask();
    const size_t home = hash & mask;
    const bool run_intact =
        erase_delta == 0 ||
        (erase_delta == 1 && n == kNil &&
         ((last_erase_hole_ - home) & mask) > ((slot - home) & mask));
    if (!run_intact) {
      slot = ProbeSlot(key, hash);
      n = table_[slot].id;
    }
  }

  if (n != kNil) {
    PolicyGhostRevive(n);
    blocks_[n] = block;
  } else {
    if (PolicyPrepareNewInsert()) {
      // An ARC ghost trim rearranged the table; the empty slot found above
      // may no longer terminate the key's probe run.
      slot = ProbeSlot(key, hash);
    }
    n = AllocNode(key, hash);
    blocks_[n] = block;
    TableInsertAt(slot, n);
    PolicyInsertNew(n);
  }
  InodeChainLink(n);
  ++resident_count_;
  if (dirty) {
    DirtyChainAppend(n);
  }
  ++stats_.insertions;
}

size_t PageCache::TakeDirtyFile(InodeId ino, std::vector<Evicted>* out) {
  out->clear();
  const size_t slot = InodeProbe(ino);
  if (inode_index_[slot].empty()) {
    return 0;
  }
  // Chain order (most recently inserted first); callers that care about
  // device ordering sort by block, as the VFS writeback path does.
  for (uint32_t n = inode_index_[slot].head; n != kNil; n = ino_links_[n].next) {
    if (IsDirty(n)) {
      out->push_back(Evicted{keys_[n], blocks_[n], true});
      DirtyChainUnlink(n);
    }
  }
  return out->size();
}

bool PageCache::TakeDirtyPage(const PageKey& key, std::vector<Evicted>* out) {
  const uint32_t n = FindNode(key);
  if (n == kNil || !IsResidentNode(n) || !IsDirty(n)) {
    return false;
  }
  out->push_back(Evicted{keys_[n], blocks_[n], true});
  DirtyChainUnlink(n);
  return true;
}

size_t PageCache::TakeDirty(size_t max_pages, std::vector<Evicted>* out) {
  out->clear();
  while (dirty_head_ != kNil && out->size() < max_pages) {
    const uint32_t n = dirty_head_;
    out->push_back(Evicted{keys_[n], blocks_[n], true});
    DirtyChainUnlink(n);
  }
  return out->size();
}

void PageCache::RemoveResidentNode(uint32_t n, bool maintain_inode_chain) {
  if (IsDirty(n)) {
    DirtyChainUnlink(n);
  }
  if (maintain_inode_chain) {
    InodeChainUnlink(n);
  }
  if (kind_ == EvictionPolicyKind::kClock && clock_hand_ == n) {
    clock_hand_ = links_[n].next;
  }
  ListUnlink(n);
  TableEraseNode(n);
  ReleaseNode(n);
  --resident_count_;
}

void PageCache::Remove(const PageKey& key) {
  const uint32_t n = FindNode(key);
  if (n == kNil || !IsResidentNode(n)) {
    return;
  }
  RemoveResidentNode(n, /*maintain_inode_chain=*/true);
}

void PageCache::RemoveFile(InodeId ino) {
  const size_t slot = InodeProbe(ino);
  if (inode_index_[slot].empty()) {
    return;
  }
  uint32_t n = inode_index_[slot].head;
  InodeIndexErase(slot);
  while (n != kNil) {
    const uint32_t next = ino_links_[n].next;
    RemoveResidentNode(n, /*maintain_inode_chain=*/false);
    n = next;
  }
}

void PageCache::Clear() {
  // Drop every resident page. Ghost lists and ARC's adaptation survive a
  // cache drop: the policy's history is not resident state.
  static constexpr CacheListId kResidentLists[] = {
      CacheListId::kLruList, CacheListId::kClockRing, CacheListId::kA1in,
      CacheListId::kAm,      CacheListId::kT1,        CacheListId::kT2,
  };
  for (const CacheListId id : kResidentLists) {
    while (AnchorOf(id).head != kNil) {
      RemoveResidentNode(AnchorOf(id).head, /*maintain_inode_chain=*/false);
    }
  }
  inode_index_.Clear();
  inode_index_used_ = 0;
  clock_hand_ = kNil;
  dirty_head_ = dirty_tail_ = kNil;
  dirty_count_ = 0;
  assert(resident_count_ == 0);
}

// --- invariants -------------------------------------------------------------

bool PageCache::CheckInvariants(const char** why) const {
  const char* unused;
  if (why == nullptr) {
    why = &unused;
  }
  *why = "";
  if (resident_count_ > capacity_ || resident_count_ > live_count_) {
    *why = "resident count exceeds capacity or live count";
    return false;
  }
  // Every list: forward walk matches the recorded size, back-links and tags
  // are consistent, ghosts carry no block/dirty state.
  size_t resident_seen = 0;
  size_t live_seen = 0;
  for (size_t id = 1; id < kNumCacheLists; ++id) {
    const ListAnchor& anchor = lists_[id];
    size_t walked = 0;
    uint32_t prev = kNil;
    for (uint32_t n = anchor.head; n != kNil; n = links_[n].next) {
      if (ListOf(n) != static_cast<CacheListId>(id) || links_[n].prev != prev) {
        *why = "list tag or back-link inconsistent";
        return false;
      }
      if (IsGhostList(ListOf(n)) &&
          (IsDirty(n) || blocks_[n] != kInvalidBlock || ino_links_[n].next != kNil ||
           ino_links_[n].prev != kNil)) {
        *why = "ghost node carries resident state";
        return false;
      }
      // A node's table entry must resolve back to it in one probe run, and
      // its cached slot/hash must be current.
      if (FindNode(keys_[n]) != n) {
        *why = "table probe does not resolve to the node";
        return false;
      }
      if (table_[slots_[n]].id != n || hashes_[n] != HashOf(keys_[n])) {
        *why = "node slot back-pointer or cached hash stale";
        return false;
      }
      prev = n;
      ++walked;
    }
    if (walked != anchor.size || anchor.tail != prev) {
      *why = "list size or tail mismatch";
      return false;
    }
    live_seen += walked;
    if (IsResidentList(static_cast<CacheListId>(id))) {
      resident_seen += walked;
    }
  }
  if (resident_seen != resident_count_ || live_seen != live_count_) {
    *why = "list populations do not match resident/live counts";
    return false;
  }
  // Dirty FIFO: length matches, members are resident and flagged.
  size_t dirty_seen = 0;
  uint32_t dirty_prev = kNil;
  for (uint32_t n = dirty_head_; n != kNil; n = dirty_links_[n].next) {
    if (!IsDirty(n) || !IsResidentNode(n) || dirty_links_[n].prev != dirty_prev) {
      *why = "dirty chain member not resident-dirty or back-link broken";
      return false;
    }
    dirty_prev = n;
    ++dirty_seen;
  }
  if (dirty_seen != dirty_count_ || dirty_tail_ != dirty_prev) {
    *why = "dirty chain length or tail mismatch";
    return false;
  }
  // Inode chains: together they cover exactly the resident set.
  size_t chained = 0;
  for (const InodeSlot& entry : inode_index_) {
    if (entry.empty()) {
      continue;
    }
    uint32_t ino_prev = kNil;
    for (uint32_t n = entry.head; n != kNil; n = ino_links_[n].next) {
      if (keys_[n].ino != entry.ino || !IsResidentNode(n) ||
          ino_links_[n].prev != ino_prev) {
        *why = "inode chain member inconsistent";
        return false;
      }
      ino_prev = n;
      ++chained;
    }
  }
  if (chained != resident_count_) {
    *why = "inode chains do not cover the resident set";
    return false;
  }
  // Table population matches the live-node count.
  size_t table_entries = 0;
  for (const FlatId entry : table_) {
    table_entries += entry.empty() ? 0 : 1;
  }
  if (table_entries != live_count_) {
    *why = "table population does not match live count";
    return false;
  }
  return true;
}

}  // namespace fsbench
