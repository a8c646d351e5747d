#include "src/sim/directory.h"

#include "src/util/units.h"

namespace fsbench {

bool Directory::Insert(std::string_view name, InodeId ino) {
  const size_t hash = HashName(name);
  size_t pos = Probe(name, hash);
  if (!index_[pos].empty()) {
    return false;
  }
  // Keep the load factor at or under 0.7 so probe runs stay short.
  if ((entry_count_ + 1) * 10 > index_.size() * 7) {
    index_.Resize(index_.size() * 2, [this](FlatId id) { return HashOfId(id); });
    pos = Probe(name, hash);
  }
  uint64_t slot;
  if (!holes_.empty()) {
    slot = holes_.back();
    holes_.pop_back();
    slots_[slot].name.assign(name);
    slots_[slot].ino = ino;
    slots_[slot].hash = hash;
  } else {
    slot = slots_.size();
    slots_.push_back(Slot{std::string(name), ino, hash});
  }
  index_[pos].id = static_cast<uint32_t>(slot);
  ++entry_count_;
  return true;
}

std::optional<InodeId> Directory::Remove(std::string_view name) {
  const size_t pos = Probe(name, HashName(name));
  if (index_[pos].empty()) {
    return std::nullopt;
  }
  const uint64_t slot = index_[pos].id;
  const InodeId ino = slots_[slot].ino;
  slots_[slot].name.clear();
  slots_[slot].ino = kInvalidInode;
  holes_.push_back(slot);
  --entry_count_;
  index_.Erase(pos, [this](FlatId id) { return HashOfId(id); });
  return ino;
}

std::optional<InodeId> Directory::Lookup(std::string_view name) const {
  const std::optional<Entry> entry = Find(name);
  if (!entry.has_value()) {
    return std::nullopt;
  }
  return entry->ino;
}

std::optional<uint64_t> Directory::SlotOf(std::string_view name) const {
  const std::optional<Entry> entry = Find(name);
  if (!entry.has_value()) {
    return std::nullopt;
  }
  return entry->slot;
}

uint64_t Directory::BlockCount(uint64_t entries_per_block) const {
  if (slots_.empty()) {
    return 1;  // an empty directory still occupies one block ("." / "..")
  }
  return CeilDiv(slots_.size(), entries_per_block);
}

std::vector<std::string> Directory::List() const {
  std::vector<std::string> names;
  names.reserve(entry_count_);
  for (const Slot& slot : slots_) {
    if (!slot.name.empty()) {
      names.push_back(slot.name);
    }
  }
  return names;
}

}  // namespace fsbench
