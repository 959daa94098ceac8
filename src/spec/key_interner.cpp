#include "spec/key_interner.hpp"

#include <cstdlib>
#include <mutex>

namespace hotc::spec {

namespace {
constexpr std::size_t kInitialTableCapacity = 256;  // power of two
const std::string kEmptyText;
}  // namespace

KeyInterner::KeyInterner() : table_(new Table(kInitialTableCapacity)) {
  retired_.reserve(8);
  for (auto& c : chunks_) c.store(nullptr, std::memory_order_relaxed);
}

KeyInterner::~KeyInterner() {
  delete table_.load(std::memory_order_relaxed);
  for (auto& c : chunks_) {
    delete[] c.load(std::memory_order_relaxed);
  }
}

KeyInterner& KeyInterner::global() {
  static KeyInterner interner;
  return interner;
}

const KeyInterner::Entry* KeyInterner::entry_for(KeyId id) const {
  // id is 1-based; entry (id-1) lives in chunk (id-1)/kChunkSize.
  const std::size_t index = static_cast<std::size_t>(id) - 1;
  const Entry* chunk =
      chunks_[index >> kChunkShift].load(std::memory_order_acquire);
  return chunk == nullptr ? nullptr : chunk + (index & (kChunkSize - 1));
}

const std::string& KeyInterner::text(KeyId id) const {
  if (id == kNoKeyId) return kEmptyText;
  const Entry* e = entry_for(id);
  return e == nullptr ? kEmptyText : e->text;
}

std::uint64_t KeyInterner::hash(KeyId id) const {
  if (id == kNoKeyId) return 0;
  const Entry* e = entry_for(id);
  return e == nullptr ? 0 : e->hash;
}

std::size_t KeyInterner::table_capacity() const {
  return table_.load(std::memory_order_acquire)->mask + 1;
}

KeyId KeyInterner::find_in(const Table& table, std::string_view text,
                           std::uint64_t hash) const {
  for (std::size_t i = hash & table.mask;; i = (i + 1) & table.mask) {
    const KeyId id = table.slots[i].load(std::memory_order_acquire);
    if (id == kNoKeyId) return kNoKeyId;
    // Published slot: the entry behind it is fully constructed (the slot
    // store is release-ordered after the chunk publish).
    const Entry* e = entry_for(id);
    if (e != nullptr && e->hash == hash && e->text == text) return id;
  }
}

KeyId KeyInterner::find(std::string_view text, std::uint64_t hash) const {
  const Table* table = table_.load(std::memory_order_acquire);
  return find_in(*table, text, hash);
}

void KeyInterner::insert_slot(Table& table, KeyId id, std::uint64_t hash) {
  for (std::size_t i = hash & table.mask;; i = (i + 1) & table.mask) {
    if (table.slots[i].load(std::memory_order_relaxed) == kNoKeyId) {
      table.slots[i].store(id, std::memory_order_release);
      return;
    }
  }
}

void KeyInterner::grow_table_locked() {
  Table* old = table_.load(std::memory_order_relaxed);
  // hot-path-alloc: allow(table doubling, at each power-of-two key count)
  auto grown = std::make_unique<Table>((old->mask + 1) * 2);
  const std::uint32_t published = count_.load(std::memory_order_relaxed);
  for (KeyId id = 1; id <= published; ++id) {
    insert_slot(*grown, id, entry_for(id)->hash);
  }
  // Publish the new table, park the old one: a reader still probing the
  // old table sees only entries interned before the swap — correct, if
  // stale, and the locked intern path re-checks against the new table.
  table_.store(grown.release(), std::memory_order_release);
  retired_.emplace_back(old);
}

KeyId KeyInterner::intern(std::string_view text, std::uint64_t hash) {
  // Fast path: already interned, no lock.
  if (const KeyId id = find(text, hash); id != kNoKeyId) return id;

  const RankedGuard lock(mu_);
  // Re-check under the lock — another thread may have interned it between
  // our lock-free probe and the acquisition.
  Table* table = table_.load(std::memory_order_relaxed);
  if (const KeyId id = find_in(*table, text, hash); id != kNoKeyId) {
    return id;
  }

  const std::uint32_t count = count_.load(std::memory_order_relaxed);
  const std::size_t index = count;  // new entry's 0-based index
  if ((index >> kChunkShift) >= kMaxChunks) {
    // ~1M distinct canonical keys: a leaked key generator, not a workload.
    std::abort();
  }

  // Grow BEFORE publishing so the slot insert below always has room.
  if ((static_cast<std::size_t>(count) + 1) * 2 > table->mask + 1) {
    grow_table_locked();
    table = table_.load(std::memory_order_relaxed);
  }

  // 1. Construct the entry in stable chunk storage.
  Entry* chunk = chunks_[index >> kChunkShift].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Entry[kChunkSize];  // hot-path-alloc: allow(per 1024 keys)
    chunks_[index >> kChunkShift].store(chunk, std::memory_order_release);
  }
  Entry& entry = chunk[index & (kChunkSize - 1)];
  entry.text.assign(text.data(), text.size());
  entry.hash = hash;

  // 2. Publish the id: slot store (release) orders after the entry write,
  // so any reader that observes the slot observes a complete entry.
  const KeyId id = count + 1;
  insert_slot(*table, id, hash);
  count_.store(id, std::memory_order_release);
  return id;
}

}  // namespace hotc::spec
