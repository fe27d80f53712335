// relaxed-ok: approximate_bytes is a monotone size estimate used for
// flush heuristics; writers publish entries via the skiplist, not this
// counter.
// Memtable: skiplist of internal keys with visibility-aware point reads.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "kv/internal_key.h"
#include "kv/skiplist.h"

namespace gekko::kv {

/// Outcome of a point lookup in one LSM component.
enum class LookupState {
  not_present,  // keep searching older components
  found,        // value is final
  deleted,      // tombstone: stop searching, key absent
};

struct LookupResult {
  LookupState state = LookupState::not_present;
  std::string value;  // valid when state == found
};

class MemTable {
 public:
  MemTable() = default;

  /// Insert one op. Called with the DB write mutex held.
  void add(SequenceNumber seq, ValueType type, std::string_view user_key,
           std::string_view value) {
    list_.insert(make_internal_key(user_key, seq, type), value);
    approx_bytes_.fetch_add(user_key.size() + value.size() + 16,
                            std::memory_order_relaxed);
  }

  /// Point lookup visible at `snapshot_seq`: sets state (and value) from
  /// the newest visible version. Only values and tombstones are ever
  /// added — the DB resolves merges before they reach a memtable.
  void get(std::string_view user_key, SequenceNumber snapshot_seq,
           LookupResult* result) const {
    SkipList::Iterator it(&list_);
    // Seeking the lookup key lands on the newest version visible at the
    // snapshot, if the key has one.
    it.seek(make_lookup_key(user_key, snapshot_seq));
    if (!it.valid() || extract_user_key(it.key()) != user_key) return;
    if (trailer_type(extract_trailer(it.key())) == ValueType::value) {
      result->state = LookupState::found;
      result->value = it.value();
    } else {
      result->state = LookupState::deleted;
    }
  }

  [[nodiscard]] std::size_t approximate_bytes() const noexcept {
    return approx_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return list_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return list_.size() == 0; }

  [[nodiscard]] SkipList::Iterator iterator() const {
    return SkipList::Iterator(&list_);
  }

 private:
  SkipList list_;
  std::atomic<std::size_t> approx_bytes_{0};
};

}  // namespace gekko::kv
