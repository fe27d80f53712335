// Atomic multi-op write batch, serialized as the WAL payload.
//
// Format: [count u32] then per op: [type u8][key str][value str?]
// (strings are varint-length-prefixed; deletions carry no value).
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "kv/internal_key.h"

namespace gekko::kv {

class WriteBatch {
 public:
  void put(std::string_view key, std::string_view value);
  void erase(std::string_view key);
  void merge(std::string_view key, std::string_view operand);
  void clear();

  [[nodiscard]] std::uint32_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// True if any op is a merge; the DB resolves those to puts before
  /// the batch reaches the WAL.
  [[nodiscard]] bool has_merges() const noexcept { return has_merges_; }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return rep_;
  }
  [[nodiscard]] std::size_t approximate_size() const noexcept {
    return rep_.size();
  }

  /// Replay ops in insertion order. Used both to apply to the memtable
  /// and to recover from the WAL.
  using OpFn = std::function<void(ValueType, std::string_view key,
                                  std::string_view value)>;
  Status for_each(const OpFn& fn) const;

  /// Reconstruct from serialized bytes (WAL recovery).
  static Result<WriteBatch> from_bytes(std::string_view bytes);

 private:
  void append_op_(ValueType t, std::string_view key, std::string_view value,
                  bool has_value);

  std::vector<std::uint8_t> rep_;
  std::uint32_t count_ = 0;
  bool has_merges_ = false;
};

}  // namespace gekko::kv
