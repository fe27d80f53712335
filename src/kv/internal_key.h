// Internal key encoding: user_key | trailer(8B) where
// trailer = (sequence << 8) | value_type, stored little-endian.
//
// Ordering: user key ascending, then sequence DESCENDING (newest first),
// then type descending — identical to LevelDB/RocksDB so iterators see
// the newest visible version of each user key first.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace gekko::kv {

/// deletion and value are the only record types stored in the WAL,
/// memtables and tables. merge is a WriteBatch op only: the DB folds it
/// into a value before the batch is logged.
enum class ValueType : std::uint8_t {
  deletion = 0,
  value = 1,
  merge = 2,
};

using SequenceNumber = std::uint64_t;

inline constexpr SequenceNumber kMaxSequence =
    (1ULL << 56) - 1;  // 7 bytes of sequence space

inline std::uint64_t pack_trailer(SequenceNumber seq, ValueType t) noexcept {
  return (seq << 8) | static_cast<std::uint64_t>(t);
}

inline SequenceNumber trailer_sequence(std::uint64_t trailer) noexcept {
  return trailer >> 8;
}

inline ValueType trailer_type(std::uint64_t trailer) noexcept {
  return static_cast<ValueType>(trailer & 0xff);
}

/// Append the 8-byte trailer to `dst`.
inline void append_trailer(std::string& dst, SequenceNumber seq,
                           ValueType t) {
  const std::uint64_t trailer = pack_trailer(seq, t);
  char buf[8];
  std::memcpy(buf, &trailer, 8);
  dst.append(buf, 8);
}

inline std::string make_internal_key(std::string_view user_key,
                                     SequenceNumber seq, ValueType t) {
  std::string k;
  k.reserve(user_key.size() + 8);
  k.append(user_key);
  append_trailer(k, seq, t);
  return k;
}

/// A "lookup key": the largest internal key visible at `seq` for
/// `user_key` under internal ordering (seq descending). It carries the
/// highest type byte, so it sorts before every record at `seq`.
inline std::string make_lookup_key(std::string_view user_key,
                                   SequenceNumber seq) {
  return make_internal_key(user_key, seq, ValueType::merge);
}

inline std::string_view extract_user_key(std::string_view internal) noexcept {
  return internal.substr(0, internal.size() - 8);
}

inline std::uint64_t extract_trailer(std::string_view internal) noexcept {
  std::uint64_t trailer;
  std::memcpy(&trailer, internal.data() + internal.size() - 8, 8);
  return trailer;
}

/// Internal-key comparator: user key asc, trailer (seq|type) desc.
inline int compare_internal(std::string_view a, std::string_view b) noexcept {
  const std::string_view ua = extract_user_key(a);
  const std::string_view ub = extract_user_key(b);
  if (int c = ua.compare(ub); c != 0) return c < 0 ? -1 : 1;
  const std::uint64_t ta = extract_trailer(a);
  const std::uint64_t tb = extract_trailer(b);
  if (ta > tb) return -1;  // higher seq sorts first
  if (ta < tb) return 1;
  return 0;
}

}  // namespace gekko::kv
