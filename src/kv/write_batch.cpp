#include "kv/write_batch.h"

#include "common/codec.h"

namespace gekko::kv {

void WriteBatch::put(std::string_view key, std::string_view value) {
  append_op_(ValueType::value, key, value, true);
}

void WriteBatch::erase(std::string_view key) {
  append_op_(ValueType::deletion, key, {}, false);
}

void WriteBatch::merge(std::string_view key, std::string_view operand) {
  append_op_(ValueType::merge, key, operand, true);
  has_merges_ = true;
}

void WriteBatch::clear() {
  rep_.clear();
  count_ = 0;
  has_merges_ = false;
}

void WriteBatch::append_op_(ValueType t, std::string_view key,
                            std::string_view value, bool has_value) {
  Encoder enc(&rep_);
  enc.u8(static_cast<std::uint8_t>(t));
  enc.str(key);
  if (has_value) enc.str(value);
  ++count_;
}

Status WriteBatch::for_each(const OpFn& fn) const {
  Decoder dec(rep_);
  for (std::uint32_t i = 0; i < count_; ++i) {
    auto type = dec.u8();
    if (!type) return type.status();
    const auto t = static_cast<ValueType>(*type);
    auto key = dec.str();
    if (!key) return key.status();
    std::string_view value;
    if (t != ValueType::deletion) {
      auto v = dec.str();
      if (!v) return v.status();
      value = *v;
    }
    fn(t, *key, value);
  }
  if (!dec.done()) return Status{Errc::corruption, "trailing batch bytes"};
  return Status::ok();
}

Result<WriteBatch> WriteBatch::from_bytes(std::string_view bytes) {
  WriteBatch batch;
  batch.rep_.assign(bytes.begin(), bytes.end());
  // Validate structure and count ops.
  Decoder dec(batch.rep_);
  std::uint32_t count = 0;
  while (!dec.done()) {
    auto type = dec.u8();
    if (!type) return type.status();
    const auto t = static_cast<ValueType>(*type);
    if (t != ValueType::value && t != ValueType::deletion &&
        t != ValueType::merge) {
      return Status{Errc::corruption, "bad op type in batch"};
    }
    if (t == ValueType::merge) batch.has_merges_ = true;
    auto key = dec.str();
    if (!key) return key.status();
    if (t != ValueType::deletion) {
      auto v = dec.str();
      if (!v) return v.status();
    }
    ++count;
  }
  batch.count_ = count;
  return batch;
}

}  // namespace gekko::kv
