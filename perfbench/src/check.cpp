#include "check.h"

#include <cstring>
#include <utility>

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

std::uint64_t pattern_word(std::uint64_t key, std::uint64_t word) noexcept {
  return mix64(key ^ (word * 0xd6e8feb86659fd93ULL));
}

std::uint64_t file_key(std::uint64_t seed, std::uint64_t file_id) noexcept {
  return mix64(seed * 0x2545f4914f6cdd1dULL + file_id);
}

std::uint8_t pattern_byte(std::uint64_t key, std::uint64_t offset) noexcept {
  const std::uint64_t w = pattern_word(key, offset / 8);
  return static_cast<std::uint8_t>(w >> (8 * (offset % 8)));
}

}  // namespace

void fill_pattern(std::uint64_t seed, std::uint64_t file_id,
                  std::uint64_t offset, std::span<std::uint8_t> out) {
  const std::uint64_t key = file_key(seed, file_id);
  std::size_t i = 0;
  // Byte-wise up to a word boundary, then whole words (little-endian,
  // matching pattern_byte), then the tail.
  for (; i < out.size() && (offset + i) % 8 != 0; ++i) {
    out[i] = pattern_byte(key, offset + i);
  }
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t w = pattern_word(key, (offset + i) / 8);
    std::uint8_t bytes[8];
    for (int b = 0; b < 8; ++b) bytes[b] = static_cast<std::uint8_t>(w >> (8 * b));
    std::memcpy(out.data() + i, bytes, 8);
  }
  for (; i < out.size(); ++i) out[i] = pattern_byte(key, offset + i);
}

std::string check_pattern(std::uint64_t seed, std::uint64_t file_id,
                          std::uint64_t offset,
                          std::span<const std::uint8_t> data) {
  // Compare a bounded block at a time against a regenerated copy.
  constexpr std::size_t kBlock = 64 * 1024;
  std::vector<std::uint8_t> want(std::min(kBlock, data.size()));
  for (std::size_t done = 0; done < data.size(); done += kBlock) {
    const std::size_t len = std::min(kBlock, data.size() - done);
    fill_pattern(seed, file_id, offset + done,
                 std::span<std::uint8_t>(want.data(), len));
    if (std::memcmp(want.data(), data.data() + done, len) != 0) {
      for (std::size_t i = 0; i < len; ++i) {
        if (want[i] != data[done + i]) {
          return "byte " + std::to_string(offset + done + i) + " of file " +
                 std::to_string(file_id) + " reads " +
                 std::to_string(data[done + i]) + ", expected " +
                 std::to_string(want[i]);
        }
      }
    }
  }
  return {};
}

std::string check_regular_file(
    const gekko::Result<gekko::proto::Metadata>& md, std::uint64_t size) {
  if (!md) return "stat failed: " + md.status().to_string();
  if (md->type != gekko::proto::FileType::regular) {
    return "stat: not a regular file";
  }
  if (md->size != size) {
    return "stat: size " + std::to_string(md->size) + ", expected " +
           std::to_string(size);
  }
  return {};
}

std::string check_length(const gekko::Result<std::size_t>& n,
                         std::size_t expected) {
  if (!n) return "io failed: " + n.status().to_string();
  if (*n != expected) {
    return "io moved " + std::to_string(*n) + " bytes, expected " +
           std::to_string(expected);
  }
  return {};
}

std::string check_ok(const gekko::Status& st) {
  return st.is_ok() ? std::string{} : st.to_string();
}

std::string check_empty_listing(const std::vector<std::string>& names) {
  if (names.empty()) return {};
  return "directory still lists " + std::to_string(names.size()) +
         " entries, first " + names.front();
}

std::vector<std::uint64_t> permutation(std::uint64_t seed, std::uint64_t n) {
  std::vector<std::uint64_t> p(n);
  for (std::uint64_t i = 0; i < n; ++i) p[i] = i;
  std::uint64_t state = seed;
  for (std::uint64_t i = n; i > 1; --i) {
    state = mix64(state);
    std::swap(p[i - 1], p[state % i]);
  }
  return p;
}

}  // namespace perfbench
