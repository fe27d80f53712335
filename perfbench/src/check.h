// Correctness checks: the seeded byte pattern IOR files carry, and the
// predicates every workload applies to what the file system returns.
// A check returns an empty string when the result is right, else one
// line saying what is wrong.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "proto/metadata.h"

namespace perfbench {

/// splitmix64: the seed → stream mixer behind names, offsets and bytes.
std::uint64_t mix64(std::uint64_t x) noexcept;

/// Fill `out` with the pattern of file `file_id` starting at byte
/// `offset` of that file.
void fill_pattern(std::uint64_t seed, std::uint64_t file_id,
                  std::uint64_t offset, std::span<std::uint8_t> out);

/// Empty when `data` equals the pattern of `file_id` at `offset`; else
/// names the first wrong byte.
std::string check_pattern(std::uint64_t seed, std::uint64_t file_id,
                          std::uint64_t offset,
                          std::span<const std::uint8_t> data);

/// A stat must succeed on a regular file of exactly `size` bytes.
std::string check_regular_file(
    const gekko::Result<gekko::proto::Metadata>& md, std::uint64_t size);

/// A read must return exactly `expected` bytes.
std::string check_length(const gekko::Result<std::size_t>& n,
                         std::size_t expected);

/// A status must be ok.
std::string check_ok(const gekko::Status& st);

/// A final listing must be empty.
std::string check_empty_listing(const std::vector<std::string>& names);

/// Seeded permutation of 0..n-1 (Fisher–Yates over mix64).
std::vector<std::uint64_t> permutation(std::uint64_t seed, std::uint64_t n);

}  // namespace perfbench
