// SSTable (sorted string table) on-disk format and reader.
//
// Layout:
//   [data block][masked crc u32]  ... repeated ...
//   [filter block][masked crc u32]        (bloom over user keys; optional)
//   [index block][masked crc u32]         (last key of block -> handle)
//   footer (40 bytes):
//     index_offset u64 | index_size u64 |
//     filter_offset u64 | filter_size u64 | magic u64
//
// Index entries map each data block's last internal key to a
// BlockHandle {offset,size} packed as 16 bytes.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/fileio.h"
#include "common/result.h"
#include "kv/block.h"
#include "kv/bloom.h"
#include "kv/cache.h"
#include "kv/internal_key.h"
#include "kv/memtable.h"  // LookupResult
#include "kv/options.h"

namespace gekko::kv {

inline constexpr std::uint64_t kTableMagic = 0x67656b6b6f736574ULL;

struct BlockHandle {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

/// Summary of a finished table, recorded in the MANIFEST.
struct TableMeta {
  std::uint64_t file_number = 0;
  std::uint64_t file_size = 0;
  std::uint64_t entry_count = 0;
  std::string smallest;  // internal keys
  std::string largest;
};

class TableBuilder {
 public:
  TableBuilder(const Options& options, io::WritableFile file);

  /// Keys must arrive in strictly increasing internal-key order.
  Status add(std::string_view internal_key, std::string_view value);

  /// Flush remaining data, write filter/index/footer, sync, close.
  Result<TableMeta> finish();

  [[nodiscard]] std::uint64_t entry_count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return file_.size();
  }

 private:
  Status flush_data_block_();
  Result<BlockHandle> write_raw_block_(std::string_view contents);

  const Options& options_;
  io::WritableFile file_;
  BlockBuilder data_block_;
  BlockBuilder index_block_;
  BloomFilterBuilder filter_;
  std::string last_key_;
  std::string pending_index_key_;  // last key of the just-flushed block
  BlockHandle pending_handle_{};
  bool has_pending_index_ = false;
  std::uint64_t count_ = 0;
  std::string smallest_;
};

/// Immutable reader. Index and filter blocks are pinned in memory;
/// data blocks are read (and CRC-verified) per access.
class Table {
 public:
  /// `file_number` identifies this table in the shared block cache.
  static Result<std::shared_ptr<Table>> open(
      const std::filesystem::path& path, const Options& options,
      std::uint64_t file_number = 0);

  /// Point lookup: consult bloom filter, then index, then one data block.
  /// Sets `result` from the newest version visible at `snapshot_seq`.
  Status get(std::string_view user_key, SequenceNumber snapshot_seq,
             LookupResult* result) const;

  /// Full-table iterator in internal-key order.
  class Iterator {
   public:
    explicit Iterator(std::shared_ptr<const Table> table);

    [[nodiscard]] bool valid() const noexcept { return valid_; }
    [[nodiscard]] std::string_view key() const { return block_iter_->key(); }
    [[nodiscard]] std::string_view value() const {
      return block_iter_->value();
    }
    void seek_to_first();
    void seek(std::string_view internal_target);
    void next();

   private:
    void load_block_and_(void (BlockIterator::*pos)());
    void skip_exhausted_blocks_();

    std::shared_ptr<const Table> table_;
    BlockIterator index_iter_;
    std::shared_ptr<const std::string> block_data_;
    std::optional<BlockIterator> block_iter_;
    bool valid_ = false;
  };

  [[nodiscard]] std::uint64_t file_size() const noexcept {
    return file_.size();
  }

 private:
  Table() = default;

  /// Read (and CRC-verify) one block, consulting the block cache.
  Result<std::shared_ptr<const std::string>> read_block_(
      const BlockHandle& handle) const;
  Result<std::string> read_block_raw_(const BlockHandle& handle) const;

  io::RandomAccessFile file_;
  std::string index_block_;
  std::string filter_block_;
  std::shared_ptr<BlockCache> cache_;
  std::uint64_t file_number_ = 0;
};

/// SST file naming: <number>.sst with zero padding.
std::string table_file_name(std::uint64_t number);

}  // namespace gekko::kv
