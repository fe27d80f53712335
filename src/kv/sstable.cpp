#include "kv/sstable.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/crc32.h"
#include "common/logging.h"

namespace gekko::kv {
namespace {

constexpr std::size_t kFooterSize = 40;

std::string encode_handle(const BlockHandle& h) {
  std::string s(16, '\0');
  std::memcpy(s.data(), &h.offset, 8);
  std::memcpy(s.data() + 8, &h.size, 8);
  return s;
}

Result<BlockHandle> decode_handle(std::string_view s) {
  if (s.size() != 16) return Status{Errc::corruption, "bad block handle"};
  BlockHandle h;
  std::memcpy(&h.offset, s.data(), 8);
  std::memcpy(&h.size, s.data() + 8, 8);
  return h;
}

}  // namespace

std::string table_file_name(std::uint64_t number) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%08" PRIu64 ".sst", number);
  return buf;
}

// ---------- TableBuilder ----------

TableBuilder::TableBuilder(const Options& options, io::WritableFile file)
    : options_(options),
      file_(std::move(file)),
      data_block_(options.block_restart_interval),
      index_block_(1),
      filter_(options.bloom_bits_per_key) {}

Status TableBuilder::add(std::string_view internal_key,
                         std::string_view value) {
  if (count_ == 0) smallest_.assign(internal_key);

  if (has_pending_index_) {
    // Emit the deferred index entry for the previous block now that we
    // know the first key of this block (LevelDB would shorten the
    // separator; we use the previous block's last key as-is).
    index_block_.add(pending_index_key_, encode_handle(pending_handle_));
    has_pending_index_ = false;
  }

  data_block_.add(internal_key, value);
  if (options_.bloom_bits_per_key > 0) {
    filter_.add(extract_user_key(internal_key));
  }
  last_key_.assign(internal_key);
  ++count_;

  if (data_block_.size_estimate() >= options_.block_size) {
    return flush_data_block_();
  }
  return Status::ok();
}

Status TableBuilder::flush_data_block_() {
  if (data_block_.empty()) return Status::ok();
  const std::string contents = data_block_.finish();
  data_block_.reset();
  auto handle = write_raw_block_(contents);
  if (!handle) return handle.status();
  pending_index_key_ = last_key_;
  pending_handle_ = *handle;
  has_pending_index_ = true;
  return Status::ok();
}

Result<BlockHandle> TableBuilder::write_raw_block_(std::string_view contents) {
  BlockHandle handle;
  handle.offset = file_.size();
  handle.size = contents.size();
  GEKKO_RETURN_IF_ERROR(file_.append(contents));
  const std::uint32_t crc = mask_crc(crc32c(contents));
  std::uint8_t buf[4];
  std::memcpy(buf, &crc, 4);
  GEKKO_RETURN_IF_ERROR(file_.append(std::span<const std::uint8_t>(buf, 4)));
  return handle;
}

Result<TableMeta> TableBuilder::finish() {
  GEKKO_RETURN_IF_ERROR(flush_data_block_());
  if (has_pending_index_) {
    index_block_.add(pending_index_key_, encode_handle(pending_handle_));
    has_pending_index_ = false;
  }

  BlockHandle filter_handle{};
  if (options_.bloom_bits_per_key > 0 && filter_.key_count() > 0) {
    const std::string filter = filter_.finish();
    GEKKO_ASSIGN_OR_RETURN(filter_handle, write_raw_block_(filter));
  }

  const std::string index = index_block_.finish();
  BlockHandle index_handle;
  GEKKO_ASSIGN_OR_RETURN(index_handle, write_raw_block_(index));

  std::string footer(kFooterSize, '\0');
  std::memcpy(footer.data(), &index_handle.offset, 8);
  std::memcpy(footer.data() + 8, &index_handle.size, 8);
  std::memcpy(footer.data() + 16, &filter_handle.offset, 8);
  std::memcpy(footer.data() + 24, &filter_handle.size, 8);
  std::memcpy(footer.data() + 32, &kTableMagic, 8);
  GEKKO_RETURN_IF_ERROR(file_.append(footer));
  GEKKO_RETURN_IF_ERROR(file_.sync());

  TableMeta meta;
  meta.file_size = file_.size();
  meta.entry_count = count_;
  meta.smallest = smallest_;
  meta.largest = last_key_;
  GEKKO_RETURN_IF_ERROR(file_.close());
  return meta;
}

// ---------- Table ----------

Result<std::shared_ptr<Table>> Table::open(const std::filesystem::path& path,
                                           const Options& options,
                                           std::uint64_t file_number) {
  auto file = io::RandomAccessFile::open(path);
  if (!file) return file.status();
  if (file->size() < kFooterSize) {
    return Status{Errc::corruption, "table too small: " + path.string()};
  }

  std::string footer(kFooterSize, '\0');
  GEKKO_RETURN_IF_ERROR(file->read_exact(
      file->size() - kFooterSize,
      std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(footer.data()),
                              footer.size())));

  BlockHandle index_handle, filter_handle;
  std::uint64_t magic;
  std::memcpy(&index_handle.offset, footer.data(), 8);
  std::memcpy(&index_handle.size, footer.data() + 8, 8);
  std::memcpy(&filter_handle.offset, footer.data() + 16, 8);
  std::memcpy(&filter_handle.size, footer.data() + 24, 8);
  std::memcpy(&magic, footer.data() + 32, 8);
  if (magic != kTableMagic) {
    return Status{Errc::corruption, "bad table magic: " + path.string()};
  }

  auto table = std::shared_ptr<Table>(new Table());
  table->file_ = std::move(*file);
  table->cache_ = options.block_cache;
  table->file_number_ = file_number;

  // Index/filter blocks are pinned in the Table, never in the cache.
  GEKKO_ASSIGN_OR_RETURN(table->index_block_,
                         table->read_block_raw_(index_handle));
  if (filter_handle.size > 0) {
    GEKKO_ASSIGN_OR_RETURN(table->filter_block_,
                           table->read_block_raw_(filter_handle));
  }
  return table;
}

Result<std::shared_ptr<const std::string>> Table::read_block_(
    const BlockHandle& handle) const {
  if (cache_) {
    if (auto hit = cache_->lookup(file_number_, handle.offset)) {
      return hit;
    }
  }
  auto raw = read_block_raw_(handle);
  if (!raw) return raw.status();
  if (cache_) {
    return cache_->insert(file_number_, handle.offset, std::move(*raw));
  }
  return std::make_shared<const std::string>(std::move(*raw));
}

Result<std::string> Table::read_block_raw_(const BlockHandle& handle) const {
  // handle.offset/size come off disk (footer or index block) and may
  // be corrupt or hostile. Validate the whole [offset, offset+size+4)
  // range against the file overflow-safely BEFORE the allocation: a
  // forged 2^60-byte handle must fail as corruption, not as an
  // out-of-memory crash in the resize below.
  const std::uint64_t file_size = file_.size();
  if (handle.offset > file_size || handle.size > file_size - handle.offset ||
      file_size - handle.offset - handle.size < 4) {
    return Status{Errc::corruption, "block handle out of file bounds"};
  }
  std::string contents(handle.size, '\0');
  GEKKO_RETURN_IF_ERROR(file_.read_exact(
      handle.offset,
      std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(contents.data()),
                              contents.size())));
  std::uint8_t crc_buf[4];
  GEKKO_RETURN_IF_ERROR(file_.read_exact(
      handle.offset + handle.size, std::span<std::uint8_t>(crc_buf, 4)));
  std::uint32_t stored;
  std::memcpy(&stored, crc_buf, 4);
  if (stored != mask_crc(crc32c(contents))) {
    return Status{Errc::corruption, "block crc mismatch"};
  }
  return contents;
}

Status Table::get(std::string_view user_key, SequenceNumber snapshot_seq,
                  LookupResult* result) const {
  if (!filter_block_.empty() &&
      !bloom_may_contain(filter_block_, user_key)) {
    return Status::ok();  // definitely absent from this table
  }

  // Each index key is its block's last key, so the first block whose
  // index key is >= the lookup key holds the newest visible version.
  const std::string lookup = make_lookup_key(user_key, snapshot_seq);
  BlockIterator index_iter(index_block_);
  index_iter.seek(lookup);
  if (!index_iter.valid()) return Status::ok();
  auto handle = decode_handle(index_iter.value());
  if (!handle) return handle.status();
  auto block = read_block_(*handle);
  if (!block) return block.status();

  BlockIterator it(**block);
  it.seek(lookup);
  if (!it.valid() || extract_user_key(it.key()) != user_key) {
    return Status::ok();
  }
  switch (trailer_type(extract_trailer(it.key()))) {
    case ValueType::value:
      result->state = LookupState::found;
      result->value = it.value();
      return Status::ok();
    case ValueType::deletion:
      result->state = LookupState::deleted;
      return Status::ok();
    default:  // merges are resolved before they reach a table
      return Status{Errc::corruption, "unexpected record type in table"};
  }
}

// ---------- Table::Iterator ----------

Table::Iterator::Iterator(std::shared_ptr<const Table> table)
    : table_(std::move(table)), index_iter_(table_->index_block_) {}

void Table::Iterator::load_block_and_(void (BlockIterator::*pos)()) {
  valid_ = false;
  if (!index_iter_.valid()) return;
  auto handle = decode_handle(index_iter_.value());
  if (!handle) return;
  auto block = table_->read_block_(*handle);
  if (!block) return;
  block_data_ = std::move(*block);
  block_iter_.emplace(*block_data_);
  ((*block_iter_).*pos)();
  valid_ = block_iter_->valid();
}

void Table::Iterator::skip_exhausted_blocks_() {
  while (!valid_) {
    index_iter_.next();
    if (!index_iter_.valid()) return;
    load_block_and_(&BlockIterator::seek_to_first);
  }
}

void Table::Iterator::seek_to_first() {
  index_iter_.seek_to_first();
  load_block_and_(&BlockIterator::seek_to_first);
  skip_exhausted_blocks_();
}

void Table::Iterator::seek(std::string_view internal_target) {
  index_iter_.seek(internal_target);
  if (!index_iter_.valid()) {
    valid_ = false;
    return;
  }
  // Capture target before loading (block_iter_ lambda-free approach).
  const std::string target(internal_target);
  load_block_and_(&BlockIterator::seek_to_first);
  if (valid_) {
    block_iter_->seek(target);
    valid_ = block_iter_->valid();
  }
  skip_exhausted_blocks_();
}

void Table::Iterator::next() {
  if (!valid_) return;
  block_iter_->next();
  valid_ = block_iter_->valid();
  skip_exhausted_blocks_();
}

}  // namespace gekko::kv
