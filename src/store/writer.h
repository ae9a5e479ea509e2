// DRS writer — streams column blocks to disk as they are added and
// appends the footer index + trailer on finish(). Columns are grouped
// into named datasets ("feed", "events", ...); metadata key/value pairs
// (provenance: config, seed, thread count, result counts) travel in the
// footer. Blocks are checksummed (CRC32C) as written.
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "store/format.h"

namespace ddos::store {

class Writer {
 public:
  /// Opens `path` for writing and emits the header. Check ok().
  explicit Writer(const std::string& path);

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  bool ok() const { return static_cast<bool>(out_); }

  /// Footer metadata; later add_meta with the same key overwrites.
  void add_meta(std::string_view key, std::string_view value);

  /// Append one column block. Dataset/column pairs must be unique.
  void add_u64(std::string_view dataset, std::string_view column,
               std::span<const std::uint64_t> values,
               Encoding encoding = Encoding::DeltaVarint);
  void add_f64(std::string_view dataset, std::string_view column,
               std::span<const double> values);
  void add_u8(std::string_view dataset, std::string_view column,
              std::span<const std::uint8_t> values);
  void add_strings(std::string_view dataset, std::string_view column,
                   std::span<const std::string> values);

  /// Append a block whose payload was encoded incrementally elsewhere
  /// (the store/epoch.h appenders build payloads across streaming epochs),
  /// whole or as consecutive pieces written back to back. The caller
  /// vouches that the payload is a valid encoding of `rows` rows.
  void add_encoded(std::string_view dataset, std::string_view column,
                   ColumnType type, Encoding encoding, std::uint64_t rows,
                   std::span<const std::string_view> pieces) {
    append_block(dataset, column, type, encoding, rows, pieces);
  }
  void add_encoded(std::string_view dataset, std::string_view column,
                   ColumnType type, Encoding encoding, std::uint64_t rows,
                   const std::string& payload) {
    append_block(dataset, column, type, encoding, rows, payload);
  }

  /// Write footer + trailer and flush. Returns stream health; the writer
  /// accepts no further columns afterwards.
  bool finish();

  /// Bytes emitted so far (file size after finish()).
  std::uint64_t bytes_written() const { return offset_; }
  std::size_t column_count() const { return columns_.size(); }

 private:
  void append_block(std::string_view dataset, std::string_view column,
                    ColumnType type, Encoding encoding, std::uint64_t rows,
                    std::span<const std::string_view> pieces);
  void append_block(std::string_view dataset, std::string_view column,
                    ColumnType type, Encoding encoding, std::uint64_t rows,
                    std::string_view payload) {
    append_block(dataset, column, type, encoding, rows, {&payload, 1});
  }

  std::ofstream out_;
  std::uint64_t offset_ = 0;
  std::vector<ColumnDesc> columns_;
  std::vector<std::pair<std::string, std::string>> meta_;
  bool finished_ = false;
};

}  // namespace ddos::store
