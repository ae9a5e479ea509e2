// DRS reader — maps a store file read-only, parses the footer index, and
// decodes column blocks on demand. Block payloads are views straight into
// the mapping; decoded columns are copies, so nothing a reader returns
// dangles once it closes. A file that cannot be mapped (missing, empty,
// a directory, a pipe) fails at open like any other defect.
//
// Each block's CRC32C is verified lazily on first touch and the
// verification is recorded per block, so a block read many times is
// checksummed exactly once. validate_all() checks every block, fanning
// the checksum work out across the exec worker pool. All failure modes
// (bad magic, unsupported version, truncation, checksum mismatch,
// missing columns, malformed payloads) throw StoreError with a message
// naming the file and the problem.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "store/format.h"

namespace ddos::store {

class Reader {
 public:
  /// Maps and verifies `path` (header magic/version, trailer, footer
  /// checksum, block-extent sanity). Throws StoreError on any defect.
  /// Block CRCs are NOT checked here — they verify lazily on first
  /// touch so an open stays O(footer).
  explicit Reader(const std::string& path);
  ~Reader();

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  const std::vector<ColumnDesc>& columns() const { return columns_; }
  const std::vector<std::pair<std::string, std::string>>& meta() const {
    return meta_;
  }

  bool has_meta(std::string_view key) const;
  /// Metadata value; throws StoreError when the key is absent.
  std::string meta_value(std::string_view key) const;
  /// Metadata value or `fallback` when absent.
  std::string meta_or(std::string_view key, std::string_view fallback) const;

  bool has_column(std::string_view dataset, std::string_view column) const;
  /// Footer entry for (dataset, column); throws when absent.
  const ColumnDesc& column(std::string_view dataset,
                           std::string_view column) const;
  /// Row count shared by a dataset's columns; throws when the dataset is
  /// absent or its columns disagree.
  std::uint64_t dataset_rows(std::string_view dataset) const;

  /// Decode one column (CRC-checked). Type must match the footer entry.
  std::vector<std::uint64_t> read_u64(std::string_view dataset,
                                      std::string_view column) const;
  std::vector<double> read_f64(std::string_view dataset,
                               std::string_view column) const;
  std::vector<std::uint8_t> read_u8(std::string_view dataset,
                                    std::string_view column) const;
  std::vector<std::string> read_strings(std::string_view dataset,
                                        std::string_view column) const;

  /// Run `jobs` (independent column decodes) across the exec pool; each
  /// job must write only its own output slot. Dataset readers use this to
  /// fan block decoding out.
  static void parallel_decode(const std::vector<std::function<void()>>& jobs);

  /// Validate every block's CRC32C in parallel; throws on the first
  /// mismatch naming the offending dataset/column. Blocks already
  /// verified lazily are not re-hashed.
  void validate_all() const;

  /// Blocks whose CRC has been verified so far (monotonic; at most one
  /// count per block regardless of how often it is read).
  std::uint64_t lazy_crc_checks() const {
    return lazy_checks_.load(std::memory_order_relaxed);
  }

  std::uint64_t file_size() const { return data_.size(); }
  const std::string& path() const { return path_; }

 private:
  std::string_view payload(const ColumnDesc& desc) const;
  /// CRC-check `desc`'s payload once; throws StoreError on mismatch.
  void check_crc(const ColumnDesc& desc) const;
  void parse(std::string_view data);

  std::string path_;
  std::string_view data_;  // the read-only mapping of the whole file
  std::vector<ColumnDesc> columns_;
  std::vector<std::pair<std::string, std::string>> meta_;
  // One flag per column block: 1 once its CRC verified OK. Failed checks
  // never set the flag, so a corrupt block throws on every touch.
  mutable std::unique_ptr<std::atomic<std::uint8_t>[]> crc_checked_;
  mutable std::atomic<std::uint64_t> lazy_checks_{0};
};

}  // namespace ddos::store
