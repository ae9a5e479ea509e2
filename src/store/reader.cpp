#include "store/reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "exec/parallel.h"
#include "obs/obs.h"
#include "store/checksum.h"

namespace ddos::store {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw StoreError(path + ": " + what);
}

}  // namespace

Reader::Reader(const std::string& path) : path_(path) {
  // O_NONBLOCK only keeps a FIFO from blocking the open; it is rejected
  // below with every other file that is not regular.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (fd < 0) fail(path, std::string("cannot open: ") + std::strerror(errno));
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    fail(path, "cannot map: not a regular file");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < kHeaderSize + kTrailerSize) {
    ::close(fd);
    fail(path, "truncated: smaller than header + trailer");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  const int map_errno = errno;
  ::close(fd);
  if (map == MAP_FAILED)
    fail(path, std::string("cannot map: ") + std::strerror(map_errno));
  // validate_all touches every block front to back; tell the kernel so
  // readahead stays aggressive.
  ::posix_madvise(map, size, POSIX_MADV_WILLNEED);
  data_ = std::string_view(static_cast<const char*>(map), size);

  try {
    parse(data_);
  } catch (...) {
    ::munmap(map, size);
    throw;
  }

  crc_checked_ =
      std::make_unique<std::atomic<std::uint8_t>[]>(columns_.size());
  for (std::size_t i = 0; i < columns_.size(); ++i)
    crc_checked_[i].store(0, std::memory_order_relaxed);

  if (obs::Observer* o = obs::Observer::installed())
    o->pipeline.store_blocks_mapped.inc(columns_.size());
}

Reader::~Reader() {
  ::munmap(const_cast<char*>(data_.data()), data_.size());
}

void Reader::parse(std::string_view data) {
  // The constructor has checked that the header and trailer fit.
  const std::string& path = path_;
  std::size_t pos = 0;
  std::uint32_t magic = 0, version = 0;
  std::uint64_t reserved = 0;
  get_fixed32(data, pos, magic);
  get_fixed32(data, pos, version);
  get_fixed64(data, pos, reserved);
  if (magic != kMagic) fail(path, "bad magic: not a DRS store");
  if (version != kFormatVersion)
    fail(path, "unsupported DRS version " + std::to_string(version) +
                   " (expected " + std::to_string(kFormatVersion) + ")");

  std::size_t tpos = data.size() - kTrailerSize;
  std::uint64_t footer_size = 0;
  std::uint32_t footer_crc = 0, trailer_magic = 0;
  get_fixed64(data, tpos, footer_size);
  get_fixed32(data, tpos, footer_crc);
  get_fixed32(data, tpos, trailer_magic);
  if (trailer_magic != kMagic)
    fail(path, "bad trailer magic: truncated or corrupt file");
  if (footer_size > data.size() - kHeaderSize - kTrailerSize)
    fail(path, "footer size exceeds file");

  const std::size_t footer_begin = data.size() - kTrailerSize - footer_size;
  const std::string_view footer = data.substr(footer_begin, footer_size);
  if (crc32c(footer) != footer_crc) fail(path, "footer checksum mismatch");

  std::size_t fpos = 0;
  std::uint64_t meta_count = 0;
  if (!get_varint(footer, fpos, meta_count)) fail(path, "malformed footer");
  for (std::uint64_t i = 0; i < meta_count; ++i) {
    std::string key, value;
    if (!get_string(footer, fpos, key) || !get_string(footer, fpos, value))
      fail(path, "malformed footer metadata");
    meta_.emplace_back(std::move(key), std::move(value));
  }

  std::uint64_t column_count = 0;
  if (!get_varint(footer, fpos, column_count)) fail(path, "malformed footer");
  for (std::uint64_t i = 0; i < column_count; ++i) {
    ColumnDesc c;
    if (!get_string(footer, fpos, c.dataset) ||
        !get_string(footer, fpos, c.column) || fpos + 2 > footer.size())
      fail(path, "malformed footer column index");
    c.type = static_cast<ColumnType>(footer[fpos++]);
    c.encoding = static_cast<Encoding>(footer[fpos++]);
    if (!get_varint(footer, fpos, c.rows) ||
        !get_varint(footer, fpos, c.offset) ||
        !get_varint(footer, fpos, c.size))
      fail(path, "malformed footer column index");
    if (!get_fixed32(footer, fpos, c.crc))
      fail(path, "malformed footer column index");
    // Compared without adding, so a huge offset or size cannot wrap.
    if (c.offset < kHeaderSize || c.offset > footer_begin ||
        c.size > footer_begin - c.offset)
      fail(path, "column '" + c.dataset + "." + c.column +
                     "' extends outside the block region");
    columns_.push_back(std::move(c));
  }
  if (fpos != footer.size()) fail(path, "trailing bytes in footer");
}

bool Reader::has_meta(std::string_view key) const {
  for (const auto& [k, v] : meta_)
    if (k == key) return true;
  return false;
}

std::string Reader::meta_value(std::string_view key) const {
  for (const auto& [k, v] : meta_)
    if (k == key) return v;
  fail(path_, "missing metadata key '" + std::string(key) + "'");
}

std::string Reader::meta_or(std::string_view key,
                            std::string_view fallback) const {
  for (const auto& [k, v] : meta_)
    if (k == key) return v;
  return std::string(fallback);
}

bool Reader::has_column(std::string_view dataset,
                        std::string_view column) const {
  for (const auto& c : columns_)
    if (c.dataset == dataset && c.column == column) return true;
  return false;
}

const ColumnDesc& Reader::column(std::string_view dataset,
                                 std::string_view column) const {
  for (const auto& c : columns_)
    if (c.dataset == dataset && c.column == column) return c;
  fail(path_, "missing column '" + std::string(dataset) + "." +
                  std::string(column) + "'");
}

std::uint64_t Reader::dataset_rows(std::string_view dataset) const {
  std::uint64_t rows = 0;
  bool found = false;
  for (const auto& c : columns_) {
    if (c.dataset != dataset) continue;
    if (found && c.rows != rows)
      fail(path_, "dataset '" + std::string(dataset) +
                      "' has columns with differing row counts");
    rows = c.rows;
    found = true;
  }
  if (!found) fail(path_, "missing dataset '" + std::string(dataset) + "'");
  return rows;
}

std::string_view Reader::payload(const ColumnDesc& desc) const {
  return data_.substr(desc.offset, desc.size);
}

void Reader::check_crc(const ColumnDesc& desc) const {
  // Every caller passes an element of columns_, so the pointer
  // difference is the block index into the lazy-check flags.
  const auto idx = static_cast<std::size_t>(&desc - columns_.data());
  std::atomic<std::uint8_t>& flag = crc_checked_[idx];
  if (flag.load(std::memory_order_acquire) != 0) return;
  if (crc32c(payload(desc)) != desc.crc)
    fail(path_, "checksum mismatch in block '" + desc.dataset + "." +
                    desc.column + "' (corrupt store)");
  if (flag.exchange(1, std::memory_order_acq_rel) == 0) {
    lazy_checks_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Observer* o = obs::Observer::installed())
      o->pipeline.store_crc_lazy_checks.inc();
  }
}

namespace {

// Decode failures from format.cpp carry no file context; re-throw with
// the path and column so a multi-shard merge failure names the corrupt
// shard, not just the block shape.
[[noreturn]] void rethrow_decode_error(const std::string& path,
                                       const ColumnDesc& c,
                                       const StoreError& e) {
  throw StoreError(path + ": column '" + c.dataset + "." + c.column +
                   "': " + e.what());
}

}  // namespace

std::vector<std::uint64_t> Reader::read_u64(std::string_view dataset,
                                            std::string_view col) const {
  const ColumnDesc& c = column(dataset, col);
  if (c.type != ColumnType::U64)
    fail(path_, "column '" + c.dataset + "." + c.column + "' is not u64");
  check_crc(c);
  try {
    return decode_u64_column(payload(c), c.encoding, c.rows);
  } catch (const StoreError& e) {
    rethrow_decode_error(path_, c, e);
  }
}

std::vector<double> Reader::read_f64(std::string_view dataset,
                                     std::string_view col) const {
  const ColumnDesc& c = column(dataset, col);
  if (c.type != ColumnType::F64)
    fail(path_, "column '" + c.dataset + "." + c.column + "' is not f64");
  check_crc(c);
  try {
    return decode_f64_column(payload(c), c.rows);
  } catch (const StoreError& e) {
    rethrow_decode_error(path_, c, e);
  }
}

std::vector<std::uint8_t> Reader::read_u8(std::string_view dataset,
                                          std::string_view col) const {
  const ColumnDesc& c = column(dataset, col);
  if (c.type != ColumnType::U8)
    fail(path_, "column '" + c.dataset + "." + c.column + "' is not u8");
  check_crc(c);
  try {
    return decode_u8_column(payload(c), c.rows);
  } catch (const StoreError& e) {
    rethrow_decode_error(path_, c, e);
  }
}

std::vector<std::string> Reader::read_strings(std::string_view dataset,
                                              std::string_view col) const {
  const ColumnDesc& c = column(dataset, col);
  if (c.type != ColumnType::Str)
    fail(path_, "column '" + c.dataset + "." + c.column + "' is not str");
  check_crc(c);
  try {
    return decode_string_column(payload(c), c.rows);
  } catch (const StoreError& e) {
    rethrow_decode_error(path_, c, e);
  }
}

void Reader::parallel_decode(const std::vector<std::function<void()>>& jobs) {
  exec::RegionOptions opts;
  opts.label = "store.decode";
  exec::parallel_for(jobs.size(), opts, [&](const exec::ShardRange& range) {
    for (std::size_t i = range.begin; i < range.end; ++i) jobs[i]();
  });
}

void Reader::validate_all() const {
  exec::RegionOptions opts;
  opts.label = "store.validate";
  exec::parallel_for(columns_.size(), opts,
                     [&](const exec::ShardRange& range) {
                       for (std::size_t i = range.begin; i < range.end; ++i)
                         check_crc(columns_[i]);
                     });
}

}  // namespace ddos::store
