#include "store/scan.h"

#include <cstring>
#include <functional>

#include "exec/parallel.h"

namespace ddos::store {

namespace {

[[noreturn]] void bad_block(const char* what) { throw StoreError(what); }

// Fully unrolled decode of one LEB128 varint with >= 10 readable bytes.
// Returns the advanced pointer, or nullptr on a non-canonical 10-byte
// varint (same rejection rule as format.h's get_varint). Each step is a
// load + mask + shift + or + compare — no loop counter, no shift
// variable, so the compiler keeps everything in registers and the
// one-byte common case (small counts/ids, tight deltas) is a single
// well-predicted branch.
inline const std::uint8_t* decode_one(const std::uint8_t* p,
                                      std::uint64_t& v) {
  std::uint64_t b = p[0];
  std::uint64_t r = b & 0x7Fu;
  if (b < 0x80u) { v = r; return p + 1; }
  b = p[1]; r |= (b & 0x7Fu) << 7;  if (b < 0x80u) { v = r; return p + 2; }
  b = p[2]; r |= (b & 0x7Fu) << 14; if (b < 0x80u) { v = r; return p + 3; }
  b = p[3]; r |= (b & 0x7Fu) << 21; if (b < 0x80u) { v = r; return p + 4; }
  b = p[4]; r |= (b & 0x7Fu) << 28; if (b < 0x80u) { v = r; return p + 5; }
  b = p[5]; r |= (b & 0x7Fu) << 35; if (b < 0x80u) { v = r; return p + 6; }
  b = p[6]; r |= (b & 0x7Fu) << 42; if (b < 0x80u) { v = r; return p + 7; }
  b = p[7]; r |= (b & 0x7Fu) << 49; if (b < 0x80u) { v = r; return p + 8; }
  b = p[8]; r |= (b & 0x7Fu) << 56; if (b < 0x80u) { v = r; return p + 9; }
  b = p[9];
  if (b > 1) return nullptr;  // continuation past 64 bits / non-canonical
  v = r | (b << 63);
  return p + 10;
}

// Shared skeleton of the two varint decoders: the unrolled loop runs
// while a full 10-byte varint cannot read past the payload; the tail
// (fewer than 10 bytes left) goes through the bounds-checked get_varint.
template <typename Emit>
void decode_varints(std::string_view payload, std::uint64_t rows,
                    Emit&& emit) {
  const auto* base = reinterpret_cast<const std::uint8_t*>(payload.data());
  const std::uint8_t* p = base;
  const std::uint8_t* const end = base + payload.size();
  std::uint64_t i = 0;
  std::uint64_t v = 0;
  while (i < rows && end - p >= 10) {
    const std::uint8_t* next = decode_one(p, v);
    if (next == nullptr) bad_block("malformed varint in block");
    emit(i, v);
    p = next;
    ++i;
  }
  // Tail (< 10 readable bytes) through the bounds-checked slow path.
  std::size_t pos = static_cast<std::size_t>(p - base);
  for (; i < rows; ++i) {
    if (!get_varint(payload, pos, v)) bad_block("truncated varint block");
    emit(i, v);
  }
  if (pos != payload.size()) bad_block("trailing bytes after varint block");
}

}  // namespace

std::vector<std::uint64_t>& ColumnArena::u64_slot(std::string_view dataset,
                                                  std::string_view column,
                                                  std::string_view aux) {
  std::string key;
  key.reserve(dataset.size() + column.size() + aux.size() + 2);
  key.append(dataset).push_back('.');
  key.append(column);
  if (!aux.empty()) {
    key.push_back('.');
    key.append(aux);
  }
  auto& slot = u64_[key];
  if (!slot) slot = std::make_unique<std::vector<std::uint64_t>>();
  return *slot;
}

std::vector<double>& ColumnArena::f64_slot(std::string_view dataset,
                                           std::string_view column) {
  std::string key;
  key.reserve(dataset.size() + column.size() + 1);
  key.append(dataset).push_back('.');
  key.append(column);
  auto& slot = f64_[key];
  if (!slot) slot = std::make_unique<std::vector<double>>();
  return *slot;
}

void decode_varint_block(std::string_view payload, std::uint64_t rows,
                         std::vector<std::uint64_t>& out) {
  out.resize(rows);
  std::uint64_t* dst = out.data();
  decode_varints(payload, rows,
                 [dst](std::uint64_t i, std::uint64_t v) { dst[i] = v; });
}

void decode_delta_varint_block(std::string_view payload, std::uint64_t rows,
                               std::vector<std::uint64_t>& out) {
  out.resize(rows);
  std::uint64_t* dst = out.data();
  std::uint64_t prev = 0;
  decode_varints(payload, rows, [dst, &prev](std::uint64_t i, std::uint64_t zz) {
    // Branch-light prefix sum: zigzag_decode is shift/xor/negate only,
    // and the running value stays in a register across rows.
    prev += static_cast<std::uint64_t>(zigzag_decode(zz));
    dst[i] = prev;
  });
}

void decode_string_offsets(std::string_view payload, std::uint64_t rows,
                           std::vector<std::uint64_t>& starts,
                           std::vector<std::uint64_t>& lens) {
  starts.resize(rows);
  lens.resize(rows);
  std::size_t pos = 0;
  for (std::uint64_t i = 0; i < rows; ++i) {
    std::uint64_t len = 0;
    if (!get_varint(payload, pos, len)) bad_block("truncated string block");
    if (pos + len > payload.size()) bad_block("truncated string block");
    starts[i] = pos;
    lens[i] = len;
    pos += len;
  }
  if (pos != payload.size()) bad_block("trailing bytes after string block");
}

namespace {

bool aligned8(const char* p) {
  return (reinterpret_cast<std::uintptr_t>(p) & 7u) == 0;
}

}  // namespace

std::span<const std::uint64_t> scan_u64(const Reader& reader,
                                        const ColumnDesc& desc,
                                        ColumnArena& arena) {
  if (desc.type != ColumnType::U64)
    throw StoreError("scan_u64: column '" + desc.dataset + "." + desc.column +
                     "' is not u64");
  const std::string_view payload = reader.verified_payload(desc);
  switch (desc.encoding) {
    case Encoding::DeltaVarint: {
      auto& buf = arena.u64_slot(desc.dataset, desc.column);
      decode_delta_varint_block(payload, desc.rows, buf);
      return {buf.data(), buf.size()};
    }
    case Encoding::Varint: {
      auto& buf = arena.u64_slot(desc.dataset, desc.column);
      decode_varint_block(payload, desc.rows, buf);
      return {buf.data(), buf.size()};
    }
    case Encoding::Fixed: {
      if (payload.size() != desc.rows * 8)
        bad_block("fixed64 block size does not match row count");
      if (aligned8(payload.data()))
        return {reinterpret_cast<const std::uint64_t*>(payload.data()),
                desc.rows};
      auto& buf = arena.u64_slot(desc.dataset, desc.column);
      buf.resize(desc.rows);
      std::memcpy(buf.data(), payload.data(), payload.size());
      return {buf.data(), buf.size()};
    }
    case Encoding::StringBlock:
      throw StoreError("u64 column cannot use string-block encoding");
  }
  bad_block("unknown u64 encoding");
}

std::span<const double> scan_f64(const Reader& reader, const ColumnDesc& desc,
                                 ColumnArena& arena) {
  if (desc.type != ColumnType::F64)
    throw StoreError("scan_f64: column '" + desc.dataset + "." + desc.column +
                     "' is not f64");
  const std::string_view payload = reader.verified_payload(desc);
  if (payload.size() != desc.rows * 8)
    bad_block("f64 block size does not match row count");
  if (aligned8(payload.data()))
    return {reinterpret_cast<const double*>(payload.data()), desc.rows};
  std::vector<double>& buf = arena.f64_slot(desc.dataset, desc.column);
  buf.resize(desc.rows);
  std::memcpy(buf.data(), payload.data(), payload.size());
  return {buf.data(), buf.size()};
}

std::span<const std::uint8_t> scan_u8(const Reader& reader,
                                      const ColumnDesc& desc) {
  if (desc.type != ColumnType::U8)
    throw StoreError("scan_u8: column '" + desc.dataset + "." + desc.column +
                     "' is not u8");
  const std::string_view payload = reader.verified_payload(desc);
  if (payload.size() != desc.rows)
    bad_block("u8 block size does not match row count");
  return {reinterpret_cast<const std::uint8_t*>(payload.data()), desc.rows};
}

StringColumnView scan_strings(const Reader& reader, const ColumnDesc& desc,
                              ColumnArena& arena) {
  if (desc.type != ColumnType::Str)
    throw StoreError("scan_strings: column '" + desc.dataset + "." +
                     desc.column + "' is not str");
  const std::string_view payload = reader.verified_payload(desc);
  std::vector<std::uint64_t>& starts =
      arena.u64_slot(desc.dataset, desc.column, "starts");
  std::vector<std::uint64_t>& lens =
      arena.u64_slot(desc.dataset, desc.column, "lens");
  decode_string_offsets(payload, desc.rows, starts, lens);
  StringColumnView view;
  view.bytes = payload;
  view.starts = {starts.data(), starts.size()};
  view.lens = {lens.data(), lens.size()};
  return view;
}

std::uint64_t scan_all(const Reader& reader, ColumnArena& arena) {
  // Acquire arena slots serially (the arena is not thread-safe), then
  // fan the per-block decodes out across the pool.
  std::vector<std::function<void()>> jobs;
  std::uint64_t bytes = 0;
  for (const ColumnDesc& desc : reader.columns()) {
    bytes += desc.size;
    switch (desc.type) {
      case ColumnType::U64: {
        if (desc.encoding == Encoding::Fixed) {
          // Zero-copy when aligned (every v3 block is); the pre-acquired
          // buffer keeps the misaligned fallback off the shared map.
          auto& buf = arena.u64_slot(desc.dataset, desc.column);
          jobs.push_back([&reader, &desc, &buf] {
            const std::string_view payload = reader.verified_payload(desc);
            if (payload.size() != desc.rows * 8)
              bad_block("fixed64 block size does not match row count");
            if (!aligned8(payload.data())) {
              buf.resize(desc.rows);
              std::memcpy(buf.data(), payload.data(), payload.size());
            }
          });
          break;
        }
        auto& buf = arena.u64_slot(desc.dataset, desc.column);
        jobs.push_back([&reader, &desc, &buf] {
          const std::string_view payload = reader.verified_payload(desc);
          if (desc.encoding == Encoding::DeltaVarint)
            decode_delta_varint_block(payload, desc.rows, buf);
          else
            decode_varint_block(payload, desc.rows, buf);
        });
        break;
      }
      case ColumnType::F64: {
        auto& buf = arena.f64_slot(desc.dataset, desc.column);
        jobs.push_back([&reader, &desc, &buf] {
          const std::string_view payload = reader.verified_payload(desc);
          if (payload.size() != desc.rows * 8)
            bad_block("f64 block size does not match row count");
          if (!aligned8(payload.data())) {
            buf.resize(desc.rows);
            std::memcpy(buf.data(), payload.data(), payload.size());
          }
        });
        break;
      }
      case ColumnType::U8:
        jobs.push_back([&reader, &desc] { scan_u8(reader, desc); });
        break;
      case ColumnType::Str: {
        auto& starts = arena.u64_slot(desc.dataset, desc.column, "starts");
        auto& lens = arena.u64_slot(desc.dataset, desc.column, "lens");
        jobs.push_back([&reader, &desc, &starts, &lens] {
          decode_string_offsets(reader.verified_payload(desc), desc.rows,
                                starts, lens);
        });
        break;
      }
    }
  }
  Reader::parallel_decode(jobs);
  return bytes;
}

}  // namespace ddos::store
