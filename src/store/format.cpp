#include "store/format.h"

#include <bit>

namespace ddos::store {

const char* to_string(ColumnType t) {
  switch (t) {
    case ColumnType::U64: return "u64";
    case ColumnType::F64: return "f64";
    case ColumnType::U8: return "u8";
    case ColumnType::Str: return "str";
  }
  return "?";
}

const char* to_string(Encoding e) {
  switch (e) {
    case Encoding::DeltaVarint: return "delta-varint";
    case Encoding::Varint: return "varint";
    case Encoding::Fixed: return "fixed";
    case Encoding::StringBlock: return "string-block";
  }
  return "?";
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80u) {
    out.push_back(static_cast<char>((v & 0x7Fu) | 0x80u));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

bool get_varint(std::string_view buf, std::size_t& pos, std::uint64_t& v) {
  v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= buf.size()) return false;
    const auto byte = static_cast<std::uint8_t>(buf[pos++]);
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      // Reject non-canonical 10-byte varints whose top bits overflow.
      if (shift == 63 && byte > 1) return false;
      return true;
    }
  }
  return false;
}

void put_fixed32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

bool get_fixed32(std::string_view buf, std::size_t& pos, std::uint32_t& v) {
  if (pos + 4 > buf.size()) return false;
  v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf[pos + i]))
         << (8 * i);
  pos += 4;
  return true;
}

void put_fixed64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

bool get_fixed64(std::string_view buf, std::size_t& pos, std::uint64_t& v) {
  if (pos + 8 > buf.size()) return false;
  v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(buf[pos + i]))
         << (8 * i);
  pos += 8;
  return true;
}

void put_string(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out.append(s);
}

bool get_string(std::string_view buf, std::size_t& pos, std::string& s) {
  std::uint64_t len = 0;
  if (!get_varint(buf, pos, len)) return false;
  if (len > buf.size() - pos) return false;
  s.assign(buf.substr(pos, len));
  pos += len;
  return true;
}

std::string encode_u64_column(std::span<const std::uint64_t> values,
                              Encoding encoding) {
  std::string payload;
  payload.reserve(values.size() * 2);
  switch (encoding) {
    case Encoding::DeltaVarint: {
      std::uint64_t prev = 0;
      for (const std::uint64_t v : values) {
        // Deltas wrap mod 2^64; zigzag keeps small negative steps short.
        put_varint(payload,
                   zigzag_encode(static_cast<std::int64_t>(v - prev)));
        prev = v;
      }
      break;
    }
    case Encoding::Varint:
      for (const std::uint64_t v : values) put_varint(payload, v);
      break;
    case Encoding::Fixed:
      for (const std::uint64_t v : values) put_fixed64(payload, v);
      break;
    case Encoding::StringBlock:
      throw StoreError("u64 column cannot use string-block encoding");
  }
  return payload;
}

namespace {

// Fully unrolled decode of one LEB128 varint with at least 10 readable
// bytes. Returns the advanced pointer, or nullptr on a non-canonical
// 10-byte varint (get_varint's rejection rule). Each step is a load,
// mask, shift, or and compare with no loop counter, so the one-byte
// common case (small counts and ids, tight deltas) is a single
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

[[noreturn]] void bad_varint_block(const char* what, Encoding encoding) {
  throw StoreError(std::string(what) + " " + to_string(encoding) + " block");
}

// Calls emit(i, value) for each of `rows` varints in `payload`. The
// unrolled loop runs while a full 10-byte varint cannot read past the
// payload; the tail (fewer than 10 bytes left) goes through the
// bounds-checked get_varint. Every varint must be canonical and the
// payload must end exactly after the last one.
template <typename Emit>
void decode_varints(std::string_view payload, std::uint64_t rows,
                    Encoding encoding, Emit&& emit) {
  const auto* base = reinterpret_cast<const std::uint8_t*>(payload.data());
  const std::uint8_t* p = base;
  const std::uint8_t* const end = base + payload.size();
  std::uint64_t i = 0;
  std::uint64_t v = 0;
  for (; i < rows && end - p >= 10; ++i) {
    p = decode_one(p, v);
    if (p == nullptr) bad_varint_block("malformed varint in", encoding);
    emit(i, v);
  }
  std::size_t pos = static_cast<std::size_t>(p - base);
  for (; i < rows; ++i) {
    if (!get_varint(payload, pos, v))
      bad_varint_block("truncated or malformed varint in", encoding);
    emit(i, v);
  }
  if (pos != payload.size()) bad_varint_block("trailing bytes after", encoding);
}

}  // namespace

std::vector<std::uint64_t> decode_u64_column(std::string_view payload,
                                             Encoding encoding,
                                             std::uint64_t rows) {
  std::vector<std::uint64_t> values;
  switch (encoding) {
    case Encoding::DeltaVarint:
    case Encoding::Varint: {
      // A varint takes at least one byte; check the footer's row count
      // against the payload before allocating for it.
      if (rows > payload.size())
        throw StoreError(std::string(to_string(encoding)) + " block of " +
                         std::to_string(payload.size()) +
                         " bytes cannot hold " + std::to_string(rows) +
                         " rows");
      values.resize(rows);
      std::uint64_t* const out = values.data();
      if (encoding == Encoding::Varint) {
        decode_varints(payload, rows, encoding,
                       [out](std::uint64_t i, std::uint64_t v) { out[i] = v; });
      } else {
        std::uint64_t prev = 0;
        decode_varints(payload, rows, encoding,
                       [out, &prev](std::uint64_t i, std::uint64_t zz) {
                         prev += static_cast<std::uint64_t>(zigzag_decode(zz));
                         out[i] = prev;
                       });
      }
      return values;
    }
    case Encoding::Fixed: {
      if (payload.size() % 8 != 0 || payload.size() / 8 != rows)
        throw StoreError("fixed64 block size does not match row count");
      values.resize(rows);
      std::size_t pos = 0;
      for (std::uint64_t& v : values) get_fixed64(payload, pos, v);
      return values;
    }
    case Encoding::StringBlock:
      break;
  }
  throw StoreError("u64 column cannot use string-block encoding");
}

std::string encode_f64_column(std::span<const double> values) {
  std::string payload;
  payload.reserve(values.size() * 8);
  for (const double v : values)
    put_fixed64(payload, std::bit_cast<std::uint64_t>(v));
  return payload;
}

std::vector<double> decode_f64_column(std::string_view payload,
                                      std::uint64_t rows) {
  if (payload.size() % 8 != 0 || payload.size() / 8 != rows)
    throw StoreError("f64 block size does not match row count");
  std::vector<double> values;
  values.reserve(rows);
  std::size_t pos = 0;
  for (std::uint64_t i = 0; i < rows; ++i) {
    std::uint64_t bits = 0;
    get_fixed64(payload, pos, bits);
    values.push_back(std::bit_cast<double>(bits));
  }
  return values;
}

std::string encode_u8_column(std::span<const std::uint8_t> values) {
  if (values.empty()) return {};
  return std::string(reinterpret_cast<const char*>(values.data()),
                     values.size());
}

std::vector<std::uint8_t> decode_u8_column(std::string_view payload,
                                           std::uint64_t rows) {
  if (payload.size() != rows)
    throw StoreError("u8 block size does not match row count");
  return std::vector<std::uint8_t>(payload.begin(), payload.end());
}

std::string encode_string_column(std::span<const std::string> values) {
  std::string payload;
  for (const std::string& s : values) put_string(payload, s);
  return payload;
}

std::vector<std::string> decode_string_column(std::string_view payload,
                                              std::uint64_t rows) {
  // Every row's length prefix takes at least one byte.
  if (rows > payload.size())
    throw StoreError("string block of " + std::to_string(payload.size()) +
                     " bytes cannot hold " + std::to_string(rows) + " rows");
  std::vector<std::string> values;
  values.reserve(rows);
  std::size_t pos = 0;
  for (std::uint64_t i = 0; i < rows; ++i) {
    std::string s;
    if (!get_string(payload, pos, s))
      throw StoreError("truncated string block");
    values.push_back(std::move(s));
  }
  if (pos != payload.size())
    throw StoreError("trailing bytes after string block");
  return values;
}

}  // namespace ddos::store
