#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "store/checksum.h"
#include "store/dataset.h"
#include "store/epoch.h"
#include "store/format.h"
#include "store/reader.h"
#include "store/writer.h"

namespace ddos::store {
namespace {

// Per-process temp names: gtest_discover_tests runs each case as its own
// ctest entry, so concurrent ctest -j workers would otherwise race on
// one file.
std::string temp_path(const char* name) {
  return (std::filesystem::path(testing::TempDir()) /
          (std::to_string(::getpid()) + "-" + name))
      .string();
}

// Flip one byte at `offset` in the file at `path`.
void corrupt_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0xFF));
}

TEST(Checksum, KnownVector) {
  // The canonical CRC32C check value for the ASCII digits "123456789".
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0u);
}

TEST(Checksum, SeedChains) {
  const std::uint32_t whole = crc32c("123456789", 9);
  const std::uint32_t first = crc32c("12345", 5);
  EXPECT_EQ(crc32c("6789", 4, first), whole);
}

TEST(Format, VarintRoundTrip) {
  const std::vector<std::uint64_t> values = {
      0, 1, 127, 128, 16383, 16384, 1ull << 32,
      std::numeric_limits<std::uint64_t>::max()};
  std::string buf;
  for (const auto v : values) put_varint(buf, v);
  std::size_t pos = 0;
  for (const auto v : values) {
    std::uint64_t got = 0;
    ASSERT_TRUE(get_varint(buf, pos, got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(Format, VarintRejectsTruncation) {
  std::string buf;
  put_varint(buf, 1ull << 40);
  buf.pop_back();
  std::size_t pos = 0;
  std::uint64_t got = 0;
  EXPECT_FALSE(get_varint(buf, pos, got));
}

TEST(Format, ZigzagRoundTrip) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
        std::int64_t{-123456789}, std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
  // Small magnitudes stay small: the point of zigzag before varint.
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
}

TEST(Format, DeltaVarintHandlesDescendingValues) {
  // Deltas wrap mod 2^64, so unsorted and descending sequences survive.
  const std::vector<std::uint64_t> values = {
      100, 5, std::numeric_limits<std::uint64_t>::max(), 0, 100};
  const std::string payload = encode_u64_column(values, Encoding::DeltaVarint);
  EXPECT_EQ(decode_u64_column(payload, Encoding::DeltaVarint, values.size()),
            values);
}

TEST(Format, DecodeRejectsTrailingBytes) {
  const std::vector<std::uint64_t> values = {1, 2, 3};
  std::string payload = encode_u64_column(values, Encoding::Varint);
  payload.push_back('\0');
  EXPECT_THROW(decode_u64_column(payload, Encoding::Varint, values.size()),
               StoreError);
}

// decode_u64_column runs an unrolled loop while at least 10 payload
// bytes are left and finishes with get_varint. Lengths 0-24 over values
// of 1 to 10 varint bytes put rows in both regions and on the boundary;
// the value order makes deltas wrap in both directions.
TEST(Format, U64ColumnRoundTripsInBothDecodeRegions) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::vector<std::uint64_t> pool = {
      0, 127, 128, 1ull << 63, kMax, 5, 16384, 1ull << 40, 3, kMax - 1, 1};
  for (const Encoding encoding : {Encoding::Varint, Encoding::DeltaVarint}) {
    for (std::size_t n = 0; n <= 24; ++n) {
      for (std::size_t stride : {1u, 4u, 7u}) {
        std::vector<std::uint64_t> values;
        for (std::size_t i = 0; i < n; ++i)
          values.push_back(pool[(i * stride + n) % pool.size()]);
        const std::string payload = encode_u64_column(values, encoding);
        EXPECT_EQ(decode_u64_column(payload, encoding, n), values)
            << to_string(encoding) << " n=" << n << " stride=" << stride;
      }
    }
  }
}

// Malformed varint payloads fail in the unrolled region (at least 10
// bytes left) and in the get_varint tail. A 10th byte above 1 can only
// sit in the unrolled region: with fewer than 10 bytes left the varint
// is truncated before it has a 10th byte.
TEST(Format, MalformedVarintPayloadsAreRejectedInBothRegions) {
  const auto ones = [](std::size_t n) { return std::string(n, '\x01'); };
  std::string ten_byte_overflow(9, '\xFF');
  ten_byte_overflow.push_back('\x02');  // bits past 64
  const std::string ten_continuations(10, '\x80');
  struct Case {
    const char* what;
    std::string payload;
    std::uint64_t rows;
  };
  const std::vector<Case> cases = {
      {"10th byte > 1, unrolled region", ones(3) + ten_byte_overflow + ones(4),
       8},
      {"continuation bit at the end, unrolled region", ten_continuations, 1},
      {"continuation bit at the end, tail", ones(12) + "\x80", 13},
      {"continuation bit at the end, tail only", "\x80", 1},
      {"trailing byte, unrolled region", ones(2) + ones(10), 2},
      {"trailing byte, tail", ones(3), 2},
      {"trailing byte after the unrolled region", ones(15), 14},
  };
  for (const Encoding encoding : {Encoding::Varint, Encoding::DeltaVarint}) {
    for (const Case& c : cases) {
      EXPECT_THROW(decode_u64_column(c.payload, encoding, c.rows), StoreError)
          << to_string(encoding) << ": " << c.what;
    }
  }
  // The same bytes with a matching row count decode.
  EXPECT_EQ(decode_u64_column(ones(15), Encoding::Varint, 15).size(), 15u);
}

// Footer row counts are checked against the payload before any
// allocation: a row count no payload can hold is a StoreError, not a
// length_error or an out-of-memory abort.
TEST(Format, RowCountsBeyondThePayloadFailBeforeAllocating) {
  const std::uint64_t huge = 1ull << 62;
  EXPECT_THROW(decode_u64_column("\x01", Encoding::Varint, huge), StoreError);
  EXPECT_THROW(decode_u64_column("\x01", Encoding::DeltaVarint, huge),
               StoreError);
  EXPECT_THROW(decode_u64_column(std::string(8, '\0'), Encoding::Fixed,
                                 (1ull << 61) + 1),
               StoreError);
  EXPECT_THROW(decode_f64_column(std::string(8, '\0'), (1ull << 61) + 1),
               StoreError);
  EXPECT_THROW(decode_f64_column(std::string(9, '\0'), 1), StoreError);
  EXPECT_THROW(decode_u8_column("\x01", huge), StoreError);
  EXPECT_THROW(decode_string_column(std::string(1, '\0'), huge), StoreError);
  // A length prefix running past the payload, however large.
  std::string huge_len;
  put_varint(huge_len, std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW(decode_string_column(huge_len, 1), StoreError);
}

TEST(WriterReader, RoundTripAllColumnTypes) {
  const std::string path = temp_path("roundtrip.drs");
  const std::vector<std::uint64_t> keys = {10, 20, 20, 35};
  const std::vector<std::uint64_t> counts = {0, 7, 1u << 20, 3};
  const std::vector<double> rtts = {0.0, -1.5, 1e308, 5e-324};
  const std::vector<std::uint8_t> protocols = {17, 6, 1, 17};
  const std::vector<std::string> orgs = {"NForce B.V.", "", "with,comma",
                                         std::string(1, '\0')};
  {
    Writer writer(path);
    ASSERT_TRUE(writer.ok());
    writer.add_meta("seed", "42");
    writer.add_meta("seed", "43");  // same key overwrites
    writer.add_meta("tool", "test");
    writer.add_u64("ds", "key", keys, Encoding::DeltaVarint);
    writer.add_u64("ds", "count", counts, Encoding::Varint);
    writer.add_f64("ds", "rtt", rtts);
    writer.add_u8("ds", "protocol", protocols);
    writer.add_strings("ds", "org", orgs);
    ASSERT_TRUE(writer.finish());
    EXPECT_EQ(writer.bytes_written(),
              std::filesystem::file_size(path));
  }
  const Reader reader(path);
  EXPECT_EQ(reader.meta_value("seed"), "43");
  EXPECT_EQ(reader.meta_value("tool"), "test");
  EXPECT_EQ(reader.meta_or("absent", "fallback"), "fallback");
  EXPECT_THROW(reader.meta_value("absent"), StoreError);
  EXPECT_EQ(reader.dataset_rows("ds"), 4u);
  EXPECT_EQ(reader.read_u64("ds", "key"), keys);
  EXPECT_EQ(reader.read_u64("ds", "count"), counts);
  EXPECT_EQ(reader.read_f64("ds", "rtt"), rtts);
  EXPECT_EQ(reader.read_u8("ds", "protocol"), protocols);
  EXPECT_EQ(reader.read_strings("ds", "org"), orgs);
  EXPECT_FALSE(reader.has_column("ds", "absent"));
  EXPECT_THROW(reader.column("ds", "absent"), StoreError);
  EXPECT_NO_THROW(reader.validate_all());
}

TEST(WriterReader, EmptyDatasetRoundTrips) {
  const std::string path = temp_path("empty.drs");
  {
    Writer writer(path);
    writer.add_u64("feed", "window", {}, Encoding::DeltaVarint);
    writer.add_f64("feed", "ppm", {});
    writer.add_strings("feed", "org", {});
    ASSERT_TRUE(writer.finish());
  }
  const Reader reader(path);
  EXPECT_EQ(reader.dataset_rows("feed"), 0u);
  EXPECT_TRUE(reader.read_u64("feed", "window").empty());
  EXPECT_TRUE(reader.read_f64("feed", "ppm").empty());
  EXPECT_TRUE(reader.read_strings("feed", "org").empty());
  EXPECT_NO_THROW(reader.validate_all());
}

TEST(WriterReader, SingleRowBlocks) {
  const std::string path = temp_path("single.drs");
  {
    Writer writer(path);
    writer.add_u64("ds", "key", std::vector<std::uint64_t>{
        std::numeric_limits<std::uint64_t>::max()});
    writer.add_f64("ds", "value", std::vector<double>{-0.0});
    ASSERT_TRUE(writer.finish());
  }
  const Reader reader(path);
  EXPECT_EQ(reader.read_u64("ds", "key"),
            (std::vector<std::uint64_t>{
                std::numeric_limits<std::uint64_t>::max()}));
  const auto values = reader.read_f64("ds", "value");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_TRUE(std::signbit(values[0]));  // -0.0 bit pattern preserved
}

TEST(WriterReader, DetectsCorruptBlock) {
  const std::string path = temp_path("corrupt.drs");
  {
    Writer writer(path);
    const std::vector<std::uint64_t> keys = {1000, 2000, 3000, 4000};
    writer.add_u64("ds", "key", keys);
    ASSERT_TRUE(writer.finish());
  }
  // First block payload starts right after the 16-byte header.
  corrupt_byte(path, kHeaderSize);
  const Reader reader(path);  // footer itself is intact
  EXPECT_THROW(reader.read_u64("ds", "key"), StoreError);
  EXPECT_THROW(reader.validate_all(), StoreError);
}

TEST(WriterReader, DetectsTruncatedFile) {
  const std::string path = temp_path("truncated.drs");
  {
    Writer writer(path);
    writer.add_u64("ds", "key", std::vector<std::uint64_t>{1, 2, 3});
    ASSERT_TRUE(writer.finish());
  }
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 8);
  EXPECT_THROW(Reader{path}, StoreError);
}

TEST(WriterReader, RejectsBadMagicAndVersion) {
  const std::string path = temp_path("versioned.drs");
  {
    Writer writer(path);
    writer.add_u64("ds", "key", std::vector<std::uint64_t>{7});
    ASSERT_TRUE(writer.finish());
  }
  {
    // Bump the format version field (bytes 4..7 of the header).
    corrupt_byte(path, 4);
    try {
      const Reader reader(path);
      FAIL() << "expected StoreError";
    } catch (const StoreError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
    corrupt_byte(path, 4);  // restore
  }
  corrupt_byte(path, 0);  // break the magic
  EXPECT_THROW(Reader{path}, StoreError);
}

TEST(WriterReader, MissingFileThrows) {
  EXPECT_THROW(Reader{temp_path("does-not-exist.drs")}, StoreError);
}

// Footer row counts a CRC-valid block cannot hold fail through the
// Reader with a StoreError naming the file and the column.
TEST(WriterReader, OversizedFooterRowCountsNameFileAndColumn) {
  const std::string path = temp_path("huge-rows.drs");
  {
    Writer writer(path);
    writer.add_encoded("ds", "reals", ColumnType::F64, Encoding::Fixed,
                       (1ull << 61) + 1, std::string(8, '\0'));
    writer.add_encoded("ds", "counts", ColumnType::U64, Encoding::Varint,
                       1ull << 62, std::string("\x01"));
    writer.add_encoded("ds", "names", ColumnType::Str, Encoding::StringBlock,
                       1ull << 62, std::string(1, '\0'));
    ASSERT_TRUE(writer.finish());
  }
  const Reader reader(path);
  const auto expect_named = [&](const std::function<void()>& read,
                                const std::string& column) {
    try {
      read();
      ADD_FAILURE() << column << ": no StoreError";
    } catch (const StoreError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(path), std::string::npos) << message;
      EXPECT_NE(message.find("column '" + column + "'"), std::string::npos)
          << message;
    }
  };
  expect_named([&] { reader.read_f64("ds", "reals"); }, "ds.reals");
  expect_named([&] { reader.read_u64("ds", "counts"); }, "ds.counts");
  expect_named([&] { reader.read_strings("ds", "names"); }, "ds.names");
  std::filesystem::remove(path);
}

// The Reader only maps: a file it cannot map, or one too short to hold a
// header and a trailer, fails at open with a StoreError naming the path.
TEST(WriterReader, UnmappableAndHeaderOnlyFilesFailAtOpen) {
  const std::string empty = temp_path("zero-bytes.drs");
  { std::ofstream out(empty, std::ios::binary | std::ios::trunc); }
  const std::string header_only = temp_path("header-only.drs");
  {
    std::string header;
    put_fixed32(header, kMagic);
    put_fixed32(header, kFormatVersion);
    put_fixed64(header, 0);
    std::ofstream out(header_only, std::ios::binary | std::ios::trunc);
    out << header;
  }
  const std::string directory = temp_path("a-directory.drs");
  std::filesystem::create_directory(directory);
  for (const std::string& path : {empty, header_only, directory}) {
    try {
      const Reader reader(path);
      ADD_FAILURE() << path << ": opened";
    } catch (const StoreError& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
  std::filesystem::remove(empty);
  std::filesystem::remove(header_only);
  std::filesystem::remove(directory);
}

// A footer whose offset + size wraps past 2^64 must not pass the
// block-extent check. The file is built by hand: the Writer cannot
// produce such a footer.
TEST(WriterReader, FooterExtentThatWrapsFailsAtOpen) {
  const std::string path = temp_path("wrapping-extent.drs");
  std::string file;
  put_fixed32(file, kMagic);
  put_fixed32(file, kFormatVersion);
  put_fixed64(file, 0);
  file.append(8, '\x01');  // one 8-byte block at offset 16
  std::string footer;
  put_varint(footer, 0);  // no metadata
  put_varint(footer, 1);  // one column
  put_string(footer, "ds");
  put_string(footer, "col");
  footer.push_back(static_cast<char>(ColumnType::U8));
  footer.push_back(static_cast<char>(Encoding::Fixed));
  put_varint(footer, 8);            // rows
  put_varint(footer, kHeaderSize);  // offset
  put_varint(footer, std::numeric_limits<std::uint64_t>::max());  // size
  put_fixed32(footer, crc32c(file.data() + kHeaderSize, 8));
  file += footer;
  put_fixed64(file, footer.size());
  put_fixed32(file, crc32c(footer.data(), footer.size()));
  put_fixed32(file, kMagic);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << file;
  }
  try {
    const Reader reader(path);
    ADD_FAILURE() << "opened a store whose block extent wraps";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find("outside the block region"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(Writer, RejectsColumnsAfterFinish) {
  const std::string path = temp_path("finished.drs");
  Writer writer(path);
  ASSERT_TRUE(writer.finish());
  EXPECT_THROW(
      writer.add_u64("ds", "key", std::vector<std::uint64_t>{1}),
      StoreError);
}

// ---- The mapped reader: lazy per-block CRCs, open-time checks and the
//      v3 block layout.

// One store exercising every (type, encoding) pair the writer produces.
std::string write_sample_store(const char* name) {
  const std::string path = temp_path(name);
  const std::vector<std::uint64_t> sorted = {3, 7, 7, 40, 1000, 1000000};
  const std::vector<std::uint64_t> counts = {0, 1, 127, 128, 300000,
                                             1ull << 40};
  const std::vector<double> reals = {0.0, -1.5, 3.25, 1e308, -0.0, 42.0};
  const std::vector<std::uint8_t> bytes = {0, 1, 2, 0, 255, 7};
  const std::vector<std::string> names = {"transip", "", "ovh",
                                          "a much longer org name",
                                          "x",       "selfhosted"};
  Writer writer(path);
  writer.add_meta("purpose", "mmap-test");
  writer.add_u64("ds", "sorted", sorted, Encoding::DeltaVarint);
  writer.add_u64("ds", "counts", counts, Encoding::Varint);
  writer.add_u64("ds", "raw", counts, Encoding::Fixed);
  writer.add_f64("ds", "reals", reals);
  writer.add_u8("ds", "bytes", bytes);
  writer.add_strings("ds", "names", names);
  EXPECT_TRUE(writer.finish());
  return path;
}

TEST(MmapReader, V3BlocksAreEightByteAligned) {
  const std::string path = write_sample_store("mmap_aligned.drs");
  const Reader reader(path);
  for (const auto& desc : reader.columns()) {
    EXPECT_EQ(desc.offset % 8, 0u) << desc.dataset << "." << desc.column;
  }
  std::filesystem::remove(path);
}

TEST(MmapReader, LazyCrcFailsOnFirstTouchNotAtOpen) {
  const std::string path = write_sample_store("mmap_corrupt.drs");
  // The first block's payload starts right after the 16-byte header.
  corrupt_byte(path, kHeaderSize);
  // Open parses only the footer — the bit flip goes unnoticed here.
  const Reader reader(path);
  EXPECT_EQ(reader.lazy_crc_checks(), 0u);
  // Healthy columns stay readable around the corrupt one.
  EXPECT_NO_THROW(reader.read_u64("ds", "counts"));
  EXPECT_EQ(reader.lazy_crc_checks(), 1u);
  // First touch of the corrupt block throws...
  EXPECT_THROW(reader.read_u64("ds", "sorted"), StoreError);
  // ...and a failed check is never recorded as verified, so every
  // subsequent touch fails just as loudly.
  EXPECT_THROW(reader.read_u64("ds", "sorted"), StoreError);
  EXPECT_EQ(reader.lazy_crc_checks(), 1u);
  // A repeat read of a verified block does not re-hash it.
  EXPECT_NO_THROW(reader.read_u64("ds", "counts"));
  EXPECT_EQ(reader.lazy_crc_checks(), 1u);
  std::filesystem::remove(path);
}

TEST(MmapReader, TruncatedFileFailsAtOpen) {
  const std::string path = write_sample_store("mmap_truncated.drs");
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 8);
  EXPECT_THROW(Reader{path}, StoreError);
  std::filesystem::remove(path);
}

// Trailing bytes after a varint block's last row fail through the Reader
// whether the decode ends in the unrolled loop or in the tail.
TEST(MmapReader, UnrolledDecoderRejectsTrailingBytes) {
  const std::string path = temp_path("mmap_trailing.drs");
  std::string tail_payload;
  put_varint(tail_payload, 5);
  put_varint(tail_payload, 6);
  tail_payload.push_back('\x01');  // one varint too many for rows=2
  const std::string unrolled_payload = tail_payload + std::string(10, '\x01');
  Writer writer(path);
  writer.add_encoded("ds", "tail", ColumnType::U64, Encoding::Varint, 2,
                     tail_payload);
  writer.add_encoded("ds", "unrolled", ColumnType::U64, Encoding::DeltaVarint,
                     2, unrolled_payload);
  ASSERT_TRUE(writer.finish());
  const Reader reader(path);
  EXPECT_THROW(reader.read_u64("ds", "tail"), StoreError);
  EXPECT_THROW(reader.read_u64("ds", "unrolled"), StoreError);
  std::filesystem::remove(path);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Feed columns encoded in fragments (one fresh appender per record range,
// as the ingest workers build them) and spliced in range order must be
// the bytes of appending every record to one appender: Varint and Fixed
// payloads concatenate, and the DeltaVarint window column re-encodes only
// each fragment's first value against the carried previous window. The
// large fragment spans several payload pieces.
TEST(FeedColumnsSplice, SplicedFragmentsEqualPerRecordAppend) {
  constexpr std::size_t kLarge = 3 * Payload::kPieceBytes / 8 + 17;
  std::vector<telescope::RSDoSRecord> records;
  for (std::uint32_t i = 0; i < 40 + kLarge; ++i) {
    telescope::RSDoSRecord rec;
    // Windows rise and fall, so deltas are positive, zero and negative,
    // including across fragment boundaries.
    rec.window = 1000 + static_cast<netsim::WindowIndex>((i * 37) % 23) -
                 static_cast<netsim::WindowIndex>(i % 3 == 0 ? 900 : 0);
    rec.victim = netsim::IPv4Addr(0x0A000000u + i * 7919u);
    rec.distinct_slash16 = 25 + i % 1000;
    rec.protocol = i % 2 ? attack::Protocol::UDP : attack::Protocol::TCP;
    rec.first_port = static_cast<std::uint16_t>(i * 11);
    rec.unique_ports = static_cast<std::uint16_t>(1 + i % 5);
    rec.max_ppm = 5.0 + i * 0.25;
    rec.packets = 25 + i * 1000;
    records.push_back(rec);
  }

  const std::string per_record_path = temp_path("splice-per-record.drs");
  {
    FeedColumnsAppender whole;
    for (const auto& rec : records) whole.append(rec);
    Writer writer(per_record_path);
    whole.flush_to(writer);
    ASSERT_TRUE(writer.finish());
  }

  // Empty, 1-row and n-row fragments, empty ones first, last and between.
  const std::vector<std::size_t> sizes = {0, 1, 0,      5,  1,
                                         1, 0, kLarge, 12, 20, 0};
  std::size_t total = 0;
  for (const std::size_t n : sizes) total += n;
  ASSERT_EQ(total, records.size());
  const std::string spliced_path = temp_path("splice-fragments.drs");
  {
    FeedColumnsAppender spliced;
    std::size_t next = 0;
    for (const std::size_t n : sizes) {
      FeedColumnsAppender fragment;
      for (std::size_t i = 0; i < n; ++i) fragment.append(records[next++]);
      spliced.splice(fragment);
    }
    EXPECT_EQ(spliced.rows(), records.size());
    Writer writer(spliced_path);
    spliced.flush_to(writer);
    ASSERT_TRUE(writer.finish());
  }

  // Compared with ==, not EXPECT_EQ: gtest's diff of two multi-megabyte
  // strings would need memory quadratic in their size.
  const std::string spliced_bytes = file_bytes(spliced_path);
  const std::string per_record_bytes = file_bytes(per_record_path);
  EXPECT_EQ(spliced_bytes.size(), per_record_bytes.size());
  EXPECT_TRUE(spliced_bytes == per_record_bytes)
      << "spliced feed columns differ from per-record appends";
  EXPECT_TRUE(read_feed_records(Reader(spliced_path)) == records);
}

}  // namespace
}  // namespace ddos::store
