// Per-epoch incremental column encoders for the streaming pipeline. The
// materialized save path (dataset.cpp) encodes each column from a complete
// in-memory vector; the streaming driver instead retires one day-epoch at
// a time and must release that state immediately. These appenders keep
// only the growing encoded payload per column — DeltaVarint carries its
// `prev` across append calls, so feeding the same values in the same order
// chunk-by-chunk produces byte-identical payloads to the one-shot
// encode_u64_column/encode_f64_column, which is what keeps a streamed DRS
// file bit-for-bit equal to a materialized one. Payloads encoded in
// parallel by fresh appenders splice in order to the same bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "openintel/storage.h"
#include "store/format.h"
#include "store/writer.h"
#include "telescope/rsdos.h"

namespace ddos::store {

/// One encoded column payload, held as consecutive pieces of about
/// kPieceBytes: once the open last piece is that large, appends start a
/// new one instead of growing it, so a long column never reallocates (and
/// transiently doubles) one large buffer. flush_to writes the pieces back
/// to back as one block.
class Payload {
 public:
  static constexpr std::size_t kPieceBytes = std::size_t{1} << 20;

  /// The open piece, to append whole values to.
  std::string& tail() {
    if (tail_.size() >= kPieceBytes) {
      sealed_.push_back(std::exchange(tail_, {}));
    }
    return tail_;
  }

  /// Append `other`'s bytes, skipping its first `skip` bytes.
  void append(const Payload& other, std::size_t skip = 0);

  /// The first varint of the payload and its encoded length. Appenders
  /// write whole values into one piece, so a varint never spans two.
  std::pair<std::uint64_t, std::size_t> front_varint() const;

  void flush_to(Writer& writer, std::string_view dataset,
                std::string_view column, ColumnType type, Encoding encoding,
                std::uint64_t rows) const;

 private:
  std::vector<std::string> sealed_;  // earlier pieces, in order
  std::string tail_;
};

/// Incrementally builds one u64 column payload (DeltaVarint, Varint or
/// Fixed).
class U64Appender {
 public:
  explicit U64Appender(Encoding encoding = Encoding::DeltaVarint)
      : encoding_(encoding) {}

  void append(std::uint64_t v);

  /// Append a fragment built by a fresh appender of the same encoding
  /// over the values that follow this one's. Varint and Fixed payloads
  /// concatenate as they are; under DeltaVarint only the fragment's first
  /// value is re-encoded against this appender's carried `prev`, so the
  /// bytes equal appending the fragment's values one by one.
  void splice(const U64Appender& fragment);

  void flush_to(Writer& writer, std::string_view dataset,
                std::string_view column) const {
    payload_.flush_to(writer, dataset, column, ColumnType::U64, encoding_,
                      rows_);
  }

  std::uint64_t rows() const { return rows_; }

 private:
  Encoding encoding_;
  Payload payload_;
  std::uint64_t rows_ = 0;
  std::uint64_t prev_ = 0;  // DeltaVarint carry across appends
};

/// Incrementally builds one f64 column payload (Fixed, bit-exact).
class F64Appender {
 public:
  void append(double v);

  /// Append a fragment's rows (Fixed payloads concatenate as they are).
  void splice(const F64Appender& fragment) {
    payload_.append(fragment.payload_);
    rows_ += fragment.rows_;
  }

  void flush_to(Writer& writer, std::string_view dataset,
                std::string_view column) const {
    payload_.flush_to(writer, dataset, column, ColumnType::F64,
                      Encoding::Fixed, rows_);
  }

  std::uint64_t rows() const { return rows_; }

 private:
  Payload payload_;
  std::uint64_t rows_ = 0;
};

/// Incrementally builds one u8 column payload (Fixed: raw bytes, exactly
/// encode_u8_column's layout).
class U8Appender {
 public:
  void append(std::uint8_t v) {
    payload_.tail().push_back(static_cast<char>(v));
    ++rows_;
  }

  /// Append a fragment's rows (Fixed payloads concatenate as they are).
  void splice(const U8Appender& fragment) {
    payload_.append(fragment.payload_);
    rows_ += fragment.rows_;
  }

  void flush_to(Writer& writer, std::string_view dataset,
                std::string_view column) const {
    payload_.flush_to(writer, dataset, column, ColumnType::U8,
                      Encoding::Fixed, rows_);
  }

  std::uint64_t rows() const { return rows_; }

 private:
  Payload payload_;
  std::uint64_t rows_ = 0;
};

/// The 8 columns of the "feed" dataset, append-per-record. flush_to emits
/// blocks in exactly the column order of dataset.cpp's write_feed_records,
/// so a streamed store keeps save_run's block layout byte for byte while
/// the record vector itself is never materialised. Fragments encoded in
/// parallel over consecutive record ranges splice in range order to the
/// same bytes as appending every record here.
class FeedColumnsAppender {
 public:
  void append(const telescope::RSDoSRecord& record);
  void splice(const FeedColumnsAppender& fragment);
  void flush_to(Writer& writer) const;

  std::uint64_t rows() const { return window_.rows(); }

 private:
  U64Appender window_{Encoding::DeltaVarint};
  U64Appender victim_{Encoding::Varint};
  U64Appender slash16_{Encoding::Varint};
  U8Appender protocol_;
  U64Appender first_port_{Encoding::Varint};
  U64Appender unique_ports_{Encoding::Varint};
  F64Appender max_ppm_;
  U64Appender packets_{Encoding::Varint};
};

/// The 11 columns of one aggregate dataset ("daily" or "window"),
/// append-per-row. flush_to emits blocks in exactly the column order of
/// dataset.cpp's write_aggregates.
class AggregateColumnsAppender {
 public:
  explicit AggregateColumnsAppender(std::string dataset)
      : dataset_(std::move(dataset)) {}

  void append(std::uint64_t key, const openintel::Aggregate& agg);
  void flush_to(Writer& writer) const;

  std::uint64_t rows() const { return key_.rows(); }

 private:
  std::string dataset_;
  U64Appender key_{Encoding::DeltaVarint};
  U64Appender measured_{Encoding::Varint};
  U64Appender ok_{Encoding::Varint};
  U64Appender timeout_{Encoding::Varint};
  U64Appender servfail_{Encoding::Varint};
  U64Appender rtt_n_{Encoding::Varint};
  F64Appender rtt_sum_;
  F64Appender rtt_m_;
  F64Appender rtt_m2_;
  F64Appender rtt_min_;
  F64Appender rtt_max_;
};

/// The "ns_seen" dataset (day, ip), append-per-row.
class NsSeenAppender {
 public:
  void append(netsim::DayIndex day, netsim::IPv4Addr ip);
  void flush_to(Writer& writer) const;

  std::uint64_t rows() const { return day_.rows(); }

 private:
  U64Appender day_{Encoding::DeltaVarint};
  U64Appender ip_{Encoding::DeltaVarint};
};

}  // namespace ddos::store
