#include "store/epoch.h"

#include <algorithm>
#include <bit>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ddos::store {

void Payload::append(const Payload& other, std::size_t skip) {
  const auto add = [&](std::string_view piece) {
    const std::size_t drop = std::min(skip, piece.size());
    skip -= drop;
    piece.remove_prefix(drop);
    while (!piece.empty()) {
      std::string& out = tail();
      const std::size_t n = std::min(piece.size(), kPieceBytes - out.size());
      out.append(piece.substr(0, n));
      piece.remove_prefix(n);
    }
  };
  for (const std::string& piece : other.sealed_) add(piece);
  add(other.tail_);
}

std::pair<std::uint64_t, std::size_t> Payload::front_varint() const {
  // Sealed pieces are never empty, so the payload starts in the first.
  const std::string& head = sealed_.empty() ? tail_ : sealed_.front();
  std::size_t pos = 0;
  std::uint64_t v = 0;
  if (!get_varint(head, pos, v)) {
    throw StoreError("column payload does not start with a varint");
  }
  return {v, pos};
}

void Payload::flush_to(Writer& writer, std::string_view dataset,
                       std::string_view column, ColumnType type,
                       Encoding encoding, std::uint64_t rows) const {
  std::vector<std::string_view> pieces(sealed_.begin(), sealed_.end());
  pieces.push_back(tail_);
  writer.add_encoded(dataset, column, type, encoding, rows, pieces);
}

void U64Appender::append(std::uint64_t v) {
  std::string& out = payload_.tail();
  switch (encoding_) {
    case Encoding::DeltaVarint:
      put_varint(out, zigzag_encode(static_cast<std::int64_t>(v - prev_)));
      prev_ = v;
      break;
    case Encoding::Varint:
      put_varint(out, v);
      break;
    case Encoding::Fixed:
      put_fixed64(out, v);
      break;
    case Encoding::StringBlock:
      throw StoreError("u64 column cannot use string-block encoding");
  }
  ++rows_;
}

void U64Appender::splice(const U64Appender& fragment) {
  if (fragment.rows_ == 0) return;
  std::size_t skip = 0;
  if (encoding_ == Encoding::DeltaVarint) {
    // The fragment started from prev = 0, so its first delta is its first
    // value; re-encode that one against the carried prev.
    const auto [first_delta, length] = fragment.payload_.front_varint();
    const auto first = static_cast<std::uint64_t>(zigzag_decode(first_delta));
    put_varint(payload_.tail(),
               zigzag_encode(static_cast<std::int64_t>(first - prev_)));
    prev_ = fragment.prev_;
    skip = length;
  }
  payload_.append(fragment.payload_, skip);
  rows_ += fragment.rows_;
}

void F64Appender::append(double v) {
  put_fixed64(payload_.tail(), std::bit_cast<std::uint64_t>(v));
  ++rows_;
}

void FeedColumnsAppender::append(const telescope::RSDoSRecord& record) {
  window_.append(static_cast<std::uint64_t>(record.window));
  victim_.append(record.victim.value());
  slash16_.append(record.distinct_slash16);
  protocol_.append(static_cast<std::uint8_t>(record.protocol));
  first_port_.append(record.first_port);
  unique_ports_.append(record.unique_ports);
  max_ppm_.append(record.max_ppm);
  packets_.append(record.packets);
}

void FeedColumnsAppender::splice(const FeedColumnsAppender& fragment) {
  window_.splice(fragment.window_);
  victim_.splice(fragment.victim_);
  slash16_.splice(fragment.slash16_);
  protocol_.splice(fragment.protocol_);
  first_port_.splice(fragment.first_port_);
  unique_ports_.splice(fragment.unique_ports_);
  max_ppm_.splice(fragment.max_ppm_);
  packets_.splice(fragment.packets_);
}

void FeedColumnsAppender::flush_to(Writer& writer) const {
  window_.flush_to(writer, "feed", "window");
  victim_.flush_to(writer, "feed", "victim");
  slash16_.flush_to(writer, "feed", "slash16");
  protocol_.flush_to(writer, "feed", "protocol");
  first_port_.flush_to(writer, "feed", "first_port");
  unique_ports_.flush_to(writer, "feed", "unique_ports");
  max_ppm_.flush_to(writer, "feed", "max_ppm");
  packets_.flush_to(writer, "feed", "packets");
}

void AggregateColumnsAppender::append(std::uint64_t key,
                                      const openintel::Aggregate& agg) {
  key_.append(key);
  measured_.append(agg.measured);
  ok_.append(agg.ok);
  timeout_.append(agg.timeout);
  servfail_.append(agg.servfail);
  const util::RunningStats::Raw raw = agg.rtt.raw();
  rtt_n_.append(raw.n);
  rtt_sum_.append(raw.sum);
  rtt_m_.append(raw.m);
  rtt_m2_.append(raw.m2);
  rtt_min_.append(raw.min);
  rtt_max_.append(raw.max);
}

void AggregateColumnsAppender::flush_to(Writer& writer) const {
  key_.flush_to(writer, dataset_, "key");
  measured_.flush_to(writer, dataset_, "measured");
  ok_.flush_to(writer, dataset_, "ok");
  timeout_.flush_to(writer, dataset_, "timeout");
  servfail_.flush_to(writer, dataset_, "servfail");
  rtt_n_.flush_to(writer, dataset_, "rtt_n");
  rtt_sum_.flush_to(writer, dataset_, "rtt_sum");
  rtt_m_.flush_to(writer, dataset_, "rtt_m");
  rtt_m2_.flush_to(writer, dataset_, "rtt_m2");
  rtt_min_.flush_to(writer, dataset_, "rtt_min");
  rtt_max_.flush_to(writer, dataset_, "rtt_max");
}

void NsSeenAppender::append(netsim::DayIndex day, netsim::IPv4Addr ip) {
  day_.append(static_cast<std::uint64_t>(day));
  ip_.append(ip.value());
}

void NsSeenAppender::flush_to(Writer& writer) const {
  day_.flush_to(writer, "ns_seen", "day");
  ip_.flush_to(writer, "ns_seen", "ip");
}

}  // namespace ddos::store
