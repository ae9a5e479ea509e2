#include <gtest/gtest.h>

#include <sstream>

#include "exec/parallel.h"
#include "exec/pool.h"
#include "netsim/rng.h"
#include "telescope/darknet.h"
#include "telescope/feed.h"
#include "telescope/rsdos.h"

namespace ddos::telescope {
namespace {

using netsim::IPv4Addr;
using netsim::Prefix;
using netsim::SimTime;
using Records = std::vector<RSDoSRecord>;

TEST(Darknet, UcsdLikeGeometry) {
  const Darknet net = Darknet::ucsd_like();
  EXPECT_EQ(net.prefixes().size(), 2u);
  // /9 + /10 = 2^23 + 2^22 addresses = 3/1024 of IPv4 = 1/341.33.
  EXPECT_EQ(net.address_count(), (1u << 23) + (1u << 22));
  EXPECT_NEAR(net.ipv4_fraction(), 3.0 / 1024.0, 1e-12);
  EXPECT_NEAR(net.extrapolation_factor(), 341.33, 0.01);
  EXPECT_EQ(net.slash16_count(), 128u + 64u);
}

TEST(Darknet, Containment) {
  const Darknet net = Darknet::ucsd_like();
  EXPECT_TRUE(net.contains(IPv4Addr(44, 1, 2, 3)));
  EXPECT_TRUE(net.contains(IPv4Addr(45, 150, 0, 1)));
  EXPECT_FALSE(net.contains(IPv4Addr(8, 8, 8, 8)));
}

TEST(Darknet, RejectsBadConfigurations) {
  EXPECT_THROW(Darknet({}), std::invalid_argument);
  EXPECT_THROW(Darknet({Prefix(IPv4Addr(10, 0, 0, 0), 8),
                        Prefix(IPv4Addr(10, 1, 0, 0), 16)}),
               std::invalid_argument);
}

TEST(Darknet, LongPrefixCountsOneSlash16) {
  const Darknet net({Prefix(IPv4Addr(10, 0, 0, 0), 24)});
  EXPECT_EQ(net.slash16_count(), 1u);
}

TEST(PaperExtrapolation, Footnote2) {
  // 21.8 Kppm x 341 / 60 s = ~124 Kpps (§5.1 footnote 2).
  const Darknet net = Darknet::ucsd_like();
  RSDoSFeed feed{InferenceParams{}, attack::BackscatterModelParams{}};
  EXPECT_NEAR(feed.extrapolate_pps(21.8e3, net), 124e3, 1e3);
}

attack::BackscatterWindow make_window(std::uint64_t packets,
                                      std::uint32_t slash16, double ppm) {
  attack::BackscatterWindow bw;
  bw.window = 10;
  bw.victim = IPv4Addr(9, 9, 9, 9);
  bw.packets = packets;
  bw.distinct_slash16 = slash16;
  bw.peak_ppm = ppm;
  return bw;
}

TEST(Inference, Thresholds) {
  const InferenceParams params;  // 25 pkts, 25 /16s, 5 ppm
  EXPECT_TRUE(passes_thresholds(make_window(25, 25, 5.0), params));
  EXPECT_FALSE(passes_thresholds(make_window(24, 25, 5.0), params));
  EXPECT_FALSE(passes_thresholds(make_window(25, 24, 5.0), params));
  EXPECT_FALSE(passes_thresholds(make_window(25, 25, 4.9), params));
}

TEST(Inference, RecordCarriesFields) {
  auto bw = make_window(100, 50, 20.0);
  bw.protocol = attack::Protocol::UDP;
  bw.first_port = 53;
  bw.unique_ports = 3;
  const RSDoSRecord rec = to_record(bw);
  EXPECT_EQ(rec.window, 10);
  EXPECT_EQ(rec.victim, IPv4Addr(9, 9, 9, 9));
  EXPECT_EQ(rec.packets, 100u);
  EXPECT_EQ(rec.distinct_slash16, 50u);
  EXPECT_EQ(rec.protocol, attack::Protocol::UDP);
  EXPECT_EQ(rec.first_port, 53);
  EXPECT_EQ(rec.unique_ports, 3);
  EXPECT_DOUBLE_EQ(rec.max_ppm, 20.0);
}

RSDoSRecord rec_at(IPv4Addr victim, netsim::WindowIndex w, double ppm = 100.0) {
  RSDoSRecord rec;
  rec.victim = victim;
  rec.window = w;
  rec.max_ppm = ppm;
  rec.packets = 500;
  rec.distinct_slash16 = 40;
  return rec;
}

TEST(Segmentation, ConsecutiveWindowsFormOneEvent) {
  const InferenceParams params;
  const auto events = stitch_events(
      Records{rec_at(IPv4Addr(1, 1, 1, 1), 10),
              rec_at(IPv4Addr(1, 1, 1, 1), 11),
              rec_at(IPv4Addr(1, 1, 1, 1), 12)},
      params);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].start_window, 10);
  EXPECT_EQ(events[0].end_window, 12);
  EXPECT_EQ(events[0].duration_s(), 900);
  EXPECT_EQ(events[0].total_packets, 1500u);
}

TEST(Segmentation, GapToleranceStitches) {
  InferenceParams params;
  params.max_gap_windows = 2;
  // Windows 10 and 13: gap of two empty windows (11, 12) — stitched.
  const auto events = stitch_events(
      Records{rec_at(IPv4Addr(1, 1, 1, 1), 10),
              rec_at(IPv4Addr(1, 1, 1, 1), 13)},
      params);
  ASSERT_EQ(events.size(), 1u);
  // Windows 10 and 14: gap of three — split.
  const auto split = stitch_events(
      Records{rec_at(IPv4Addr(1, 1, 1, 1), 10),
              rec_at(IPv4Addr(1, 1, 1, 1), 14)},
      params);
  EXPECT_EQ(split.size(), 2u);
}

TEST(Segmentation, SeparatesVictims) {
  const InferenceParams params;
  const auto events = stitch_events(
      Records{rec_at(IPv4Addr(1, 1, 1, 1), 10),
              rec_at(IPv4Addr(2, 2, 2, 2), 10)},
      params);
  EXPECT_EQ(events.size(), 2u);
}

TEST(Segmentation, AggregatesMaxima) {
  const InferenceParams params;
  auto r1 = rec_at(IPv4Addr(1, 1, 1, 1), 10, 100.0);
  auto r2 = rec_at(IPv4Addr(1, 1, 1, 1), 11, 500.0);
  r2.distinct_slash16 = 90;
  r2.unique_ports = 7;
  // Order-insensitive.
  const auto events = stitch_events(Records{r2, r1}, params);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].max_ppm, 500.0);
  EXPECT_EQ(events[0].max_slash16, 90u);
  EXPECT_EQ(events[0].max_unique_ports, 7u);
}

// Properties of EventStitcher::absorb. Fragments are built on the worker
// pool (one stitcher per record range) and every property is checked at
// pool widths 1 and 4: the result must not depend on how the records were
// split, in which order fragments are absorbed, or on the thread count.
class Stitching : public testing::Test {
 protected:
  void SetUp() override { saved_threads_ = exec::global_pool().thread_count(); }
  void TearDown() override { exec::set_global_threads(saved_threads_); }

  static constexpr unsigned kPoolWidths[] = {1, 4};

  /// One stitcher per contiguous range of `fragments` ranges, in range
  /// order, built in parallel.
  static std::vector<EventStitcher> fragments_of(
      const std::vector<RSDoSRecord>& records, std::size_t fragments,
      const InferenceParams& params) {
    exec::RegionOptions opts;
    opts.max_shards = fragments;
    return exec::parallel_map_reduce(
        records.size(), opts, std::vector<EventStitcher>{},
        [&](const exec::ShardRange& range) {
          EventStitcher part(params);
          for (std::size_t i = range.begin; i < range.end; ++i) {
            part.add(records[i]);
          }
          return part;
        },
        [](std::vector<EventStitcher>& all, EventStitcher&& part) {
          all.push_back(std::move(part));
        });
  }

  static std::vector<RSDoSEvent> one_stitcher(
      const std::vector<RSDoSRecord>& records, const InferenceParams& params) {
    EventStitcher all(params);
    for (const auto& rec : records) all.add(rec);
    return all.finish();
  }

  /// Attack-like input: per victim, bursts of consecutive windows with
  /// gaps on both sides of the tolerance, some windows repeated with other
  /// ports/protocols (victim reuse), victims interleaved across bursts.
  static std::vector<RSDoSRecord> mixed_records() {
    netsim::Rng rng(77);
    std::vector<RSDoSRecord> records;
    for (int burst = 0; burst < 400; ++burst) {
      const IPv4Addr victim(10, 0, 0, static_cast<std::uint8_t>(
                                          rng.uniform_int(0, 24)));
      netsim::WindowIndex w = rng.uniform_int(0, 500);
      const int len = static_cast<int>(rng.uniform_int(1, 8));
      for (int k = 0; k < len; ++k) {
        RSDoSRecord rec = rec_at(victim, w, 10.0 + rng.uniform_int(0, 90));
        rec.packets = static_cast<std::uint64_t>(rng.uniform_int(25, 900));
        rec.first_port = static_cast<std::uint16_t>(rng.uniform_int(0, 3));
        rec.protocol = rng.uniform_int(0, 1) ? attack::Protocol::UDP
                                             : attack::Protocol::TCP;
        rec.unique_ports = static_cast<std::uint16_t>(rng.uniform_int(1, 9));
        records.push_back(rec);
        w += rng.uniform_int(1, 5);  // gaps of 0..4 empty windows
      }
    }
    return records;
  }

 private:
  unsigned saved_threads_ = 1;
};

TEST_F(Stitching, AbsorbedFragmentsEqualOneStitcher) {
  const InferenceParams params;
  const std::vector<RSDoSRecord> records = mixed_records();
  const std::vector<RSDoSEvent> expected = one_stitcher(records, params);
  ASSERT_GT(expected.size(), 100u);
  for (const unsigned width : kPoolWidths) {
    exec::set_global_threads(width);
    for (const std::size_t fragments : {1u, 2u, 7u, 64u}) {
      std::vector<EventStitcher> parts =
          fragments_of(records, fragments, params);
      ASSERT_EQ(parts.size(), fragments);
      EventStitcher all(params);
      for (auto& part : parts) all.absorb(std::move(part));
      EXPECT_EQ(all.records_added(), records.size());
      EXPECT_EQ(all.finish(), expected)
          << fragments << " fragments, pool width " << width;
    }
    EXPECT_EQ(stitch_events(records, params), expected)
        << "pool width " << width;
  }
}

TEST_F(Stitching, AbsorbOrderDoesNotMatter) {
  const InferenceParams params;
  const std::vector<RSDoSRecord> records = mixed_records();
  for (const unsigned width : kPoolWidths) {
    exec::set_global_threads(width);
    std::vector<EventStitcher> forward_parts = fragments_of(records, 7, params);
    std::vector<EventStitcher> reverse_parts = fragments_of(records, 7, params);
    EventStitcher forward(params);
    for (auto& part : forward_parts) forward.absorb(std::move(part));
    EventStitcher reverse(params);
    for (auto it = reverse_parts.rbegin(); it != reverse_parts.rend(); ++it) {
      reverse.absorb(std::move(*it));
    }
    EXPECT_EQ(reverse.finish(), forward.finish()) << "pool width " << width;
  }
}

// Two attacks hit one victim in the same window: whichever fragment each
// record lands in, the event head is the record_less-minimal record.
TEST_F(Stitching, SameWindowRecordsInDifferentFragmentsPickRecordLessHead) {
  const InferenceParams params;
  auto udp = rec_at(IPv4Addr(2, 2, 2, 2), 30);
  udp.protocol = attack::Protocol::UDP;
  udp.first_port = 53;
  auto tcp = rec_at(IPv4Addr(2, 2, 2, 2), 30);
  tcp.protocol = attack::Protocol::TCP;
  tcp.first_port = 443;
  tcp.unique_ports = 9;
  const RSDoSRecord& head = record_less(udp, tcp) ? udp : tcp;
  for (const unsigned width : kPoolWidths) {
    exec::set_global_threads(width);
    for (const auto& records : {std::vector<RSDoSRecord>{udp, tcp},
                                std::vector<RSDoSRecord>{tcp, udp}}) {
      std::vector<EventStitcher> parts = fragments_of(records, 2, params);
      EventStitcher all(params);
      for (auto& part : parts) all.absorb(std::move(part));
      const auto events = all.finish();
      ASSERT_EQ(events.size(), 1u);
      EXPECT_EQ(events[0].protocol, head.protocol);
      EXPECT_EQ(events[0].first_port, head.first_port);
      EXPECT_EQ(events[0].max_unique_ports, 9);
      EXPECT_EQ(events[0].total_packets, 1000u);
      EXPECT_EQ(stitch_events(records, params), events);
    }
  }
}

// Windows 10 and 16 are two runs under the default tolerance (reach 3);
// a record at 13 in a third fragment bridges them into one event.
TEST_F(Stitching, ThirdFragmentBridgesTwoRuns) {
  const InferenceParams params;
  const IPv4Addr victim(3, 3, 3, 3);
  const std::vector<RSDoSRecord> records = {
      rec_at(victim, 10, 1.0), rec_at(victim, 16, 2.0),
      rec_at(victim, 13, 3.0)};
  for (const unsigned width : kPoolWidths) {
    exec::set_global_threads(width);
    std::vector<EventStitcher> parts = fragments_of(records, 3, params);
    EventStitcher all(params);
    all.absorb(std::move(parts[0]));
    all.absorb(std::move(parts[1]));
    EXPECT_EQ(all.finish().size(), 2u);
    all.absorb(std::move(parts[2]));
    const auto events = all.finish();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].start_window, 10);
    EXPECT_EQ(events[0].end_window, 16);
    EXPECT_DOUBLE_EQ(events[0].max_ppm, 3.0);
    EXPECT_EQ(events[0].total_packets, 1500u);
    EXPECT_EQ(stitch_events(records, params), events);
  }
}

TEST(Segmentation, EventTimes) {
  const InferenceParams params;
  const auto events =
      stitch_events(Records{rec_at(IPv4Addr(1, 1, 1, 1), 10)}, params);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].start_time().seconds(), 3000);
  EXPECT_EQ(events[0].end_time().seconds(), 3300);
}

TEST(Feed, IngestVisibleAttack) {
  attack::AttackSchedule sched;
  attack::AttackSpec spec;
  spec.target = IPv4Addr(7, 7, 7, 7);
  spec.start = SimTime(0);
  spec.duration_s = 1800;  // 6 windows
  spec.peak_pps = 50e3;
  spec.steady = true;
  sched.add(spec);

  RSDoSFeed feed{InferenceParams{}, attack::BackscatterModelParams{}};
  feed.ingest(sched, Darknet::ucsd_like(), 1);
  EXPECT_EQ(feed.records().size(), 6u);
  const auto events = feed.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].victim, IPv4Addr(7, 7, 7, 7));
  EXPECT_EQ(events[0].duration_s(), 1800);
  // Observed ppm extrapolates back to ~50K pps.
  EXPECT_NEAR(feed.extrapolate_pps(events[0].max_ppm, Darknet::ucsd_like()),
              50e3, 10e3);
}

TEST(Feed, WeakAttackBelowThresholdInvisible) {
  attack::AttackSchedule sched;
  attack::AttackSpec spec;
  spec.target = IPv4Addr(7, 7, 7, 7);
  spec.start = SimTime(0);
  spec.duration_s = 900;
  spec.peak_pps = 10.0;  // ~9 backscatter packets/window at the telescope
  sched.add(spec);
  RSDoSFeed feed{InferenceParams{}, attack::BackscatterModelParams{}};
  feed.ingest(sched, Darknet::ucsd_like(), 1);
  EXPECT_TRUE(feed.records().empty());
}

TEST(Feed, IngestIsDeterministicAndOrderIndependent) {
  attack::AttackSpec a;
  a.id = 5;
  a.target = IPv4Addr(7, 7, 7, 7);
  a.start = SimTime(0);
  a.duration_s = 900;
  a.peak_pps = 50e3;
  attack::AttackSpec b = a;
  b.id = 6;
  b.target = IPv4Addr(8, 8, 8, 8);

  attack::AttackSchedule s1, s2;
  s1.add(a);
  s1.add(b);
  s2.add(b);
  s2.add(a);

  RSDoSFeed f1{InferenceParams{}, attack::BackscatterModelParams{}};
  RSDoSFeed f2{InferenceParams{}, attack::BackscatterModelParams{}};
  f1.ingest(s1, Darknet::ucsd_like(), 99);
  f2.ingest(s2, Darknet::ucsd_like(), 99);
  ASSERT_EQ(f1.records().size(), f2.records().size());
  // Compare as multisets via per-victim totals.
  std::uint64_t pkts1 = 0, pkts2 = 0;
  for (const auto& r : f1.records()) pkts1 += r.packets;
  for (const auto& r : f2.records()) pkts2 += r.packets;
  EXPECT_EQ(pkts1, pkts2);
}

TEST(Feed, SummarizeCountsUniques) {
  RSDoSFeed feed{InferenceParams{}, attack::BackscatterModelParams{}};
  feed.add_record(rec_at(IPv4Addr(1, 1, 1, 1), 10));
  feed.add_record(rec_at(IPv4Addr(1, 1, 1, 2), 10));   // same /24
  feed.add_record(rec_at(IPv4Addr(1, 1, 1, 1), 100));  // second event, same IP
  feed.add_record(rec_at(IPv4Addr(2, 2, 2, 2), 10));
  const auto summary = feed.summarize([](IPv4Addr ip) {
    return ip.value() >> 24;  // octet as fake ASN
  });
  EXPECT_EQ(summary.attacks, 4u);
  EXPECT_EQ(summary.unique_ips, 3u);
  EXPECT_EQ(summary.unique_slash24, 2u);
  EXPECT_EQ(summary.unique_asn, 2u);
}

TEST(Feed, CsvSerialisation) {
  RSDoSFeed feed{InferenceParams{}, attack::BackscatterModelParams{}};
  feed.add_record(rec_at(IPv4Addr(1, 1, 1, 1), 10));
  std::ostringstream out;
  feed.write_csv(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("window,victim"), std::string::npos);
  EXPECT_NE(s.find("1.1.1.1"), std::string::npos);
}

}  // namespace
}  // namespace ddos::telescope
