#include "store/dataset.h"

#include <cstdint>
#include <functional>
#include <string>

namespace ddos::store {

namespace {

// Column builders: gather one struct field across all rows into a typed
// column vector, written/read as one block.

template <typename T, typename Fn>
std::vector<std::uint64_t> u64_column(const std::vector<T>& rows, Fn&& get) {
  std::vector<std::uint64_t> col;
  col.reserve(rows.size());
  for (const T& r : rows) col.push_back(static_cast<std::uint64_t>(get(r)));
  return col;
}

template <typename T, typename Fn>
std::vector<double> f64_column(const std::vector<T>& rows, Fn&& get) {
  std::vector<double> col;
  col.reserve(rows.size());
  for (const T& r : rows) col.push_back(get(r));
  return col;
}

template <typename T, typename Fn>
std::vector<std::uint8_t> u8_column(const std::vector<T>& rows, Fn&& get) {
  std::vector<std::uint8_t> col;
  col.reserve(rows.size());
  for (const T& r : rows) col.push_back(static_cast<std::uint8_t>(get(r)));
  return col;
}

void expect_rows(const Reader& reader, const char* dataset,
                 std::size_t expected, std::size_t actual) {
  if (expected != actual)
    throw StoreError(reader.path() + ": dataset '" + dataset +
                     "' column row-count mismatch");
}

// Shared layout of the "daily" and "window" aggregate datasets.
void write_aggregates(
    Writer& writer, const char* dataset,
    const std::vector<std::pair<std::uint64_t, openintel::Aggregate>>& rows) {
  using Row = std::pair<std::uint64_t, openintel::Aggregate>;
  writer.add_u64(dataset, "key",
                 u64_column(rows, [](const Row& r) { return r.first; }),
                 Encoding::DeltaVarint);
  writer.add_u64(dataset, "measured",
                 u64_column(rows, [](const Row& r) { return r.second.measured; }),
                 Encoding::Varint);
  writer.add_u64(dataset, "ok",
                 u64_column(rows, [](const Row& r) { return r.second.ok; }),
                 Encoding::Varint);
  writer.add_u64(dataset, "timeout",
                 u64_column(rows, [](const Row& r) { return r.second.timeout; }),
                 Encoding::Varint);
  writer.add_u64(dataset, "servfail",
                 u64_column(rows, [](const Row& r) { return r.second.servfail; }),
                 Encoding::Varint);
  writer.add_u64(dataset, "rtt_n",
                 u64_column(rows,
                            [](const Row& r) { return r.second.rtt.raw().n; }),
                 Encoding::Varint);
  writer.add_f64(dataset, "rtt_sum",
                 f64_column(rows,
                            [](const Row& r) { return r.second.rtt.raw().sum; }));
  writer.add_f64(dataset, "rtt_m",
                 f64_column(rows,
                            [](const Row& r) { return r.second.rtt.raw().m; }));
  writer.add_f64(dataset, "rtt_m2",
                 f64_column(rows,
                            [](const Row& r) { return r.second.rtt.raw().m2; }));
  writer.add_f64(dataset, "rtt_min",
                 f64_column(rows,
                            [](const Row& r) { return r.second.rtt.raw().min; }));
  writer.add_f64(dataset, "rtt_max",
                 f64_column(rows,
                            [](const Row& r) { return r.second.rtt.raw().max; }));
}

}  // namespace

std::vector<std::pair<std::uint64_t, openintel::Aggregate>> read_aggregates(
    const Reader& reader, const char* dataset) {
  const std::uint64_t rows = reader.dataset_rows(dataset);

  std::vector<std::uint64_t> key, measured, ok, timeout, servfail, rtt_n;
  std::vector<double> rtt_sum, rtt_m, rtt_m2, rtt_min, rtt_max;
  Reader::parallel_decode({
      [&] { key = reader.read_u64(dataset, "key"); },
      [&] { measured = reader.read_u64(dataset, "measured"); },
      [&] { ok = reader.read_u64(dataset, "ok"); },
      [&] { timeout = reader.read_u64(dataset, "timeout"); },
      [&] { servfail = reader.read_u64(dataset, "servfail"); },
      [&] { rtt_n = reader.read_u64(dataset, "rtt_n"); },
      [&] { rtt_sum = reader.read_f64(dataset, "rtt_sum"); },
      [&] { rtt_m = reader.read_f64(dataset, "rtt_m"); },
      [&] { rtt_m2 = reader.read_f64(dataset, "rtt_m2"); },
      [&] { rtt_min = reader.read_f64(dataset, "rtt_min"); },
      [&] { rtt_max = reader.read_f64(dataset, "rtt_max"); },
  });
  expect_rows(reader, dataset, rows, key.size());

  std::vector<std::pair<std::uint64_t, openintel::Aggregate>> out;
  out.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) {
    openintel::Aggregate agg;
    agg.measured = static_cast<std::uint32_t>(measured[i]);
    agg.ok = static_cast<std::uint32_t>(ok[i]);
    agg.timeout = static_cast<std::uint32_t>(timeout[i]);
    agg.servfail = static_cast<std::uint32_t>(servfail[i]);
    util::RunningStats::Raw raw;
    raw.n = rtt_n[i];
    raw.sum = rtt_sum[i];
    raw.m = rtt_m[i];
    raw.m2 = rtt_m2[i];
    raw.min = rtt_min[i];
    raw.max = rtt_max[i];
    agg.rtt = util::RunningStats::from_raw(raw);
    out.emplace_back(key[i], agg);
  }
  return out;
}

void write_feed_records(Writer& writer,
                        const std::vector<telescope::RSDoSRecord>& records) {
  using R = telescope::RSDoSRecord;
  writer.add_u64("feed", "window",
                 u64_column(records, [](const R& r) { return r.window; }),
                 Encoding::DeltaVarint);
  writer.add_u64("feed", "victim",
                 u64_column(records, [](const R& r) { return r.victim.value(); }),
                 Encoding::Varint);
  writer.add_u64("feed", "slash16",
                 u64_column(records,
                            [](const R& r) { return r.distinct_slash16; }),
                 Encoding::Varint);
  writer.add_u8("feed", "protocol",
                u8_column(records, [](const R& r) { return r.protocol; }));
  writer.add_u64("feed", "first_port",
                 u64_column(records, [](const R& r) { return r.first_port; }),
                 Encoding::Varint);
  writer.add_u64("feed", "unique_ports",
                 u64_column(records, [](const R& r) { return r.unique_ports; }),
                 Encoding::Varint);
  writer.add_f64("feed", "max_ppm",
                 f64_column(records, [](const R& r) { return r.max_ppm; }));
  writer.add_u64("feed", "packets",
                 u64_column(records, [](const R& r) { return r.packets; }),
                 Encoding::Varint);
}

std::vector<telescope::RSDoSRecord> read_feed_records(const Reader& reader) {
  const std::uint64_t rows = reader.dataset_rows("feed");

  std::vector<std::uint64_t> window, victim, slash16, first_port,
      unique_ports, packets;
  std::vector<std::uint8_t> protocol;
  std::vector<double> max_ppm;
  Reader::parallel_decode({
      [&] { window = reader.read_u64("feed", "window"); },
      [&] { victim = reader.read_u64("feed", "victim"); },
      [&] { slash16 = reader.read_u64("feed", "slash16"); },
      [&] { protocol = reader.read_u8("feed", "protocol"); },
      [&] { first_port = reader.read_u64("feed", "first_port"); },
      [&] { unique_ports = reader.read_u64("feed", "unique_ports"); },
      [&] { max_ppm = reader.read_f64("feed", "max_ppm"); },
      [&] { packets = reader.read_u64("feed", "packets"); },
  });
  expect_rows(reader, "feed", rows, window.size());

  std::vector<telescope::RSDoSRecord> records;
  records.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) {
    telescope::RSDoSRecord r;
    r.window = static_cast<netsim::WindowIndex>(window[i]);
    r.victim = netsim::IPv4Addr(static_cast<std::uint32_t>(victim[i]));
    r.distinct_slash16 = static_cast<std::uint32_t>(slash16[i]);
    r.protocol = static_cast<attack::Protocol>(protocol[i]);
    r.first_port = static_cast<std::uint16_t>(first_port[i]);
    r.unique_ports = static_cast<std::uint16_t>(unique_ports[i]);
    r.max_ppm = max_ppm[i];
    r.packets = packets[i];
    records.push_back(r);
  }
  return records;
}

void write_measurements(Writer& writer,
                        const openintel::MeasurementStore& store) {
  write_aggregates(writer, "daily", store.sorted_daily());
  write_aggregates(writer, "window", store.sorted_window());

  using Seen = std::pair<netsim::DayIndex, netsim::IPv4Addr>;
  const std::vector<Seen> seen = store.sorted_ns_seen();
  writer.add_u64("ns_seen", "day",
                 u64_column(seen, [](const Seen& s) { return s.first; }),
                 Encoding::DeltaVarint);
  writer.add_u64("ns_seen", "ip",
                 u64_column(seen, [](const Seen& s) { return s.second.value(); }),
                 Encoding::DeltaVarint);
}

void read_measurements(const Reader& reader,
                       openintel::MeasurementStore& store) {
  // Size the restore targets from the column row counts up front: loads
  // then probe into final-size tables instead of rehashing O(log n) times.
  const auto daily = read_aggregates(reader, "daily");
  store.reserve_daily(daily.size());
  for (const auto& [key, agg] : daily) store.restore_daily(key, agg);

  const auto window = read_aggregates(reader, "window");
  store.reserve_window(window.size());
  for (const auto& [key, agg] : window) store.restore_window(key, agg);

  const std::uint64_t rows = reader.dataset_rows("ns_seen");
  std::vector<std::uint64_t> day, ip;
  Reader::parallel_decode({
      [&] { day = reader.read_u64("ns_seen", "day"); },
      [&] { ip = reader.read_u64("ns_seen", "ip"); },
  });
  expect_rows(reader, "ns_seen", rows, day.size());
  // The snapshot is sorted by (day, ip), so each day's sightings form one
  // run; reserve the per-day set from the run length before inserting.
  for (std::uint64_t i = 0; i < rows;) {
    std::uint64_t end = i + 1;
    while (end < rows && day[end] == day[i]) ++end;
    const auto d = static_cast<netsim::DayIndex>(day[i]);
    store.reserve_ns_seen(d, end - i);
    for (; i < end; ++i) {
      store.restore_ns_seen(d,
                            netsim::IPv4Addr(static_cast<std::uint32_t>(ip[i])));
    }
  }
}

void write_joined_events(Writer& writer,
                         const std::vector<core::NssetAttackEvent>& events) {
  using E = core::NssetAttackEvent;
  // Telescope-event fields.
  writer.add_u64("events", "victim",
                 u64_column(events,
                            [](const E& e) { return e.rsdos.victim.value(); }),
                 Encoding::Varint);
  writer.add_u64("events", "start_window",
                 u64_column(events,
                            [](const E& e) { return e.rsdos.start_window; }),
                 Encoding::DeltaVarint);
  writer.add_u64("events", "end_window",
                 u64_column(events,
                            [](const E& e) { return e.rsdos.end_window; }),
                 Encoding::DeltaVarint);
  writer.add_f64("events", "max_ppm",
                 f64_column(events,
                            [](const E& e) { return e.rsdos.max_ppm; }));
  writer.add_u64("events", "total_packets",
                 u64_column(events,
                            [](const E& e) { return e.rsdos.total_packets; }),
                 Encoding::Varint);
  writer.add_u64("events", "max_slash16",
                 u64_column(events,
                            [](const E& e) { return e.rsdos.max_slash16; }),
                 Encoding::Varint);
  writer.add_u8("events", "protocol",
                u8_column(events, [](const E& e) { return e.rsdos.protocol; }));
  writer.add_u64("events", "first_port",
                 u64_column(events,
                            [](const E& e) { return e.rsdos.first_port; }),
                 Encoding::Varint);
  writer.add_u64("events", "max_unique_ports",
                 u64_column(events,
                            [](const E& e) { return e.rsdos.max_unique_ports; }),
                 Encoding::Varint);
  // Join fields.
  writer.add_u64("events", "nsset",
                 u64_column(events, [](const E& e) { return e.nsset; }),
                 Encoding::Varint);
  writer.add_u64("events", "domains_hosted",
                 u64_column(events, [](const E& e) { return e.domains_hosted; }),
                 Encoding::Varint);
  writer.add_u64("events", "domains_measured",
                 u64_column(events,
                            [](const E& e) { return e.domains_measured; }),
                 Encoding::Varint);
  writer.add_f64("events", "baseline_rtt_ms",
                 f64_column(events,
                            [](const E& e) { return e.baseline_rtt_ms; }));
  writer.add_f64("events", "peak_impact",
                 f64_column(events, [](const E& e) { return e.peak_impact; }));
  writer.add_f64("events", "mean_impact",
                 f64_column(events, [](const E& e) { return e.mean_impact; }));
  writer.add_u64("events", "ok",
                 u64_column(events, [](const E& e) { return e.ok; }),
                 Encoding::Varint);
  writer.add_u64("events", "timeouts",
                 u64_column(events, [](const E& e) { return e.timeouts; }),
                 Encoding::Varint);
  writer.add_u64("events", "servfails",
                 u64_column(events, [](const E& e) { return e.servfails; }),
                 Encoding::Varint);
  writer.add_f64("events", "failure_rate",
                 f64_column(events, [](const E& e) { return e.failure_rate; }));
  // Resilience profile.
  writer.add_u8("events", "anycast_class",
                u8_column(events, [](const E& e) {
                  return e.resilience.anycast_class;
                }));
  writer.add_u64("events", "distinct_asns",
                 u64_column(events,
                            [](const E& e) { return e.resilience.distinct_asns; }),
                 Encoding::Varint);
  writer.add_u64("events", "distinct_slash24",
                 u64_column(events,
                            [](const E& e) {
                              return e.resilience.distinct_slash24;
                            }),
                 Encoding::Varint);
  writer.add_u64("events", "nameserver_count",
                 u64_column(events,
                            [](const E& e) {
                              return e.resilience.nameserver_count;
                            }),
                 Encoding::Varint);
  writer.add_u64("events", "asn",
                 u64_column(events,
                            [](const E& e) { return e.resilience.asn; }),
                 Encoding::Varint);
  {
    std::vector<std::string> orgs;
    orgs.reserve(events.size());
    for (const E& e : events) orgs.push_back(e.resilience.org);
    writer.add_strings("events", "org", orgs);
  }
}

std::vector<core::NssetAttackEvent> read_joined_events(const Reader& reader) {
  const std::uint64_t rows = reader.dataset_rows("events");

  std::vector<std::uint64_t> victim, start_window, end_window, total_packets,
      max_slash16, first_port, max_unique_ports, nsset, domains_hosted,
      domains_measured, ok, timeouts, servfails, distinct_asns,
      distinct_slash24, nameserver_count, asn;
  std::vector<std::uint8_t> protocol, anycast_class;
  std::vector<double> max_ppm, baseline_rtt_ms, peak_impact, mean_impact,
      failure_rate;
  std::vector<std::string> org;
  Reader::parallel_decode({
      [&] { victim = reader.read_u64("events", "victim"); },
      [&] { start_window = reader.read_u64("events", "start_window"); },
      [&] { end_window = reader.read_u64("events", "end_window"); },
      [&] { max_ppm = reader.read_f64("events", "max_ppm"); },
      [&] { total_packets = reader.read_u64("events", "total_packets"); },
      [&] { max_slash16 = reader.read_u64("events", "max_slash16"); },
      [&] { protocol = reader.read_u8("events", "protocol"); },
      [&] { first_port = reader.read_u64("events", "first_port"); },
      [&] {
        max_unique_ports = reader.read_u64("events", "max_unique_ports");
      },
      [&] { nsset = reader.read_u64("events", "nsset"); },
      [&] { domains_hosted = reader.read_u64("events", "domains_hosted"); },
      [&] {
        domains_measured = reader.read_u64("events", "domains_measured");
      },
      [&] { baseline_rtt_ms = reader.read_f64("events", "baseline_rtt_ms"); },
      [&] { peak_impact = reader.read_f64("events", "peak_impact"); },
      [&] { mean_impact = reader.read_f64("events", "mean_impact"); },
      [&] { ok = reader.read_u64("events", "ok"); },
      [&] { timeouts = reader.read_u64("events", "timeouts"); },
      [&] { servfails = reader.read_u64("events", "servfails"); },
      [&] { failure_rate = reader.read_f64("events", "failure_rate"); },
      [&] { anycast_class = reader.read_u8("events", "anycast_class"); },
      [&] { distinct_asns = reader.read_u64("events", "distinct_asns"); },
      [&] {
        distinct_slash24 = reader.read_u64("events", "distinct_slash24");
      },
      [&] {
        nameserver_count = reader.read_u64("events", "nameserver_count");
      },
      [&] { asn = reader.read_u64("events", "asn"); },
      [&] { org = reader.read_strings("events", "org"); },
  });
  expect_rows(reader, "events", rows, victim.size());

  std::vector<core::NssetAttackEvent> events;
  events.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) {
    core::NssetAttackEvent e;
    e.rsdos.victim = netsim::IPv4Addr(static_cast<std::uint32_t>(victim[i]));
    e.rsdos.start_window = static_cast<netsim::WindowIndex>(start_window[i]);
    e.rsdos.end_window = static_cast<netsim::WindowIndex>(end_window[i]);
    e.rsdos.max_ppm = max_ppm[i];
    e.rsdos.total_packets = total_packets[i];
    e.rsdos.max_slash16 = static_cast<std::uint32_t>(max_slash16[i]);
    e.rsdos.protocol = static_cast<attack::Protocol>(protocol[i]);
    e.rsdos.first_port = static_cast<std::uint16_t>(first_port[i]);
    e.rsdos.max_unique_ports =
        static_cast<std::uint16_t>(max_unique_ports[i]);
    e.nsset = static_cast<dns::NssetId>(nsset[i]);
    e.domains_hosted = domains_hosted[i];
    e.domains_measured = static_cast<std::uint32_t>(domains_measured[i]);
    e.baseline_rtt_ms = baseline_rtt_ms[i];
    e.peak_impact = peak_impact[i];
    e.mean_impact = mean_impact[i];
    e.ok = static_cast<std::uint32_t>(ok[i]);
    e.timeouts = static_cast<std::uint32_t>(timeouts[i]);
    e.servfails = static_cast<std::uint32_t>(servfails[i]);
    e.failure_rate = failure_rate[i];
    e.resilience.anycast_class =
        static_cast<anycast::AnycastClass>(anycast_class[i]);
    e.resilience.distinct_asns = static_cast<std::uint32_t>(distinct_asns[i]);
    e.resilience.distinct_slash24 =
        static_cast<std::uint32_t>(distinct_slash24[i]);
    e.resilience.nameserver_count =
        static_cast<std::uint32_t>(nameserver_count[i]);
    e.resilience.asn = static_cast<topology::Asn>(asn[i]);
    e.resilience.org = std::move(org[i]);
    events.push_back(std::move(e));
  }
  return events;
}

}  // namespace ddos::store
