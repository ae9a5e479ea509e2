#include "telescope/rsdos.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "exec/parallel.h"
#include "obs/obs.h"
#include "util/radix.h"
#include "util/strings.h"

namespace ddos::telescope {

std::string RSDoSRecord::csv_header() {
  return "window,victim,slash16,protocol,first_port,unique_ports,max_ppm,"
         "packets";
}

std::string RSDoSRecord::to_csv_row() const {
  return std::to_string(window) + "," + victim.to_string() + "," +
         std::to_string(distinct_slash16) + "," +
         attack::to_string(protocol) + "," + std::to_string(first_port) +
         "," + std::to_string(unique_ports) + "," +
         util::format_fixed(max_ppm, 1) + "," + std::to_string(packets);
}

std::optional<RSDoSRecord> RSDoSRecord::from_csv_row(std::string_view line) {
  const auto fields = util::split(line, ',');
  if (fields.size() != 8) return std::nullopt;
  RSDoSRecord rec;
  std::uint64_t v = 0;
  if (!util::parse_u64(fields[0], v)) return std::nullopt;
  rec.window = static_cast<netsim::WindowIndex>(v);
  const auto victim = netsim::IPv4Addr::parse(fields[1]);
  if (!victim) return std::nullopt;
  rec.victim = *victim;
  if (!util::parse_u64(fields[2], v) || v > 0xFFFFFFFFu) return std::nullopt;
  rec.distinct_slash16 = static_cast<std::uint32_t>(v);
  if (util::iequals(fields[3], "TCP")) rec.protocol = attack::Protocol::TCP;
  else if (util::iequals(fields[3], "UDP")) rec.protocol = attack::Protocol::UDP;
  else if (util::iequals(fields[3], "ICMP")) rec.protocol = attack::Protocol::ICMP;
  else return std::nullopt;
  if (!util::parse_u64(fields[4], v) || v > 0xFFFF) return std::nullopt;
  rec.first_port = static_cast<std::uint16_t>(v);
  if (!util::parse_u64(fields[5], v) || v > 0xFFFF) return std::nullopt;
  rec.unique_ports = static_cast<std::uint16_t>(v);
  if (!util::parse_double(fields[6], rec.max_ppm)) return std::nullopt;
  if (!util::parse_u64(fields[7], rec.packets)) return std::nullopt;
  return rec;
}

bool passes_thresholds(const attack::BackscatterWindow& bw,
                       const InferenceParams& params) {
  if (bw.packets < params.min_packets_per_window) return false;
  if (bw.distinct_slash16 < params.min_distinct_slash16) return false;
  if (bw.peak_ppm < params.min_ppm) return false;
  return true;
}

RSDoSRecord to_record(const attack::BackscatterWindow& bw) {
  RSDoSRecord rec;
  rec.window = bw.window;
  rec.victim = bw.victim;
  rec.distinct_slash16 = bw.distinct_slash16;
  rec.protocol = bw.protocol;
  rec.first_port = bw.first_port;
  rec.unique_ports = bw.unique_ports;
  rec.max_ppm = bw.peak_ppm;
  rec.packets = bw.packets;
  return rec;
}

bool record_less(const RSDoSRecord& a, const RSDoSRecord& b) {
  if (a.victim != b.victim) return a.victim < b.victim;
  if (a.window != b.window) return a.window < b.window;
  const auto tail = [](const RSDoSRecord& r) {
    return std::make_tuple(r.distinct_slash16,
                           static_cast<std::uint8_t>(r.protocol), r.first_port,
                           r.unique_ports, r.packets, r.max_ppm);
  };
  return tail(a) < tail(b);
}

namespace {

// Fold run b into run a (same victim, within reach of each other). Every
// fold is commutative, so merge order never shows in the result.
template <typename Run>
void fold_run(Run& a, const Run& b) {
  if (record_less(b.head, a.head)) a.head = b.head;
  a.start = std::min(a.start, b.start);
  a.end = std::max(a.end, b.end);
  a.max_ppm = std::max(a.max_ppm, b.max_ppm);
  a.total_packets += b.total_packets;
  a.max_slash16 = std::max(a.max_slash16, b.max_slash16);
  a.max_unique_ports = std::max(a.max_unique_ports, b.max_unique_ports);
}

}  // namespace

void EventStitcher::add(const RSDoSRecord& record) {
  ++records_added_;
  std::vector<Run>& runs = victims_[record.victim.value()];

  Run single;
  single.head = record;
  single.start = single.end = record.window;
  single.max_ppm = record.max_ppm;
  single.total_packets = record.packets;
  single.max_slash16 = record.distinct_slash16;
  single.max_unique_ports = record.unique_ports;

  // An attack's records arrive in window order, so the common case lands
  // at or past the last run's start: extend it or open a new last run.
  if (runs.empty() || record.window >= runs.back().start) {
    if (!runs.empty() && record.window - runs.back().end <= reach()) {
      fold_run(runs.back(), single);
    } else {
      runs.push_back(single);
    }
    return;
  }
  // Otherwise insert after the last run whose start <= record.window and
  // merge with the neighbours the new window now bridges.
  const auto pos = std::upper_bound(
      runs.begin(), runs.end(), record.window,
      [](netsim::WindowIndex w, const Run& r) { return w < r.start; });
  const std::size_t i = static_cast<std::size_t>(pos - runs.begin());
  runs.insert(pos, single);
  coalesce(runs, i > 0 ? i - 1 : 0);
}

void EventStitcher::coalesce(std::vector<Run>& runs, std::size_t from) const {
  // Interval merge over start-sorted runs: a run within reach of the
  // current one's end bridges into it. Gap-connected record sets stay
  // gap-connected under union, so the result is exactly the runs of the
  // combined records.
  std::size_t out = from;
  for (std::size_t i = from + 1; i < runs.size(); ++i) {
    if (runs[i].start - runs[out].end <= reach()) {
      fold_run(runs[out], runs[i]);
    } else if (++out != i) {
      runs[out] = runs[i];
    }
  }
  runs.resize(out + 1);
}

void EventStitcher::absorb(EventStitcher&& other) {
  records_added_ += other.records_added_;
  other.records_added_ = 0;
  victims_.reserve(victims_.size() + other.victims_.size());
  other.victims_.for_each([this](std::uint32_t victim,
                                 std::vector<Run>& theirs) {
    const auto [slot, inserted] = victims_.try_emplace(victim);
    std::vector<Run>& runs = *slot;
    if (inserted) {
      runs = std::move(theirs);
      return;
    }
    // Runs of ours that start after theirs' first run are the only ones
    // out of order once theirs are appended; merge just that tail (none
    // when the fragments arrive in time order, the common case).
    const auto first = std::upper_bound(
        runs.begin(), runs.end(), theirs.front().start,
        [](netsim::WindowIndex w, const Run& r) { return w < r.start; });
    const std::size_t from = static_cast<std::size_t>(first - runs.begin());
    const std::size_t old_size = runs.size();
    runs.insert(runs.end(), theirs.begin(), theirs.end());
    if (from < old_size) {
      std::inplace_merge(
          runs.begin() + static_cast<std::ptrdiff_t>(from),
          runs.begin() + static_cast<std::ptrdiff_t>(old_size), runs.end(),
          [](const Run& a, const Run& b) { return a.start < b.start; });
    }
    coalesce(runs, from > 0 ? from - 1 : 0);
  });
  other.victims_.clear();
}

std::vector<RSDoSEvent> EventStitcher::finish() const {
  std::vector<std::pair<std::uint32_t, const std::vector<Run>*>> victims;
  victims.reserve(victims_.size());
  std::size_t total = 0;
  victims_.for_each([&](std::uint32_t victim, const std::vector<Run>& runs) {
    victims.emplace_back(victim, &runs);
    total += runs.size();
  });
  std::sort(victims.begin(), victims.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<RSDoSEvent> events;
  events.reserve(total);
  for (const auto& [victim, runs] : victims) {
    for (const Run& run : *runs) {
      RSDoSEvent ev;
      ev.victim = netsim::IPv4Addr(victim);
      ev.start_window = run.start;
      ev.end_window = run.end;
      ev.max_ppm = run.max_ppm;
      ev.total_packets = run.total_packets;
      ev.max_slash16 = run.max_slash16;
      ev.protocol = run.head.protocol;
      ev.first_port = run.head.first_port;
      ev.max_unique_ports = run.max_unique_ports;
      events.push_back(ev);
    }
  }
  return events;
}

std::vector<RSDoSEvent> stitch_events(std::span<const RSDoSRecord> records,
                                      const InferenceParams& params) {
  obs::ScopedSpan span(obs::installed_tracer(), "feed.stitch");
  span.set_items(records.size());
  exec::RegionOptions opts;
  opts.label = "feed.stitch";
  const EventStitcher all = exec::parallel_map_reduce(
      records.size(), opts, EventStitcher(params),
      [&](const exec::ShardRange& range) {
        EventStitcher part(params);
        for (std::size_t i = range.begin; i < range.end; ++i) {
          part.add(records[i]);
        }
        return part;
      },
      [](EventStitcher& acc, EventStitcher&& part) {
        acc.absorb(std::move(part));
      });
  return all.finish();
}

std::vector<VictimEventCount> count_victim_events(
    std::span<const std::uint64_t> victims,
    std::span<const std::uint64_t> windows, const InferenceParams& params) {
  obs::ScopedSpan span(obs::installed_tracer(), "feed.count_stitch");
  const std::size_t n = victims.size();
  span.set_items(n);
  if (windows.size() != n) {
    throw std::invalid_argument(
        "count_victim_events: victim and window columns differ in length");
  }
  const std::int64_t reach =
      static_cast<std::int64_t>(params.max_gap_windows) + 1;

  // Collapse each stretch of consecutive rows of one victim whose windows
  // step by at most reach into one segment [start, end]. A segment's
  // windows are gap-connected, so a victim's runs are the gap-connected
  // unions of its segments. An attack's rows arrive as such a stretch, so
  // there are about as many segments as attacks, an order of magnitude
  // fewer than rows.
  struct Segment {
    std::uint32_t victim = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
  };
  exec::RegionOptions opts;
  opts.label = "feed.count_stitch.segment";
  const std::vector<Segment> segments = exec::parallel_map_reduce(
      n, opts, std::vector<Segment>{},
      [&](const exec::ShardRange& range) {
        std::vector<Segment> part;
        for (std::size_t i = range.begin; i < range.end; ++i) {
          const auto victim = static_cast<std::uint32_t>(victims[i]);
          const auto w = static_cast<std::int64_t>(windows[i]);
          if (!part.empty() && part.back().victim == victim) {
            // Modular step from the previous row: exact unless the windows
            // are 2^63 or more apart, which the span check below rejects.
            const auto step =
                static_cast<std::int64_t>(windows[i] - windows[i - 1]);
            if (step >= -reach && step <= reach) {
              Segment& seg = part.back();
              seg.start = std::min(seg.start, w);
              seg.end = std::max(seg.end, w);
              continue;
            }
          }
          part.push_back({victim, w, w});
        }
        return part;
      },
      [](std::vector<Segment>& all, std::vector<Segment>&& part) {
        all.insert(all.end(), part.begin(), part.end());
      });
  if (segments.empty()) return {};

  // Sort the segments by (victim, start) as (victim << 32 | start - base,
  // end - start) pairs; rebasing to the smallest window keeps gaps, and
  // so runs, unchanged.
  std::int64_t base = segments.front().start;
  std::int64_t top = segments.front().end;
  for (const Segment& seg : segments) {
    base = std::min(base, seg.start);
    top = std::max(top, seg.end);
  }
  if (static_cast<std::uint64_t>(top) - static_cast<std::uint64_t>(base) >
      0xFFFFFFFFu) {
    throw std::invalid_argument(
        "count_victim_events: feed windows span 2^32 or more");
  }
  std::vector<util::KeyedIndex> keyed;
  keyed.reserve(segments.size());
  for (const Segment& seg : segments) {
    keyed.emplace_back(std::uint64_t{seg.victim} << 32 |
                           static_cast<std::uint64_t>(seg.start - base),
                       static_cast<std::uint32_t>(seg.end - seg.start));
  }
  std::vector<util::KeyedIndex> scratch;
  util::radix_sort_keyed(keyed, scratch);

  // Interval merge per victim: a segment starting more than reach past
  // the furthest end so far opens a new run.
  std::vector<VictimEventCount> counts;
  std::int64_t run_end = 0;
  for (const auto& [key, length] : keyed) {
    const auto victim = static_cast<std::uint32_t>(key >> 32);
    const auto start = static_cast<std::int64_t>(key & 0xFFFFFFFFu);
    if (counts.empty() || counts.back().first != victim) {
      counts.emplace_back(victim, 1);
      run_end = start;
    } else if (start - run_end > reach) {
      ++counts.back().second;
    }
    run_end = std::max(run_end, start + length);
  }
  return counts;
}

std::vector<DayEventBatch> group_events_by_day(
    const std::vector<RSDoSEvent>& events) {
  std::vector<std::pair<netsim::DayIndex, std::uint32_t>> keyed;
  keyed.reserve(events.size());
  for (std::uint32_t i = 0; i < events.size(); ++i) {
    keyed.emplace_back((events[i].end_time() - 1).day(), i);
  }
  // Pairs sort by (day, index): within a day the canonical event order is
  // preserved without needing a stable sort.
  std::sort(keyed.begin(), keyed.end());

  std::vector<DayEventBatch> batches;
  for (const auto& [day, idx] : keyed) {
    if (batches.empty() || batches.back().day != day) {
      batches.push_back(DayEventBatch{day, {}});
    }
    batches.back().event_indices.push_back(idx);
  }
  return batches;
}

}  // namespace ddos::telescope
