#include "serve/query_engine.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/impact.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "openintel/storage.h"

namespace ddos::serve {

const char* to_string(TopKMetric metric) {
  switch (metric) {
    case TopKMetric::Attacks: return "attacks";
    case TopKMetric::PeakImpact: return "peak_impact";
    case TopKMetric::FailureRate: return "failure_rate";
  }
  return "?";
}

namespace {

// A live or loaded run reduced to what the engine indexes: its stitched
// events tallied per victim, the rest copied.
scenario::ServingInputs serving_inputs_of(const scenario::RunArtifacts& run) {
  scenario::ServingInputs in;
  in.joined = run.joined;
  in.daily = run.store.sorted_daily();
  util::FlatMap<std::uint32_t, std::uint64_t> per_victim;
  for (const auto& ev : run.events) {
    ++*per_victim.try_emplace(ev.victim.value(), std::uint64_t{0}).first;
  }
  in.victim_events.reserve(per_victim.size());
  for (const auto& [ip, count] : per_victim.sorted_items()) {
    in.victim_events.emplace_back(ip, count);
  }
  return in;
}

}  // namespace

QueryEngine::QueryEngine(const scenario::RunArtifacts& run)
    : QueryEngine(serving_inputs_of(run)) {}

QueryEngine::QueryEngine(scenario::ServingInputs inputs)
    : joined_(std::move(inputs.joined)) {
  obs::ScopedSpan span(obs::installed_tracer(), "serve.build_indexes");
  build_nsset_index();
  build_series_index(inputs.daily);
  build_leaderboards(inputs.victim_events);
  build_window_index();
  span.set_items(summaries_.size());
  if (obs::Observer* o = obs::Observer::installed()) {
    o->metrics().gauge("serve.index_nssets")
        .set(static_cast<double>(summaries_.size()));
    o->metrics().gauge("serve.index_series_points")
        .set(static_cast<double>(day_points_.size()));
    o->metrics().gauge("serve.index_leaderboard_entries")
        .set(static_cast<double>(leaderboard_entries()));
  }
}

void QueryEngine::build_nsset_index() {
  const auto& joined = joined_;

  // Group joined-event indices by NSSet with a counting pass, preserving
  // canonical event order within each group (the grouping walk is stable).
  // Slot order is first-appearance order in the joined vector — a pure
  // function of the run, never of hashing.
  slot_of_.reserve(joined.size());
  for (const auto& ev : joined) {
    const auto [slot, inserted] =
        slot_of_.try_emplace(ev.nsset, static_cast<std::uint32_t>(0));
    if (inserted) {
      *slot = static_cast<std::uint32_t>(summaries_.size());
      summaries_.emplace_back();
      summaries_.back().nsset = ev.nsset;
      event_ranges_.emplace_back();
    }
    ++event_ranges_[*slot].count;
  }
  std::uint32_t offset = 0;
  for (auto& range : event_ranges_) {
    range.offset = offset;
    offset += range.count;
    range.count = 0;  // reused as the fill cursor below
  }
  event_index_.resize(joined.size());
  for (std::uint32_t i = 0; i < joined.size(); ++i) {
    const std::uint32_t slot = *slot_of_.find(joined[i].nsset);
    auto& range = event_ranges_[slot];
    event_index_[range.offset + range.count++] = i;

    NssetSummary& s = summaries_[slot];
    const core::NssetAttackEvent& ev = joined[i];
    const netsim::DayIndex day = ev.rsdos.start_time().day();
    if (s.events == 0 || day < s.first_day) s.first_day = day;
    if (s.events == 0 || day > s.last_day) s.last_day = day;
    ++s.events;
    s.domains_hosted = ev.domains_hosted;
    s.peak_impact = std::max(s.peak_impact, ev.peak_impact);
    s.max_failure_rate = std::max(s.max_failure_rate, ev.failure_rate);
    s.ok += ev.ok;
    s.timeouts += ev.timeouts;
    s.servfails += ev.servfails;
  }
}

void QueryEngine::build_series_index(
    const std::vector<std::pair<std::uint64_t, openintel::Aggregate>>&
        daily) {
  // The store's daily map is keyed time-major ((day, nsset) ascending);
  // the serving index wants nsset-major so one NSSet's series is a
  // contiguous span. Re-key and sort — unique keys, so the order is total.
  struct Keyed {
    dns::NssetId nsset;
    DayPoint point;
  };
  std::vector<Keyed> rows;
  rows.reserve(daily.size());
  for (const auto& [key, agg] : daily) {
    Keyed row;
    row.nsset = openintel::MeasurementStore::key_nsset(key);
    row.point.day = openintel::MeasurementStore::day_key_day(key);
    row.point.measured = agg.measured;
    row.point.avg_rtt_ms = agg.avg_rtt();
    row.point.failure_rate = agg.failure_rate();
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(), [](const Keyed& a, const Keyed& b) {
    return a.nsset != b.nsset ? a.nsset < b.nsset
                              : a.point.day < b.point.day;
  });

  day_points_.reserve(rows.size());
  series_ranges_.resize(summaries_.size());
  for (const auto& row : rows) {
    const auto [slot, inserted] =
        slot_of_.try_emplace(row.nsset, static_cast<std::uint32_t>(0));
    if (inserted) {
      // Swept but never attacked: summary stays zeroed, series only.
      *slot = static_cast<std::uint32_t>(summaries_.size());
      summaries_.emplace_back();
      summaries_.back().nsset = row.nsset;
      event_ranges_.emplace_back();
      series_ranges_.emplace_back();
    }
    IndexRange& range = series_ranges_[*slot];
    if (range.count == 0) {
      range.offset = static_cast<std::uint32_t>(day_points_.size());
    }
    ++range.count;
    day_points_.push_back(row.point);
  }

  // The serving key universe: every indexed NSSet, ascending, so key
  // choosers map dense ranks onto a stable ordered population.
  keys_.reserve(slot_of_.size());
  slot_of_.for_each(
      [this](const dns::NssetId& nsset, const std::uint32_t&) {
        keys_.push_back(nsset);
      });
  std::sort(keys_.begin(), keys_.end());
}

void QueryEngine::build_leaderboards(
    const std::vector<telescope::VictimEventCount>& victim_events) {
  // Attacks per victim IP, over ALL telescope events (the raw "top
  // attacked targets" view; the joined leaderboards below are DNS-only by
  // construction). The counts arrive ascending by victim.
  top_attacks_.reserve(victim_events.size());
  for (const auto& [ip, count] : victim_events) {
    top_attacks_.push_back({ip, static_cast<double>(count)});
  }
  // Descending value; the pre-sort by ascending key makes the stable sort's
  // tie order total.
  const auto by_value_desc = [](const TopEntry& a, const TopEntry& b) {
    return a.value > b.value;
  };
  std::stable_sort(top_attacks_.begin(), top_attacks_.end(), by_value_desc);

  top_impact_.reserve(summaries_.size());
  top_failure_.reserve(summaries_.size());
  for (const dns::NssetId nsset : keys_) {
    const NssetSummary& s = summaries_[*slot_of_.find(nsset)];
    if (s.events == 0) continue;  // series-only NSSets hold no attack rank
    top_impact_.push_back({nsset, s.peak_impact});
    top_failure_.push_back({nsset, s.max_failure_rate});
  }
  std::stable_sort(top_impact_.begin(), top_impact_.end(), by_value_desc);
  std::stable_sort(top_failure_.begin(), top_failure_.end(), by_value_desc);
}

void QueryEngine::build_window_index() {
  const auto& joined = joined_;
  if (joined.empty()) return;
  day_min_ = day_max_ = joined.front().rsdos.start_time().day();
  for (const auto& ev : joined) {
    const netsim::DayIndex day = ev.rsdos.start_time().day();
    day_min_ = std::min(day_min_, day);
    day_max_ = std::max(day_max_, day);
  }
  by_day_.assign(static_cast<std::size_t>(day_max_ - day_min_ + 1), {});
  for (const auto& ev : joined) {
    DayAgg& agg = by_day_[static_cast<std::size_t>(
        ev.rsdos.start_time().day() - day_min_)];
    ++agg.events;
    if (ev.any_failure()) ++agg.events_with_failures;
    agg.timeouts += ev.timeouts;
    agg.servfails += ev.servfails;
    if (ev.peak_impact >= core::kImpairedThreshold) ++agg.impaired_10x;
    if (ev.peak_impact >= core::kSevereThreshold) ++agg.severe_100x;
    agg.max_peak_impact = std::max(agg.max_peak_impact, ev.peak_impact);
  }
}

PointResult QueryEngine::point_lookup(dns::NssetId nsset) const {
  PointResult result;
  const std::uint32_t* slot = slot_of_.find(nsset);
  if (slot == nullptr) return result;
  result.found = true;
  result.summary = summaries_[*slot];
  const IndexRange events = event_ranges_[*slot];
  result.event_indices = std::span<const std::uint32_t>(
      event_index_.data() + events.offset, events.count);
  const IndexRange series = series_ranges_[*slot];
  result.series =
      std::span<const DayPoint>(day_points_.data() + series.offset,
                                series.count);
  return result;
}

std::size_t QueryEngine::top_k(TopKMetric metric, std::size_t k,
                               std::vector<TopEntry>& out) const {
  const std::vector<TopEntry>* board = nullptr;
  switch (metric) {
    case TopKMetric::Attacks: board = &top_attacks_; break;
    case TopKMetric::PeakImpact: board = &top_impact_; break;
    case TopKMetric::FailureRate: board = &top_failure_; break;
  }
  out.clear();
  const std::size_t n = std::min(k, board->size());
  out.insert(out.end(), board->begin(),
             board->begin() + static_cast<std::ptrdiff_t>(n));
  return n;
}

WindowScanResult QueryEngine::window_scan(netsim::DayIndex day_lo,
                                          netsim::DayIndex day_hi) const {
  WindowScanResult result;
  result.day_lo = std::max(day_lo, day_min_);
  result.day_hi = std::min(day_hi, day_max_);
  for (netsim::DayIndex d = result.day_lo; d <= result.day_hi; ++d) {
    const DayAgg& agg = by_day_[static_cast<std::size_t>(d - day_min_)];
    result.events += agg.events;
    result.events_with_failures += agg.events_with_failures;
    result.timeouts += agg.timeouts;
    result.servfails += agg.servfails;
    result.impaired_10x += agg.impaired_10x;
    result.severe_100x += agg.severe_100x;
    result.max_peak_impact =
        std::max(result.max_peak_impact, agg.max_peak_impact);
  }
  return result;
}

}  // namespace ddos::serve
