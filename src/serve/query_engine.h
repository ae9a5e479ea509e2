// QueryEngine — the online query-serving layer over a finished DRS run.
//
// A run today is write-once/analyze-once: `analyze --store` recomputes the
// headline statistics in one batch pass and exits. The engine turns the
// same artifacts into an interactive read path. It is built from
// scenario::ServingInputs — the joined events, the per-(NSSet, day) sweep
// aggregates and a per-victim count of stitched telescope events — which
// scenario::load_serving_inputs reads straight from a DRS store (every
// block verified, only those datasets and the feed's victim/window
// columns decoded; `serve` never goes through StoredRun). A live
// LongitudinalResult or a load_run StoredRun (both RunArtifacts) is
// reduced to the same inputs by a thin adapter, so the index build has
// one implementation. It builds three immutable, read-optimized indexes:
//
//   * per-NSSet index — joined NSSet-attack events grouped by NSSet plus
//     the per-(NSSet, day) sweep time series, both behind one
//     util::FlatMap probe (PointLookup);
//   * top-K structures — fully-sorted leaderboards per metric (telescope
//     attacks per victim IP, peak Impact_on_RTT per NSSet, failure rate
//     per NSSet), so TopK(k) is a k-entry copy (TopK);
//   * day-epoch window index — dense per-day aggregates of the joined
//     events (failure/impact tallies using the same thresholds as
//     core::ImpactFold/FailureFold), so WindowScan(day_lo, day_hi) is a
//     short scan of a contiguous array (WindowScan).
//
// Concurrency model: shared-nothing reads. build happens once on the
// constructing thread; afterwards every query method is const, touches
// only immutable state, and takes no locks — callers bring their own
// scratch (TopK writes into a caller-supplied vector). Any number of
// threads may query one engine concurrently; the load driver
// (serve/driver.h) hammers exactly this contract and CI runs it under
// TSan.
//
// Determinism: answers are pure functions of the run artifacts. Index
// build order is fixed (canonical joined-event order, ascending keys,
// total-ordered leaderboard ties), so two engines built from bit-identical
// runs — e.g. a live run and its DRS round trip — answer every query
// bit-identically. The parity test asserts this against the batch
// analysis path (core::impact_summary / failure_summary and brute-force
// folds).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/join.h"
#include "netsim/simtime.h"
#include "scenario/driver.h"
#include "util/flat_map.h"

namespace ddos::serve {

/// Leaderboard choice for TopK queries.
enum class TopKMetric {
  Attacks,      // telescope attack events per victim IP (cf. Table 5)
  PeakImpact,   // max Impact_on_RTT per NSSet (cf. Table 6)
  FailureRate,  // max joined-event failure rate per NSSet
};

const char* to_string(TopKMetric metric);

/// Precomputed per-NSSet fold over its joined attack events.
struct NssetSummary {
  dns::NssetId nsset = dns::kInvalidNsset;
  std::uint32_t events = 0;          // joined NSSet-attack events
  std::uint64_t domains_hosted = 0;  // NSSet size
  double peak_impact = 0.0;          // max over events
  double max_failure_rate = 0.0;
  std::uint32_t ok = 0;
  std::uint32_t timeouts = 0;
  std::uint32_t servfails = 0;
  netsim::DayIndex first_day = 0;    // of the earliest/latest attack start
  netsim::DayIndex last_day = 0;

  friend bool operator==(const NssetSummary&, const NssetSummary&) = default;
};

/// One point of an NSSet's daily sweep time series (from the stored
/// per-(NSSet, day) aggregates; the retention policy of the generating
/// run decides which days exist).
struct DayPoint {
  netsim::DayIndex day = 0;
  std::uint32_t measured = 0;
  double avg_rtt_ms = 0.0;
  double failure_rate = 0.0;

  friend bool operator==(const DayPoint&, const DayPoint&) = default;
};

/// PointLookup answer. `found` is true when the NSSet has any indexed
/// state (attack events or sweep series). The spans alias engine-owned
/// immutable arrays and stay valid for the engine's lifetime.
struct PointResult {
  bool found = false;
  NssetSummary summary;
  /// Indices into joined() of this NSSet's events, canonical order.
  std::span<const std::uint32_t> event_indices;
  /// Daily sweep series, ascending by day.
  std::span<const DayPoint> series;
};

/// One leaderboard row: `key` is a victim IP (Attacks) or NssetId
/// (PeakImpact / FailureRate); ties broken by ascending key.
struct TopEntry {
  std::uint64_t key = 0;
  double value = 0.0;

  friend bool operator==(const TopEntry&, const TopEntry&) = default;
};

/// WindowScan answer over joined events whose attack started in
/// [day_lo, day_hi] (inclusive, clamped to the indexed range). Tallies
/// use the batch thresholds: impaired/severe are peak_impact >=
/// core::kImpairedThreshold / kSevereThreshold, failure counts follow
/// core::FailureFold.
struct WindowScanResult {
  netsim::DayIndex day_lo = 0;
  netsim::DayIndex day_hi = -1;      // empty when day_hi < day_lo
  std::uint64_t events = 0;
  std::uint64_t events_with_failures = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t servfails = 0;
  std::uint64_t impaired_10x = 0;
  std::uint64_t severe_100x = 0;
  double max_peak_impact = 0.0;

  double failing_event_share() const {
    return events ? static_cast<double>(events_with_failures) / events : 0.0;
  }

  friend bool operator==(const WindowScanResult&,
                         const WindowScanResult&) = default;
};

class QueryEngine {
 public:
  /// Build the indexes from what scenario::load_serving_inputs read of a
  /// store. The engine keeps the joined events; the rest is consumed.
  /// Single-threaded, called once.
  explicit QueryEngine(scenario::ServingInputs inputs);
  /// Build from a live or fully loaded run: tallies its stitched events
  /// per victim, copies the joined events and the daily aggregates, and
  /// builds as above. `run` may be destroyed afterwards.
  explicit QueryEngine(const scenario::RunArtifacts& run);

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // ---- query API: const, lock-free, concurrently callable. ----

  /// O(1): one FlatMap probe, then a struct copy plus two span views.
  PointResult point_lookup(dns::NssetId nsset) const;

  /// Copies the first min(k, universe) rows of the requested leaderboard
  /// into `out` (cleared first — caller-owned scratch, reused across
  /// calls). Returns the number of rows written.
  std::size_t top_k(TopKMetric metric, std::size_t k,
                    std::vector<TopEntry>& out) const;

  /// O(day_hi - day_lo): folds the dense per-day aggregates of the range.
  WindowScanResult window_scan(netsim::DayIndex day_lo,
                               netsim::DayIndex day_hi) const;

  // ---- introspection for drivers and tests. ----

  /// The serving key universe: every NSSet with indexed state, ascending.
  /// Load drivers map key-chooser indices through this span.
  std::span<const dns::NssetId> keys() const { return keys_; }

  /// Joined events the per-NSSet index refers into (engine-owned).
  const std::vector<core::NssetAttackEvent>& joined() const {
    return joined_;
  }

  /// Indexed day range of the window index ([0, -1] when no events).
  netsim::DayIndex day_min() const { return day_min_; }
  netsim::DayIndex day_max() const { return day_max_; }

  std::size_t nsset_count() const { return summaries_.size(); }
  std::size_t series_points() const { return day_points_.size(); }
  std::size_t leaderboard_entries() const {
    return top_attacks_.size() + top_impact_.size() + top_failure_.size();
  }

 private:
  struct IndexRange {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };
  struct DayAgg {
    std::uint32_t events = 0;
    std::uint32_t events_with_failures = 0;
    std::uint32_t timeouts = 0;
    std::uint32_t servfails = 0;
    std::uint32_t impaired_10x = 0;
    std::uint32_t severe_100x = 0;
    double max_peak_impact = 0.0;
  };

  void build_nsset_index();
  void build_series_index(
      const std::vector<std::pair<std::uint64_t, openintel::Aggregate>>&
          daily);
  void build_leaderboards(
      const std::vector<telescope::VictimEventCount>& victim_events);
  void build_window_index();

  std::vector<core::NssetAttackEvent> joined_;

  // nsset -> slot into summaries_/event_ranges_/series_ranges_.
  util::FlatMap<dns::NssetId, std::uint32_t> slot_of_;
  std::vector<NssetSummary> summaries_;
  std::vector<IndexRange> event_ranges_;   // into event_index_
  std::vector<std::uint32_t> event_index_; // joined indices grouped by nsset
  std::vector<IndexRange> series_ranges_;  // into day_points_
  std::vector<DayPoint> day_points_;       // grouped by nsset, day ascending
  std::vector<dns::NssetId> keys_;         // ascending serving universe

  std::vector<TopEntry> top_attacks_;  // (victim ip, events) desc
  std::vector<TopEntry> top_impact_;   // (nsset, max peak_impact) desc
  std::vector<TopEntry> top_failure_;  // (nsset, max failure_rate) desc

  netsim::DayIndex day_min_ = 0;
  netsim::DayIndex day_max_ = -1;
  std::vector<DayAgg> by_day_;  // dense, index = day - day_min_
};

}  // namespace ddos::serve
