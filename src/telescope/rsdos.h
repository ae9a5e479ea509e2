// RSDoS inference (Moore et al. 2006; CAIDA's curated feed, §3.1).
//
// Input: per-victim, per-5-minute-window backscatter aggregates captured by
// the darknet. Output: RSDoSRecord rows with the exact fields the paper
// lists — timestamp, victim, /16 spread, protocol, first port, number of
// unique ports, peak observed packet rate — after noise thresholds that
// discard scanning artefacts and misconfigurations.
//
// Records for the same victim separated by at most `max_gap_windows` empty
// windows are then stitched into RSDoSEvents, the unit of the paper's
// duration analysis (§6.5), by EventStitcher fragments merged in parallel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "attack/backscatter.h"
#include "netsim/ipv4.h"
#include "netsim/simtime.h"
#include "util/flat_map.h"

namespace ddos::telescope {

/// One row of the curated attack feed (5-minute tumbling window).
struct RSDoSRecord {
  netsim::WindowIndex window = 0;
  netsim::IPv4Addr victim;
  std::uint32_t distinct_slash16 = 0;
  attack::Protocol protocol = attack::Protocol::TCP;
  std::uint16_t first_port = 0;
  std::uint16_t unique_ports = 1;
  double max_ppm = 0.0;          // peak packet rate at the telescope, pkt/min
  std::uint64_t packets = 0;     // backscatter packets in the window

  std::string to_csv_row() const;
  static std::string csv_header();
  /// Parse one to_csv_row() line back; nullopt on malformed input.
  static std::optional<RSDoSRecord> from_csv_row(std::string_view line);

  /// Field-exact equality (store round-trip assertions).
  friend bool operator==(const RSDoSRecord&, const RSDoSRecord&) = default;
};

/// Classification thresholds, after Moore et al.: a victim must hit enough
/// telescope addresses (wide /16 spread ⇒ uniform spoofing) at a minimum
/// rate before a window counts as attack evidence.
struct InferenceParams {
  std::uint64_t min_packets_per_window = 25;
  std::uint32_t min_distinct_slash16 = 25;
  double min_ppm = 5.0;
  /// Windows with no evidence tolerated inside one attack event.
  int max_gap_windows = 2;
};

/// Window-level classification.
bool passes_thresholds(const attack::BackscatterWindow& bw,
                       const InferenceParams& params);

/// Convert an accepted backscatter window into a feed record.
RSDoSRecord to_record(const attack::BackscatterWindow& bw);

/// A stitched attack event: consecutive feed records for one victim.
struct RSDoSEvent {
  netsim::IPv4Addr victim;
  netsim::WindowIndex start_window = 0;
  netsim::WindowIndex end_window = 0;  // inclusive
  double max_ppm = 0.0;
  std::uint64_t total_packets = 0;
  std::uint32_t max_slash16 = 0;
  attack::Protocol protocol = attack::Protocol::TCP;
  std::uint16_t first_port = 0;
  std::uint16_t max_unique_ports = 1;

  std::int64_t duration_s() const {
    return (end_window - start_window + 1) * netsim::kSecondsPerWindow;
  }
  netsim::SimTime start_time() const {
    return netsim::window_start(start_window);
  }
  netsim::SimTime end_time() const {
    return netsim::window_start(end_window + 1);
  }

  /// Field-exact equality (store round-trip assertions).
  friend bool operator==(const RSDoSEvent&, const RSDoSEvent&) = default;
};

/// Total order on feed records: (victim, window) first — the canonical
/// event order — then every remaining field as a tie-break. Two attacks
/// can hit one victim in the same window (victim reuse), and the stitched
/// event's protocol/first_port come from the run's first record, so that
/// choice must not depend on arrival order: under a total order every
/// stitch, however its input was split or ordered, picks the same head.
bool record_less(const RSDoSRecord& a, const RSDoSRecord& b);

/// Event stitcher: accepts records one at a time in any order, merges
/// with other stitchers built over other parts of the feed, and on
/// finish() yields the events of the whole record multiset. Per victim it
/// keeps disjoint runs sorted by start (neighbours separated by more than
/// max_gap_windows+1 windows). Each run keeps only its record_less-minimal
/// record (the head, which supplies protocol/first_port) plus order-
/// independent folds (max_ppm, total_packets, max_slash16,
/// max_unique_ports), so memory is O(events), not O(records), and the
/// result does not depend on how the records were split across stitchers
/// or in which order they arrived or were absorbed.
class EventStitcher {
 public:
  explicit EventStitcher(const InferenceParams& params) : params_(params) {}

  void add(const RSDoSRecord& record);

  /// Merge `other`'s runs into this stitcher (per victim: merge the two
  /// start-sorted run lists, then coalesce runs within max_gap_windows+1
  /// of each other). Afterwards this stitcher equals one that was given
  /// both stitchers' records; `other` is left empty.
  void absorb(EventStitcher&& other);

  /// Events in canonical (victim, start_window) order.
  std::vector<RSDoSEvent> finish() const;

  std::uint64_t records_added() const { return records_added_; }

 private:
  struct Run {
    RSDoSRecord head;  // record_less-min of the run: protocol/first_port
    netsim::WindowIndex start = 0;
    netsim::WindowIndex end = 0;
    double max_ppm = 0.0;
    std::uint64_t total_packets = 0;
    std::uint32_t max_slash16 = 0;
    std::uint16_t max_unique_ports = 1;
  };

  netsim::WindowIndex reach() const {
    return static_cast<netsim::WindowIndex>(params_.max_gap_windows) + 1;
  }
  /// Re-establish the run-list invariant over runs[from..]; runs must be
  /// non-empty, sorted by start, and runs[0..from] already separated.
  void coalesce(std::vector<Run>& runs, std::size_t from) const;

  InferenceParams params_;
  std::uint64_t records_added_ = 0;
  // Keyed by victim address value; run vectors stay sorted by start with
  // gaps > max_gap_windows+1 between neighbours.
  util::FlatMap<std::uint32_t, std::vector<Run>> victims_;
};

/// Stitch records (any order) into events per victim: a parallel fold on
/// exec::global_pool() — one EventStitcher per record range (plan_shards
/// over the record count, so the fragments are a pure function of n),
/// absorbed in range order, then finish(). Traced as `feed.stitch`.
std::vector<RSDoSEvent> stitch_events(std::span<const RSDoSRecord> records,
                                      const InferenceParams& params);

/// (victim address value, stitched events of that victim).
using VictimEventCount = std::pair<std::uint32_t, std::uint64_t>;

/// Count-only stitch over the feed's victim and window columns (row i is
/// record i; windows are WindowIndex values as stored). Yields, ascending
/// by victim, exactly the per-victim event counts stitch_events gives the
/// same records, without building records or runs: consecutive rows of
/// one victim within reach of each other collapse into window segments
/// (in parallel on exec::global_pool()), the segments are radix-sorted by
/// (victim, start), and a run breaks where a segment starts more than
/// max_gap_windows + 1 past the furthest end before it. Input order is
/// free (victims recur across attacks, so a victim's windows are unsorted
/// in the feed). The windows must span fewer than 2^32 values (throws
/// std::invalid_argument otherwise, or when the columns differ in
/// length). Traced as `feed.count_stitch`.
std::vector<VictimEventCount> count_victim_events(
    std::span<const std::uint64_t> victims,
    std::span<const std::uint64_t> windows, const InferenceParams& params);

/// One day-epoch's worth of stitched events, identified by index into the
/// canonical (victim, start_window)-ordered event vector rather than by
/// copies — downstream consumers (the streaming join) must preserve the
/// canonical order even though they process day by day.
struct DayEventBatch {
  /// Last attacked day, (end_time()-1).day(): the epoch after which every
  /// measurement-store read of the event's join is final (the join reads
  /// day first_day-1 baselines and the attack windows, all <= this day).
  netsim::DayIndex day = 0;
  std::vector<std::uint32_t> event_indices;  // ascending, into the vector
};

/// Bucket stitched events by last attacked day, batches in ascending day
/// order, indices within a batch in canonical event order.
std::vector<DayEventBatch> group_events_by_day(
    const std::vector<RSDoSEvent>& events);

}  // namespace ddos::telescope
