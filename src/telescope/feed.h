// RSDoSFeed — end-to-end generation of the curated attack feed from an
// attack schedule through the darknet, plus the summary statistics the
// paper reports about it (Table 1) and the pps extrapolation helper
// (footnote 2: victim pps ≈ telescope ppm × extrapolation / 60).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "attack/schedule.h"
#include "exec/parallel.h"
#include "netsim/rng.h"
#include "obs/obs.h"
#include "telescope/darknet.h"
#include "telescope/rsdos.h"

namespace ddos::telescope {

/// Summary row matching Table 1 of the paper.
struct FeedSummary {
  std::uint64_t attacks = 0;        // stitched events
  std::uint64_t unique_ips = 0;     // distinct victim addresses
  std::uint64_t unique_slash24 = 0; // distinct /24 prefixes
  std::uint64_t unique_asn = 0;     // distinct origin ASes (via callback)
};

class RSDoSFeed {
 public:
  RSDoSFeed(InferenceParams inference, attack::BackscatterModelParams model);

  /// Run every attack in `schedule` through `darknet` and retain the
  /// windows that pass the inference thresholds. Deterministic in `seed`.
  void ingest(const attack::AttackSchedule& schedule, const Darknet& darknet,
              std::uint64_t seed);

  /// Streaming ingest: instead of retaining the records, run
  /// `step(std::vector<RSDoSRecord>&&)` on the worker that produced each
  /// parallel shard's batch and hand the fragment it returns to
  /// `sink(Fragment&&)` on the calling thread, in deterministic shard
  /// order — so concatenating the batches in sink order reproduces exactly
  /// what ingest() would have appended to records(). The step is where
  /// per-record work belongs (a stitcher fragment, encoded feed columns);
  /// the sink only merges fragments. Records the step does not keep are
  /// released as soon as it returns, which is what bounds the streaming
  /// driver's memory. Returns the record count; identical observer metrics
  /// to ingest().
  template <typename Step, typename Sink>
  std::size_t ingest_stream(const attack::AttackSchedule& schedule,
                            const Darknet& darknet, std::uint64_t seed,
                            const Step& step, const Sink& sink);

  /// Append a pre-built record (tests / replays).
  void add_record(const RSDoSRecord& record) { records_.push_back(record); }

  /// Replace all records wholesale (DRS store load / replays).
  void set_records(std::vector<RSDoSRecord> records) {
    records_ = std::move(records);
  }

  const std::vector<RSDoSRecord>& records() const { return records_; }

  /// Stitched per-victim events (recomputed on call).
  std::vector<RSDoSEvent> events() const;

  /// The stitched events as per-day batches (grouped by last attacked
  /// day), the unit the streaming driver consumes — indices reference the
  /// events() vector so the canonical order survives day-wise processing.
  std::vector<DayEventBatch> day_batches() const {
    return group_events_by_day(events());
  }

  /// Table-1 style totals. `origin_of` maps a victim IP to its origin AS
  /// (0 = unrouted, excluded from the AS count).
  template <typename OriginFn>
  FeedSummary summarize(OriginFn&& origin_of) const {
    FeedSummary s;
    std::unordered_set<netsim::IPv4Addr> ips;
    std::unordered_set<netsim::IPv4Addr> nets;
    std::unordered_set<std::uint32_t> asns;
    for (const auto& ev : events()) {
      ++s.attacks;
      ips.insert(ev.victim);
      nets.insert(ev.victim.slash24());
      const std::uint32_t asn = origin_of(ev.victim);
      if (asn != 0) asns.insert(asn);
    }
    s.unique_ips = ips.size();
    s.unique_slash24 = nets.size();
    s.unique_asn = asns.size();
    return s;
  }

  /// Victim pps inferred from a telescope ppm reading.
  double extrapolate_pps(double telescope_ppm, const Darknet& darknet) const {
    return telescope_ppm * darknet.extrapolation_factor() / 60.0;
  }

  /// Serialise all records as CSV (header + rows).
  void write_csv(std::ostream& out) const;

  /// Load records from a write_csv() stream (header optional). Returns
  /// the number of records read; malformed rows are skipped.
  std::size_t read_csv(std::istream& in);

  const InferenceParams& inference() const { return inference_; }

 private:
  /// Records of attacks [begin, end) that pass the inference thresholds,
  /// in (attack, window) order; counts the windows looked at.
  std::vector<RSDoSRecord> observe(
      const std::vector<attack::AttackSpec>& attacks, std::size_t begin,
      std::size_t end, const netsim::Rng& base, const Darknet& darknet,
      std::uint64_t& windows_observed) const;

  InferenceParams inference_;
  attack::BackscatterModelParams model_;
  std::vector<RSDoSRecord> records_;
};

template <typename Step, typename Sink>
std::size_t RSDoSFeed::ingest_stream(const attack::AttackSchedule& schedule,
                                     const Darknet& darknet,
                                     std::uint64_t seed, const Step& step,
                                     const Sink& sink) {
  obs::ScopedSpan span(obs::installed_tracer(), "feed.ingest");
  const auto& attacks = schedule.attacks();
  // Parent stream for per-attack splits: each attack's RNG is a pure
  // function of (seed, attack id), so shards can process attacks in any
  // order and re-ingesting reproduces the same feed.
  const netsim::Rng base(netsim::mix64(seed));

  using Fragment =
      std::invoke_result_t<const Step&, std::vector<RSDoSRecord>&&>;
  struct ShardOut {
    Fragment fragment;
    std::uint64_t windows_observed = 0;
    std::uint64_t records = 0;
  };
  struct Totals {
    std::uint64_t windows_observed = 0;
    std::uint64_t records = 0;
  };
  // The schedule is processed in bounded chunks of attacks, one parallel
  // region per chunk, so at most one chunk's shard outputs are ever
  // resident — that region is the streaming pipeline's peak-memory term.
  // Order is unaffected: shards (and chunks) are contiguous ascending
  // attack ranges, each attack's records are emitted in window order, and
  // the ordered reduction hands shards to the sink in shard-index order —
  // so the concatenated stream is identical for any chunking, any shard
  // decomposition and any thread count, and matches what ingest() appends
  // to records().
  constexpr std::size_t kAttacksPerRegion = 4096;
  Totals totals;
  for (std::size_t chunk = 0; chunk < attacks.size();
       chunk += kAttacksPerRegion) {
    const std::size_t chunk_size =
        std::min(kAttacksPerRegion, attacks.size() - chunk);
    exec::RegionOptions opts;
    opts.label = "feed.ingest";
    totals = exec::parallel_map_reduce(
        chunk_size, opts, totals,
        [&](const exec::ShardRange& range) {
          std::uint64_t windows = 0;
          std::vector<RSDoSRecord> records =
              observe(attacks, chunk + range.begin, chunk + range.end, base,
                      darknet, windows);
          const std::uint64_t count = records.size();
          return ShardOut{step(std::move(records)), windows, count};
        },
        [&sink](Totals& total, ShardOut&& shard) {
          total.windows_observed += shard.windows_observed;
          total.records += shard.records;
          sink(std::move(shard.fragment));
        });
  }
  span.set_items(totals.windows_observed);
  if (obs::Observer* o = obs::Observer::installed()) {
    o->pipeline.feed_windows_observed.inc(totals.windows_observed);
    o->pipeline.feed_records.inc(totals.records);
  }
  return totals.records;
}

}  // namespace ddos::telescope
