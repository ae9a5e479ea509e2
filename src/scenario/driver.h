// Longitudinal driver — wires the full pipeline of Fig. 1 end to end for
// the seventeen-month study:
//
//   world -> attack workload -> darknet backscatter -> RSDoS feed
//         -> (sparse) OpenINTEL sweep -> measurement store
//         -> previous-day join -> NSSet attack events -> analyses.
//
// Sparse sweep: the production OpenINTEL sweeps every domain every day;
// replaying that here would be ~10^8 resolutions of which the analyses
// consume only the attack-adjacent slices. The driver therefore sweeps
// exactly the domains whose NSSet has an inferred attack that day, the day
// before (baseline + previous-day join), or the day after an attack began.
// Because each measurement's time and randomness depend only on
// (seed, domain, day), the retained measurements are bit-identical to a
// full sweep's — the skipped ones are those no analysis reads.
//
// One execution path, a day-epoch dataflow. The telescope feed streams
// into an incremental event stitcher; the sweep plan's days then flow
// through exec::Channel-connected stages (plan producer -> sweep ->
// fold/join); each event joins as soon as the last day it reads has been
// folded. When the run persists a store, every day no pending join can
// still need (the join only reads day d-1 baselines, attack-window days
// and the previous-day seen-NS sets) is retired from the MeasurementStore
// and appended to the file, so the full store never materialises. Epoch
// boundaries are pure functions of the day index, so the output is
// bit-identical at any thread count. A shard run (`generate --shard i/N`)
// is the same dataflow restricted to one range of the day axis.
#pragma once

#include <memory>
#include <vector>

#include "core/analysis.h"
#include "core/join.h"
#include "core/resilience.h"
#include "openintel/storage.h"
#include "openintel/sweeper.h"
#include "scenario/plan.h"
#include "scenario/workload.h"
#include "scenario/world.h"
#include "telescope/feed.h"

namespace ddos::scenario {

struct LongitudinalConfig {
  WorldParams world;
  LongitudinalParams workload;
  telescope::InferenceParams inference;
  attack::BackscatterModelParams backscatter;
  dns::LoadModelParams model;
  dns::ResolverParams resolver;
  core::JoinParams join;
  std::uint64_t sweep_seed = 11;
  std::uint64_t feed_seed = 13;
};

/// Default config used by the benches; tests shrink world/scale.
LongitudinalConfig default_longitudinal_config();
/// Fast preset for unit/integration tests.
LongitudinalConfig small_longitudinal_config(std::uint64_t seed = 7);

/// The pipeline's data artifacts — everything the analyses and the DRS
/// persistence consume. One struct shared (as a base) by a live run
/// (LongitudinalResult) and a loaded store (StoredRun) so the two can
/// never drift apart field-by-field.
struct RunArtifacts {
  telescope::Darknet darknet = telescope::Darknet::ucsd_like();
  telescope::RSDoSFeed feed{telescope::InferenceParams{},
                            attack::BackscatterModelParams{}};
  /// Records the telescope inferred. A run that persists a store drops the
  /// record vector as it streams (feed.records() stays empty unless
  /// RunOptions::retain_feed), so counts must come from here, not from
  /// feed.records().size().
  std::uint64_t feed_records = 0;
  std::vector<telescope::RSDoSEvent> events;  // stitched telescope events
  openintel::MeasurementStore store;
  std::vector<core::NssetAttackEvent> joined;
  core::JoinStats join_stats;
  std::uint64_t swept_measurements = 0;
};

struct LongitudinalResult : RunArtifacts {
  std::unique_ptr<World> world;
  Workload workload;
  /// Bytes written to RunOptions::store_path (0 when no store was written).
  std::uint64_t store_bytes = 0;
};

/// How a run is executed. No option changes the run's results; the
/// retirement lag and the channel capacities are fixed constants in
/// driver.cpp for the same reason (neither can change the output).
struct RunOptions {
  /// When non-empty, write the run's DRS store (byte-identical to
  /// save_run of the same run) to this path as it goes: feed columns
  /// straight from the ingest, aggregate columns per retired day. Retired
  /// days leave the in-memory store, so result.store ends empty. With no
  /// path nothing retires, and the result keeps the full store and the
  /// feed records for in-process callers (save_run, serve, analyses).
  std::string store_path;
  /// Recorded as the run.threads provenance meta when store_path is set
  /// (save_run takes the same value as a parameter).
  unsigned threads = 0;
  /// Keep the feed record vector in result.feed even when store_path is
  /// set (needed by --feed-csv).
  bool retain_feed = false;
};

LongitudinalResult run_longitudinal(const LongitudinalConfig& config,
                                    const RunOptions& options = {});

// ---- sharded generation (`generate --shard i/N`, plan/execute/compact).
//
// run_shard runs the driver restricted to one shard of plan.h's N-way day
// partition: it sweeps only the shard's days plus the halo days its owned
// events read, joins only the owned events (those whose final day it
// owns), and writes an independent DRS shard store — the same meta/block
// layout as save_run restricted to the owned day range and events, plus a
// shard manifest (shard.index/shard.count footer meta) and a
// "shard.src_event" column recording each joined row's canonical
// telescope-event index. store::merge_stores k-way merges the N shard
// files into one store byte-identical to a single-process `generate
// --store` of the same config — for any N and any thread count.

/// What one shard produced — the CLI summary line and the accounting the
/// shard tests check (per-shard counts sum to the whole run's).
struct ShardRunResult {
  ShardSpec spec;
  netsim::DayIndex day_lo = 0;  // owned day range [day_lo, day_hi)
  netsim::DayIndex day_hi = 0;
  std::uint64_t events_total = 0;  // world-wide stitched telescope events
  std::uint64_t owned_events = 0;  // telescope events this shard joined
  std::uint64_t feed_rows = 0;     // feed slice persisted by this shard
  std::uint64_t joined_rows = 0;   // pre-merge NSSet-events persisted
  std::uint64_t swept_measurements = 0;  // owned-day measurements only
  std::uint64_t store_bytes = 0;
};

/// Execute shard `spec` against `config`'s world and write its DRS shard
/// store to `store_path`. `threads` is recorded as run.threads provenance
/// (merge requires it to match across shards — the merged file reproduces
/// a single-process run at that --threads). Throws store::StoreError on
/// write failure, std::invalid_argument on a bad spec.
ShardRunResult run_shard(const LongitudinalConfig& config,
                         const ShardSpec& spec, unsigned threads,
                         const std::string& store_path);

// ---- generate/analyze stage split (DRS dataset store, src/store/).
//
// `save_run` persists a finished run's three datasets — RSDoS feed
// windows, OpenINTEL sweep aggregates, joined NSSet-attack events — plus
// the full generating provenance (world/workload/inference/join params,
// seeds, thread count, result counts) as one DRS container.
// `load_run` reads it back (every block CRC-validated, decodes fanned out
// across the exec pool) so analyses re-run without re-simulating, and
// `rejoin_from_store` re-executes the join stage from the stored
// aggregates to assert the store reproduces the generating run
// bit-for-bit.

struct StoredRun : RunArtifacts {
  /// Provenance-restored config: world, workload seed/scale knobs,
  /// inference, join and sweep/feed seeds. Model/resolver params stay at
  /// defaults (the CLI cannot change them); rejoin_from_store's equality
  /// assertion would catch any divergence loudly.
  LongitudinalConfig config;
  unsigned threads = 0;            // generating run's worker count
  std::uint64_t attacks = 0;       // generating workload size
};

/// Write `result` (+ provenance) as a DRS store. Returns bytes written;
/// throws store::StoreError when the file cannot be written.
std::uint64_t save_run(const std::string& path,
                       const LongitudinalConfig& config, unsigned threads,
                       const LongitudinalResult& result);

/// Load a save_run store. Validates every block checksum and asserts the
/// decoded datasets match the stored result counts; throws
/// store::StoreError on any defect. `use_mmap` selects the zero-copy
/// mapped reader (the default; decoded datasets are copies either way,
/// so nothing dangles when the mapping closes on return) or the
/// buffered fallback (`analyze --no-mmap`).
StoredRun load_run(const std::string& path, bool use_mmap = true);

/// What the serve engine (serve/query_engine.h) indexes of a run: the
/// joined events, the per-(NSSet, day) sweep aggregates and a count of
/// stitched telescope events per victim. A small fraction of a stored
/// run: no feed records, stitched events or window/ns_seen aggregates.
struct ServingInputs {
  std::vector<core::NssetAttackEvent> joined;
  /// (MeasurementStore day key, aggregate), ascending by key.
  std::vector<std::pair<std::uint64_t, openintel::Aggregate>> daily;
  /// (victim address value, stitched events), ascending by victim.
  std::vector<telescope::VictimEventCount> victim_events;
};

/// Load a save_run store for serving. Like load_run it validates every
/// block checksum and asserts the stored feed-record, stitched-event and
/// joined-event counts against what it decoded, throwing store::StoreError
/// on any defect. It then decodes only the joined events, the "daily"
/// aggregates and the feed's victim and window columns, which
/// telescope::count_victim_events stitches into per-victim counts. Traced
/// as `store.serve_load` (items = feed rows).
ServingInputs load_serving_inputs(const std::string& path);

/// Re-run the join stage from a loaded store: the world is rebuilt from
/// the stored provenance (deterministic in the seed) and the join reads
/// the stored aggregates — no sweep. The result must equal `run.joined`
/// bit-for-bit; callers assert that.
struct RejoinResult {
  std::vector<core::NssetAttackEvent> joined;
  core::JoinStats stats;
};
RejoinResult rejoin_from_store(const StoredRun& run);

/// Field-exact comparison of a rejoin result against the stored joined
/// events and join stats that `run` was loaded with — the --rejoin
/// bit-for-bit assertion. load_run has already CRC-checked and decoded
/// those rows, so the check re-reads nothing.
bool rejoin_matches_store(const StoredRun& run, const RejoinResult& rejoin);

// ---- analyze pass over a stored run.
//
// `analyze_store` recomputes the headline §6 statistics of a DRS store:
// the file is mapped (or buffered with use_mmap=false), every block's
// CRC32C is verified in parallel (Reader::validate_all), so a corrupt
// byte anywhere in the file fails the analyze, and then only the joined
// "events" dataset is decoded and folded with the core/analysis row
// kernels `run` prints with. Feed and measurement columns are checked,
// never decoded. Throws store::StoreError on any defect.

struct StoreAnalysis {
  // Provenance echoed for the analyze header.
  std::uint64_t world_seed = 0;
  std::uint32_t domain_count = 0;
  std::uint32_t provider_count = 0;
  std::uint64_t workload_seed = 0;
  double workload_scale = 0.0;
  std::uint64_t sweep_seed = 0;
  std::uint64_t feed_seed = 0;
  unsigned threads = 0;  // generating run's worker count
  // Stored result counts (the pipeline summary line).
  std::uint64_t attacks = 0;
  std::uint64_t feed_records = 0;
  std::uint64_t events = 0;
  std::uint64_t joined = 0;
  std::uint64_t swept_measurements = 0;
  // Read statistics.
  std::uint64_t file_bytes = 0;
  bool mapped = false;
  // File bytes over the wall time of the analyze read (verify every
  // block + decode the events); never 0 on success.
  double read_MBps = 0.0;
  // Headline statistics (core/analysis row kernels over the events).
  core::ImpactSummary impact;
  core::FailureSummary failures;
  core::CorrelationSeries duration_series;
  std::vector<core::GroupImpact> by_anycast;
};

StoreAnalysis analyze_store(const std::string& path, bool use_mmap = true);

}  // namespace ddos::scenario
