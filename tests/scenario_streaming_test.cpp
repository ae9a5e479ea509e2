// The driver's acceptance test.
//
// Golden digests pin the DRS store bytes of one small config: the
// whole-run store the driver writes as it goes, the merge of its shard
// stores, and save_run of an in-memory run must all hash to the committed
// values, so any change to the pipeline's output or the store layout
// fails here. A digest of everything analyze_store reports over that
// store pins the analysis the same way. The remaining cases check that a run persisting a store
// (which retires days and feed records as it goes) reports the same
// events, joins and analyses as an in-memory run. ctest variants re-run
// this binary under DDOSREPRO_THREADS=1/2/4/8 to cover every sweep-pool
// width.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "exec/pool.h"
#include "scenario/driver.h"
#include "store/dataset.h"
#include "store/format.h"
#include "store/merge.h"
#include "store/reader.h"

namespace ddos::scenario {
namespace {

// Each discovered test case runs as its own process, concurrently with
// the whole-binary DDOSREPRO_THREADS ctest variants — TempDir() names
// must be per-process or parallel ctest workers race on the same store
// file.
std::string temp_path(const std::string& name) {
  return (std::filesystem::path(testing::TempDir()) /
          (std::to_string(::getpid()) + "-" + name))
      .string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

LongitudinalConfig test_config() {
  LongitudinalConfig cfg = small_longitudinal_config(21);
  cfg.world.provider_count = 80;
  cfg.world.domain_count = 4000;
  cfg.workload.scale = 200.0;
  return cfg;
}

// ---- golden digests.

// The store of test_config() at run.threads provenance 1 and 4 (the only
// field that differs between them): its size and the FNV-1a 64 hash of
// its bytes. Regenerate only together with a deliberate change to the
// pipeline's output or the DRS layout.
struct Golden {
  unsigned threads;
  std::uint64_t size;
  std::uint64_t fnv1a;
};
constexpr Golden kGolden[] = {
    {1, 6022819, 0x0c61486d87b3c101ull},
    {4, 6022819, 0x5675afc71e147143ull},
};

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

void expect_golden(const std::string& path, const Golden& golden,
                   const std::string& what) {
  const std::string bytes = read_file(path);
  EXPECT_EQ(bytes.size(), golden.size) << what;
  EXPECT_EQ(fnv1a64(bytes), golden.fnv1a)
      << what << " differs from the golden store bytes";
}

TEST(GoldenDigest, WholeRunStore) {
  for (const Golden& golden : kGolden) {
    RunOptions options;
    options.store_path = temp_path("golden-whole.drs");
    options.threads = golden.threads;
    const LongitudinalResult r = run_longitudinal(test_config(), options);
    EXPECT_EQ(r.store_bytes, golden.size);
    expect_golden(options.store_path, golden,
                  "whole run at threads " + std::to_string(golden.threads));
    std::filesystem::remove(options.store_path);
  }
}

TEST(GoldenDigest, MergedShardStores) {
  for (const Golden& golden : kGolden) {
    for (const std::uint32_t count : {1u, 3u}) {
      std::vector<std::string> paths;
      for (std::uint32_t i = 0; i < count; ++i) {
        paths.push_back(temp_path("golden-shard" + std::to_string(i) +
                                  ".drs"));
        run_shard(test_config(), ShardSpec{i, count}, golden.threads,
                  paths.back());
      }
      const std::string merged = temp_path("golden-merged.drs");
      store::merge_stores(merged, paths);
      expect_golden(merged, golden,
                    "merge of " + std::to_string(count) +
                        " shards at threads " +
                        std::to_string(golden.threads));
      for (const std::string& path : paths) std::filesystem::remove(path);
      std::filesystem::remove(merged);
    }
  }
}

// FNV-1a 64 of every headline result analyze_store reports for the
// test_config() store — the impact and failure summaries, the duration
// series, the anycast groups and the stored result counts (not the
// provenance, which differs between the kGolden stores) — plus the
// monthly rollup of the store's joined rows, which analyze does not
// compute and the test folds itself (monthly_of_store).
// Regenerate only together with a deliberate change to the pipeline's
// output or to what analyze reports.
constexpr std::uint64_t kGoldenAnalysis = 0x8a59934446b35cb1ull;

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t analysis_digest(
    const StoreAnalysis& a,
    const std::vector<core::MonthlyJoinedRow>& monthly) {
  Fnv1a h;
  for (const std::uint64_t count : {a.attacks, a.feed_records, a.events,
                                    a.joined, a.swept_measurements})
    h.u64(count);
  h.u64(a.impact.events);
  h.u64(a.impact.impaired_10x);
  h.u64(a.impact.severe_100x);
  h.u64(a.failures.events);
  h.u64(a.failures.events_with_failures);
  h.u64(a.failures.timeouts);
  h.u64(a.failures.servfails);
  const auto ports =
      a.failures.failed_event_ports.top(a.failures.failed_event_ports.distinct());
  h.u64(ports.size());
  for (const auto& [bucket, count] : ports) {
    h.str(bucket);
    h.u64(count);
  }
  h.u64(a.duration_series.n());
  for (std::size_t i = 0; i < a.duration_series.n(); ++i) {
    h.f64(a.duration_series.x[i]);
    h.f64(a.duration_series.y[i]);
  }
  h.f64(a.duration_series.pearson);
  h.f64(a.duration_series.spearman);
  h.u64(a.by_anycast.size());
  for (const core::GroupImpact& g : a.by_anycast) {
    h.str(g.group);
    h.u64(g.events);
    h.f64(g.median_impact);
    h.f64(g.p90_impact);
    h.f64(g.max_impact);
    h.u64(g.impaired_10x);
    h.u64(g.severe_100x);
    h.u64(g.events_with_failures);
    h.u64(g.complete_failures);
  }
  h.u64(monthly.size());
  for (const core::MonthlyJoinedRow& m : monthly) {
    h.u64(static_cast<std::uint64_t>(m.year));
    h.u64(static_cast<std::uint64_t>(m.month));
    h.u64(m.events);
    h.u64(m.impaired_10x);
    h.u64(m.severe_100x);
    h.u64(m.events_with_failures);
  }
  return h.value();
}

// core::monthly_joined_summary over the joined rows decoded from `path`.
std::vector<core::MonthlyJoinedRow> monthly_of_store(
    const std::string& path, store::ReadMode mode = store::ReadMode::Mapped) {
  return core::monthly_joined_summary(
      store::read_joined_events(store::Reader(path, mode)));
}

// analyze_store over the golden stores, mapped and buffered, at pool
// widths 1 and 4: every result must fold to the committed digest.
TEST(GoldenDigest, StoreAnalysis) {
  const unsigned saved_threads = exec::global_pool().thread_count();
  const LongitudinalResult r = run_longitudinal(test_config());
  for (const Golden& golden : kGolden) {
    const std::string path = temp_path("golden-analyze.drs");
    save_run(path, test_config(), golden.threads, r);
    for (const unsigned width : {1u, 4u}) {
      exec::set_global_threads(width);
      for (const bool use_mmap : {true, false}) {
        const StoreAnalysis a = analyze_store(path, use_mmap);
        EXPECT_EQ(a.threads, golden.threads);
        EXPECT_EQ(a.mapped, use_mmap);
        EXPECT_EQ(a.joined, r.joined.size());
        const store::ReadMode mode =
            use_mmap ? store::ReadMode::Mapped : store::ReadMode::Buffered;
        EXPECT_EQ(analysis_digest(a, monthly_of_store(path, mode)),
                  kGoldenAnalysis)
            << "analyze_store at pool width " << width
            << (use_mmap ? " (mapped)" : " (buffered)")
            << " of the threads-" << golden.threads << " store";
      }
    }
    std::filesystem::remove(path);
  }
  exec::set_global_threads(saved_threads);
}

TEST(GoldenDigest, SaveRunOfInMemoryRun) {
  const LongitudinalResult r = run_longitudinal(test_config());
  for (const Golden& golden : kGolden) {
    const std::string path = temp_path("golden-save.drs");
    EXPECT_EQ(save_run(path, test_config(), golden.threads, r), golden.size);
    expect_golden(path, golden,
                  "save_run at threads " + std::to_string(golden.threads));
    std::filesystem::remove(path);
  }
}

// ---- a persisting run reports what an in-memory run does.

void expect_equivalent(const LongitudinalResult& persisted,
                       const LongitudinalResult& in_memory,
                       bool feed_retired = true) {
  EXPECT_EQ(persisted.feed_records, in_memory.feed_records);
  // A persisting run drops feed records as it streams; only the count and
  // the stitched events survive (retain_feed keeps the vector).
  EXPECT_EQ(persisted.feed.records().empty(), feed_retired);
  ASSERT_EQ(persisted.events.size(), in_memory.events.size());
  for (std::size_t i = 0; i < persisted.events.size(); ++i) {
    EXPECT_EQ(persisted.events[i], in_memory.events[i]) << "event " << i;
  }
  EXPECT_EQ(persisted.swept_measurements, in_memory.swept_measurements);
  EXPECT_EQ(persisted.join_stats, in_memory.join_stats);
  ASSERT_EQ(persisted.joined.size(), in_memory.joined.size());
  for (std::size_t i = 0; i < persisted.joined.size(); ++i) {
    EXPECT_EQ(persisted.joined[i], in_memory.joined[i]) << "event " << i;
  }

  // Downstream analyses see identical inputs, so their summaries agree.
  const auto ms = core::monthly_summary(persisted.events,
                                        persisted.world->registry);
  const auto mm = core::monthly_summary(in_memory.events,
                                        in_memory.world->registry);
  ASSERT_EQ(ms.size(), mm.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(ms[i].year, mm[i].year);
    EXPECT_EQ(ms[i].month, mm[i].month);
    EXPECT_EQ(ms[i].dns_attacks, mm[i].dns_attacks);
    EXPECT_EQ(ms[i].other_attacks, mm[i].other_attacks);
    EXPECT_EQ(ms[i].dns_ips, mm[i].dns_ips);
    EXPECT_EQ(ms[i].other_ips, mm[i].other_ips);
  }
  const auto fs = core::failure_attribution(persisted.joined);
  const auto fm = core::failure_attribution(in_memory.joined);
  EXPECT_EQ(fs.complete_failures, fm.complete_failures);
  EXPECT_EQ(fs.single_asn, fm.single_asn);
  EXPECT_EQ(fs.single_prefix, fm.single_prefix);
  EXPECT_EQ(fs.unicast, fm.unicast);
  const auto is = core::intensity_impact_series(persisted.joined,
                                                persisted.darknet);
  const auto im = core::intensity_impact_series(in_memory.joined,
                                                in_memory.darknet);
  EXPECT_EQ(is.n(), im.n());
  EXPECT_EQ(is.pearson, im.pearson);
}

class StreamingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new LongitudinalConfig(test_config());
    in_memory_ = new LongitudinalResult(run_longitudinal(*config_));
  }
  static void TearDownTestSuite() {
    delete in_memory_;
    delete config_;
    in_memory_ = nullptr;
    config_ = nullptr;
  }
  static LongitudinalConfig* config_;
  static LongitudinalResult* in_memory_;
};

LongitudinalConfig* StreamingTest::config_ = nullptr;
LongitudinalResult* StreamingTest::in_memory_ = nullptr;

TEST_F(StreamingTest, PersistingRunMatchesInMemoryRun) {
  RunOptions opts;
  opts.store_path = temp_path("streaming_persist.drs");
  const auto persisted = run_longitudinal(*config_, opts);
  expect_equivalent(persisted, *in_memory_);
  // Every day retired into the file; the in-memory run retired none.
  EXPECT_EQ(persisted.store.daily_entries(), 0u);
  EXPECT_GT(in_memory_->store.daily_entries(), 0u);
  std::filesystem::remove(opts.store_path);
}

TEST_F(StreamingTest, StreamedStoreFileIsByteIdenticalToSaveRun) {
  const std::string mem_path = temp_path("streaming_mem.drs");
  const std::uint64_t mem_bytes =
      save_run(mem_path, *config_, /*threads=*/2, *in_memory_);

  RunOptions opts;
  opts.store_path = temp_path("streaming_str.drs");
  opts.threads = 2;  // provenance meta must match save_run's
  const auto streamed = run_longitudinal(*config_, opts);
  EXPECT_EQ(streamed.store_bytes, mem_bytes);

  const std::string mem = read_file(mem_path);
  const std::string str = read_file(opts.store_path);
  ASSERT_EQ(str.size(), mem.size());
  EXPECT_TRUE(str == mem) << "streamed DRS store differs from save_run's";

  // And the streamed file is a valid store that loads back to the run.
  const StoredRun loaded = load_run(opts.store_path);
  EXPECT_EQ(loaded.joined, in_memory_->joined);
  EXPECT_EQ(loaded.join_stats, in_memory_->join_stats);
  std::filesystem::remove(mem_path);
  std::filesystem::remove(opts.store_path);
}

TEST_F(StreamingTest, RetainFeedKeepsRecordVector) {
  RunOptions opts;
  opts.store_path = temp_path("streaming_retain.drs");
  opts.retain_feed = true;  // --feed-csv path: the CSV needs the vector
  const auto streamed = run_longitudinal(*config_, opts);
  EXPECT_EQ(streamed.feed.records(), in_memory_->feed.records());
  expect_equivalent(streamed, *in_memory_, /*feed_retired=*/false);
  std::filesystem::remove(opts.store_path);
}

// A store does not keep the stitched events; load_run re-stitches them
// from the stored feed on the worker pool. At pool widths 1 and 4 the
// result must be the events the in-memory run stitched during ingest.
TEST_F(StreamingTest, LoadedStoreEventsEqualInMemoryEvents) {
  const unsigned saved_threads = exec::global_pool().thread_count();
  for (const unsigned width : {1u, 4u}) {
    exec::set_global_threads(width);
    RunOptions opts;
    opts.store_path = temp_path("streaming_load_events.drs");
    run_longitudinal(*config_, opts);
    const StoredRun loaded = load_run(opts.store_path);
    EXPECT_EQ(loaded.events, in_memory_->events) << "pool width " << width;
    std::filesystem::remove(opts.store_path);
  }
  exec::set_global_threads(saved_threads);
}

// analyze_store decodes the stored joined events and folds them with the
// row kernels: its report must equal those kernels over the in-memory
// run's events.
TEST_F(StreamingTest, AnalyzeStoreMatchesRowAnalyses) {
  const std::string path = temp_path("streaming_analyze.drs");
  save_run(path, *config_, 1, *in_memory_);
  const std::vector<core::NssetAttackEvent>& joined = in_memory_->joined;
  StoreAnalysis expected;
  expected.attacks = in_memory_->workload.schedule.size();
  expected.feed_records = in_memory_->feed_records;
  expected.events = in_memory_->events.size();
  expected.joined = joined.size();
  expected.swept_measurements = in_memory_->swept_measurements;
  expected.impact = core::impact_summary(joined);
  expected.failures = core::failure_summary(joined);
  expected.duration_series = core::duration_impact_series(joined);
  expected.by_anycast = core::impact_by_anycast(joined);
  const StoreAnalysis analysis = analyze_store(path);
  EXPECT_TRUE(analysis.mapped);
  EXPECT_EQ(analysis.file_bytes, std::filesystem::file_size(path));
  EXPECT_EQ(analysis_digest(analysis, monthly_of_store(path)),
            analysis_digest(expected, core::monthly_joined_summary(joined)));
  std::filesystem::remove(path);
}

TEST_F(StreamingTest, UnwritableStorePathThrows) {
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "no-such-dir" / "x.drs")
          .string();
  RunOptions opts;
  opts.store_path = path;
  EXPECT_THROW(run_longitudinal(*config_, opts), store::StoreError);
  EXPECT_THROW(run_shard(*config_, ShardSpec{0, 2}, 1, path),
               store::StoreError);
  EXPECT_THROW(save_run(path, *config_, 1, *in_memory_), store::StoreError);
}

}  // namespace
}  // namespace ddos::scenario
