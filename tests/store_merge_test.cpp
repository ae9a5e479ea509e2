// merge_stores contract tests: the compaction stage must be byte-exact
// when the inputs are a complete, healthy shard set — and must fail
// loudly, naming the offending shard file, on every defect (corrupt
// block, non-shard input, wrong or duplicate shard index, provenance
// mismatch). Also covers the Reader decode-error path gained for merge:
// decode failures now carry the file path and column name, so a
// multi-shard merge failure identifies the corrupt shard.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/driver.h"
#include "scenario/plan.h"
#include "store/merge.h"
#include "store/reader.h"
#include "store/writer.h"

namespace ddos::store {
namespace {

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

scenario::LongitudinalConfig test_config() {
  scenario::LongitudinalConfig cfg = scenario::small_longitudinal_config(21);
  cfg.world.provider_count = 80;
  cfg.world.domain_count = 4000;
  cfg.workload.scale = 200.0;
  return cfg;
}

// Write shards i=0..count-1 of `cfg` and return their paths in order.
std::vector<std::string> make_shards(const scenario::LongitudinalConfig& cfg,
                                     std::uint32_t count,
                                     const std::string& tag) {
  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string path = temp_path(
        tag + "-" + std::to_string(i) + "of" + std::to_string(count) +
        ".drs");
    scenario::run_shard(cfg, scenario::ShardSpec{i, count}, 1, path);
    paths.push_back(path);
  }
  return paths;
}

// The two-shard set used by most defect tests, generated once.
const std::vector<std::string>& shards2() {
  static const std::vector<std::string> paths =
      make_shards(test_config(), 2, "m2");
  return paths;
}

void expect_merge_error(const std::vector<std::string>& paths,
                        const std::string& needle) {
  const std::string out = temp_path("merge-fail.drs");
  try {
    merge_stores(out, paths);
    FAIL() << "merge_stores did not throw (wanted '" << needle << "')";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message: " << e.what();
  }
  std::filesystem::remove(out);
}

TEST(StoreMerge, MatchesSaveRunBytes) {
  const scenario::LongitudinalConfig cfg = test_config();
  const scenario::LongitudinalResult whole = scenario::run_longitudinal(cfg);
  const std::string whole_path = temp_path("merge-whole.drs");
  scenario::save_run(whole_path, cfg, 1, whole);

  const std::string merged_path = temp_path("merge-out.drs");
  const MergeStats stats = merge_stores(merged_path, shards2());
  EXPECT_EQ(stats.shards, 2u);
  EXPECT_EQ(stats.events_out, whole.joined.size());
  EXPECT_GT(stats.rows_merged, 0u);
  EXPECT_EQ(stats.bytes_read,
            std::filesystem::file_size(shards2()[0]) +
                std::filesystem::file_size(shards2()[1]));
  EXPECT_EQ(stats.bytes_written, std::filesystem::file_size(merged_path));
  EXPECT_EQ(read_file(merged_path), read_file(whole_path));

  // The merged store loads as a normal save_run store with the union
  // provenance and the re-counted joined totals.
  const scenario::StoredRun run = scenario::load_run(merged_path);
  EXPECT_EQ(run.joined.size(), whole.joined.size());
  EXPECT_EQ(run.feed_records, whole.feed_records);
  EXPECT_EQ(run.threads, 1u);

  std::filesystem::remove(whole_path);
  std::filesystem::remove(merged_path);
}

// A sparse workload at N=8 (scale divides the paper's attack counts, so
// a large scale means few attacks; without scripted cases only two days
// end up planned) leaves most shards owning zero events and zero planned
// days; merge must still reproduce the whole store exactly.
TEST(StoreMerge, EmptyShardsStayByteIdentical) {
  scenario::LongitudinalConfig cfg = test_config();
  cfg.workload.scale = 8000.0;
  cfg.workload.scripted_cases = false;
  const scenario::LongitudinalResult whole = scenario::run_longitudinal(cfg);
  const std::string whole_path = temp_path("merge-sparse-whole.drs");
  scenario::save_run(whole_path, cfg, 1, whole);

  std::uint64_t min_owned = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < 8; ++i) {
    const std::string path =
        temp_path("merge-sparse-" + std::to_string(i) + ".drs");
    const scenario::ShardRunResult shard =
        scenario::run_shard(cfg, scenario::ShardSpec{i, 8}, 1, path);
    min_owned = std::min(min_owned, shard.owned_events);
    paths.push_back(path);
  }
  // The point of this config: at least one shard has nothing to join.
  EXPECT_EQ(min_owned, 0u);

  const std::string merged_path = temp_path("merge-sparse-out.drs");
  merge_stores(merged_path, paths);
  EXPECT_EQ(read_file(merged_path), read_file(whole_path));

  for (const std::string& path : paths) std::filesystem::remove(path);
  std::filesystem::remove(whole_path);
  std::filesystem::remove(merged_path);
}

TEST(StoreMerge, ProvenanceMismatchNamesKeyAndShard) {
  scenario::LongitudinalConfig other = test_config();
  other.world.seed += 1;
  const std::string foreign = temp_path("m2-foreign.drs");
  scenario::run_shard(other, scenario::ShardSpec{1, 2}, 1, foreign);

  expect_merge_error({shards2()[0], foreign},
                     "merge provenance mismatch on 'world.seed'");
  expect_merge_error({shards2()[0], foreign}, foreign);
  std::filesystem::remove(foreign);
}

TEST(StoreMerge, CorruptShardFailsNamingThePath) {
  const std::string corrupt = temp_path("m2-corrupt.drs");
  std::filesystem::copy_file(shards2()[1], corrupt,
                             std::filesystem::copy_options::overwrite_existing);

  // Flip a byte inside a known column payload so the damage lands in a
  // CRC-covered block, not inter-block padding or the footer.
  std::uint64_t target = 0;
  {
    const Reader reader(corrupt);
    const ColumnDesc& desc = reader.column("daily", "key");
    ASSERT_GT(desc.size, 2u);
    target = desc.offset + 2;
  }
  {
    std::fstream f(corrupt,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(target));
    char byte = 0;
    f.get(byte);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(target));
    f.put(byte);
  }

  expect_merge_error({shards2()[0], corrupt}, corrupt);
  expect_merge_error({shards2()[0], corrupt}, "checksum mismatch");
  std::filesystem::remove(corrupt);
}

TEST(StoreMerge, WrongShardCountIsRejected) {
  const std::vector<std::string> three =
      make_shards(test_config(), 3, "m3");
  // Two files of a 3-way partition: each store's manifest says count 3.
  expect_merge_error({three[0], three[1]}, "shard count mismatch");
  for (const std::string& path : three) std::filesystem::remove(path);
}

TEST(StoreMerge, DuplicateShardIndexIsRejected) {
  expect_merge_error({shards2()[0], shards2()[0]},
                     "duplicate shard index 0");
}

TEST(StoreMerge, NonShardStoreIsRejected) {
  const scenario::LongitudinalConfig cfg = test_config();
  const scenario::LongitudinalResult whole = scenario::run_longitudinal(cfg);
  const std::string whole_path = temp_path("merge-notashard.drs");
  scenario::save_run(whole_path, cfg, 1, whole);
  expect_merge_error({whole_path, shards2()[1]},
                     "not a shard store (no shard.index/shard.count "
                     "manifest");
  std::filesystem::remove(whole_path);
}

TEST(StoreMerge, NoInputsIsRejected) {
  expect_merge_error({}, "at least one shard store");
}

// Satellite: Reader decode failures carry the file path and column, so a
// corrupt-but-CRC-valid block (possible only via add_encoded, whose
// caller vouches for the payload) is still attributed to its shard file.
TEST(StoreReader, DecodeErrorNamesPathAndColumn) {
  const std::string path = temp_path("decode-err.drs");
  {
    Writer writer(path);
    ASSERT_TRUE(writer.ok());
    // One truncated varint: the continuation bit promises a second byte
    // that never comes. The CRC is computed over this payload as
    // written, so checksum validation passes and only the decode fails.
    const std::string payload(1, '\x80');
    writer.add_encoded("ds", "col", ColumnType::U64, Encoding::Varint, 1,
                       payload);
    ASSERT_TRUE(writer.finish());
  }
  const Reader reader(path);
  try {
    reader.read_u64("ds", "col");
    FAIL() << "decode of a truncated varint did not throw";
  } catch (const StoreError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(path), std::string::npos) << message;
    EXPECT_NE(message.find("column 'ds.col'"), std::string::npos) << message;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ddos::store
