// Deterministic DRS corruption test: seeded byte flips and truncations of
// a saved run must fail loudly with a store::StoreError, never analyze or
// load a damaged file.
//
//   * A flip in any column block — including the feed and measurement
//     blocks `analyze --store` and the serve loader check but never
//     decode — must make analyze_store (mapped and buffered), load_run and
//     net::EngineHandle::load (the `serve` set-up) throw an error naming
//     that block's dataset.column.
//   * Truncations (mid-block, mid-footer, inside the trailer) and flips in
//     the header, footer or trailer must throw from the Reader itself,
//     and from analyze and the serve set-up.
//
// Offsets come from a fixed-seed netsim::Rng, so every run exercises the
// same bytes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "net/server.h"
#include "netsim/rng.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "scenario/driver.h"
#include "store/format.h"
#include "store/reader.h"

namespace ddos::scenario {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(testing::TempDir()) /
          (std::to_string(::getpid()) + "-" + name))
      .string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// XOR the byte at `offset` of the file with `mask` (applying it twice
// restores the byte).
void xor_byte(const std::string& path, std::uint64_t offset,
              unsigned char mask) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(static_cast<unsigned char>(c) ^ mask));
  ASSERT_TRUE(f.good()) << path;
}

// A nonzero mask, so the flip always changes the byte.
unsigned char flip_mask(netsim::Rng& rng) {
  return static_cast<unsigned char>(1 + rng.uniform_u64(255));
}

// `fn` must throw a StoreError whose message contains `needle`.
void expect_store_error(const std::function<void()>& fn,
                        const std::string& needle, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << what << ": no StoreError";
  } catch (const store::StoreError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << what << ": error does not name " << needle << ": " << e.what();
  }
}

// The test config of scenario_streaming_test: every dataset non-empty.
LongitudinalConfig test_config() {
  LongitudinalConfig cfg = small_longitudinal_config(21);
  cfg.world.provider_count = 80;
  cfg.world.domain_count = 4000;
  cfg.workload.scale = 200.0;
  return cfg;
}

// One saved run shared by every case; each case corrupts its own copy.
class StoreCorruption : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::string path = temp_path("corruption-pristine.drs");
    save_run(path, test_config(), 1, run_longitudinal(test_config()));
    pristine_ = new std::string(read_file(path));
    const store::Reader reader(path);
    columns_ = new std::vector<store::ColumnDesc>(reader.columns());
    std::filesystem::remove(path);
  }
  static void TearDownTestSuite() {
    delete columns_;
    delete pristine_;
  }

  // Start of the footer: the trailer's first field is its size.
  static std::uint64_t footer_start() {
    const std::size_t at = pristine_->size() - store::kTrailerSize;
    std::uint64_t footer_size = 0;
    for (int i = 7; i >= 0; --i)
      footer_size = (footer_size << 8) |
                    static_cast<unsigned char>((*pristine_)[at + i]);
    return at - footer_size;
  }

  static std::string* pristine_;
  static std::vector<store::ColumnDesc>* columns_;
};

std::string* StoreCorruption::pristine_ = nullptr;
std::vector<store::ColumnDesc>* StoreCorruption::columns_ = nullptr;

TEST_F(StoreCorruption, PristineStoreVerifiesEveryBlockOnce) {
  const std::string path = temp_path("corruption-clean.drs");
  write_file(path, *pristine_);
  for (const bool use_mmap : {true, false}) {
    obs::Observer observer;
    const obs::ScopedInstall install(observer);
    const StoreAnalysis a = analyze_store(path, use_mmap);
    EXPECT_GT(a.joined, 0u);
    EXPECT_GT(a.read_MBps, 0.0);
    EXPECT_EQ(observer.pipeline.store_crc_lazy_checks.value(),
              columns_->size())
        << (use_mmap ? "mapped" : "buffered");
    EXPECT_EQ(observer.pipeline.store_bytes_read.value(),
              static_cast<double>(pristine_->size()));
  }
  std::filesystem::remove(path);
}

// The serve set-up verifies every block once too, decodes only part of
// the file, and still reports the read: its span and the store read
// gauges are set.
TEST_F(StoreCorruption, PristineStoreServeLoadVerifiesEveryBlockOnce) {
  const std::string path = temp_path("corruption-serve.drs");
  write_file(path, *pristine_);
  obs::Observer observer;
  const obs::ScopedInstall install(observer);
  const auto handle = net::EngineHandle::load(path, 0);
  EXPECT_FALSE(handle->engine().joined().empty());
  EXPECT_EQ(observer.pipeline.store_crc_lazy_checks.value(),
            columns_->size());
  EXPECT_EQ(observer.pipeline.store_bytes_read.value(),
            static_cast<double>(pristine_->size()));
  EXPECT_GT(observer.pipeline.store_read_MBps.value(), 0.0);
  std::size_t load_spans = 0, stitch_spans = 0;
  for (const obs::TraceEvent& ev : observer.tracer().events()) {
    if (ev.name == "store.serve_load") {
      ++load_spans;
      EXPECT_GT(ev.items, 0u);
    }
    if (ev.name == "feed.count_stitch") ++stitch_spans;
    EXPECT_NE(ev.name, "feed.stitch") << "serve set-up ran the full stitch";
  }
  EXPECT_EQ(load_spans, 1u);
  EXPECT_EQ(stitch_spans, 1u);
  std::filesystem::remove(path);
}

TEST_F(StoreCorruption, EveryBlockFlipFailsAnalyzeAndLoadNamingTheBlock) {
  const std::string path = temp_path("corruption-block.drs");
  write_file(path, *pristine_);
  netsim::Rng rng(0xD125B10C);
  std::size_t flipped = 0;
  for (const store::ColumnDesc& desc : *columns_) {
    if (desc.size == 0) continue;
    const std::uint64_t offset = desc.offset + rng.uniform_u64(desc.size);
    const unsigned char mask = flip_mask(rng);
    const std::string block = "'" + desc.dataset + "." + desc.column + "'";
    xor_byte(path, offset, mask);
    for (const bool use_mmap : {true, false}) {
      expect_store_error([&] { analyze_store(path, use_mmap); }, block,
                         "analyze_store (" +
                             std::string(use_mmap ? "mapped" : "buffered") +
                             ") with a flip in " + block);
    }
    expect_store_error([&] { load_run(path); }, block,
                       "load_run with a flip in " + block);
    expect_store_error([&] { net::EngineHandle::load(path, 0); }, block,
                       "EngineHandle::load with a flip in " + block);
    xor_byte(path, offset, mask);
    ++flipped;
  }
  // Every dataset of the test run has rows, so no block was skipped.
  EXPECT_EQ(flipped, columns_->size());
  // Restored byte for byte: the file analyzes again.
  EXPECT_NO_THROW(analyze_store(path));
  std::filesystem::remove(path);
}

// A store holding `bytes` must fail to open in both reader modes, and
// analyze_store and the serve set-up must throw on it too.
void expect_reader_rejects(const std::string& path, const std::string& bytes,
                           const std::string& what) {
  write_file(path, bytes);
  for (const auto mode : {store::ReadMode::Mapped, store::ReadMode::Buffered}) {
    EXPECT_THROW((store::Reader{path, mode}), store::StoreError)
        << what << (mode == store::ReadMode::Mapped ? " (mapped)"
                                                    : " (buffered)");
  }
  EXPECT_THROW(analyze_store(path), store::StoreError) << what;
  EXPECT_THROW(net::EngineHandle::load(path, 0), store::StoreError) << what;
}

TEST_F(StoreCorruption, TruncationsFailInTheReader) {
  const std::string path = temp_path("corruption-truncated.drs");
  netsim::Rng rng(0x7E0C47E);
  const std::uint64_t size = pristine_->size();
  const std::uint64_t footer = footer_start();
  const std::uint64_t trailer = size - store::kTrailerSize;
  for (int i = 0; i < 8; ++i) {
    const store::ColumnDesc& desc =
        (*columns_)[rng.uniform_u64(columns_->size())];
    const std::uint64_t mid_block = desc.offset + rng.uniform_u64(desc.size);
    const std::uint64_t mid_footer =
        footer + rng.uniform_u64(trailer - footer);
    const std::uint64_t in_trailer =
        trailer + rng.uniform_u64(store::kTrailerSize);
    for (const std::uint64_t keep : {mid_block, mid_footer, in_trailer}) {
      expect_reader_rejects(path, pristine_->substr(0, keep),
                            "truncated to " + std::to_string(keep) + " of " +
                                std::to_string(size) + " bytes");
    }
  }
  std::filesystem::remove(path);
}

TEST_F(StoreCorruption, HeaderFooterAndTrailerFlipsFailInTheReader) {
  const std::string path = temp_path("corruption-footer.drs");
  netsim::Rng rng(0xF007E2);
  const std::uint64_t footer = footer_start();
  const std::uint64_t size = pristine_->size();
  std::vector<std::uint64_t> offsets;
  for (int i = 0; i < 24; ++i)
    offsets.push_back(footer + rng.uniform_u64(size - footer));
  // Header magic and format version (the reserved word is not checked).
  for (int i = 0; i < 4; ++i) offsets.push_back(rng.uniform_u64(8));
  for (const std::uint64_t offset : offsets) {
    std::string bytes = *pristine_;
    bytes[offset] = static_cast<char>(static_cast<unsigned char>(bytes[offset]) ^
                                      flip_mask(rng));
    expect_reader_rejects(path, bytes,
                          "byte " + std::to_string(offset) + " flipped");
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ddos::scenario
