// End-to-end tests for the epoll serve front-end (net::Server), the
// blocking client, and the remote load driver.
//
// The anchor test is fingerprint parity: a remote closed-loop drive with
// C connections against a served engine must produce bit-identical
// per-thread fingerprints to serve::drive with C pool threads over the
// same (seed, mix, engine) — the wire protocol's regression gate. The
// open-loop test injects a server stall through the before_request hook
// and asserts the reported tail latency reflects the *intended* send
// schedule (coordinated-omission correction): a stalled server must show
// p99 far above its per-request service time. The re-fill test swaps the
// engine atomically under concurrent client load (the TSan target for
// the RCU handoff) and checks post-swap answers come from the new
// engine. Malformed-input tests go through a raw socket: one Error
// frame, then the connection closes; semantic errors (BadRequest) keep
// the connection alive.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "exec/pool.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/remote.h"
#include "net/server.h"
#include "scenario/driver.h"
#include "serve/driver.h"
#include "serve/query_engine.h"

namespace ddos::net {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::path(testing::TempDir()) /
          (std::to_string(::getpid()) + "-" + name))
      .string();
}

class NetServerTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario::LongitudinalConfig cfg = scenario::small_longitudinal_config(21);
    result_ = new scenario::LongitudinalResult(scenario::run_longitudinal(cfg));
    config_ = new scenario::LongitudinalConfig(cfg);
    engine_ = new serve::QueryEngine(*result_);
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
    delete config_;
    config_ = nullptr;
    delete result_;
    result_ = nullptr;
  }

  /// The fixture engine wrapped for serving (caller keeps it alive).
  static std::shared_ptr<const EngineHandle> handle(std::uint64_t epoch = 1) {
    return EngineHandle::view(*engine_, epoch);
  }

  static scenario::LongitudinalResult* result_;
  static scenario::LongitudinalConfig* config_;
  static serve::QueryEngine* engine_;
};

scenario::LongitudinalResult* NetServerTest::result_ = nullptr;
scenario::LongitudinalConfig* NetServerTest::config_ = nullptr;
serve::QueryEngine* NetServerTest::engine_ = nullptr;

TEST_F(NetServerTest, HelloReportsEngineShapeAndEpoch) {
  ServerOptions options;
  options.threads = 2;
  Server server(handle(/*epoch=*/7), options);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  const HelloResult hello = client.hello(42);
  EXPECT_EQ(hello.key_count, engine_->keys().size());
  EXPECT_EQ(hello.day_min, engine_->day_min());
  EXPECT_EQ(hello.day_max, engine_->day_max());
  EXPECT_EQ(hello.nsset_count, engine_->nsset_count());
  EXPECT_EQ(hello.engine_epoch, 7u);

  client.close();
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.malformed_frames, 0u);
}

// EngineHandle::load owns the whole DRS store -> StoredRun -> engine
// chain; a server built from it must answer with the same shape as the
// live engine the store was saved from.
TEST_F(NetServerTest, EngineHandleLoadServesASavedStore) {
  const std::string path = temp_path("net-load.drs");
  ASSERT_GT(scenario::save_run(path, *config_, 1, *result_), 0u);

  Server server(EngineHandle::load(path, /*epoch=*/3), ServerOptions{});
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  const HelloResult hello = client.hello();
  EXPECT_EQ(hello.key_count, engine_->keys().size());
  EXPECT_EQ(hello.nsset_count, engine_->nsset_count());
  EXPECT_EQ(hello.engine_epoch, 3u);
  client.close();
  server.stop();
  std::filesystem::remove(path);
}

// The parity gate: remote closed loop with C connections == local drive
// with C pool threads, per-thread and combined, for the same
// (seed, mix, engine). Any wire-format field drift, reordering or
// truncation breaks this.
TEST_F(NetServerTest, RemoteClosedLoopMatchesLocalDriveFingerprints) {
  exec::set_global_threads(2);

  serve::DriveOptions local;
  local.workload.seed = 1234;
  local.ops_per_thread = 2000;
  const serve::DriveReport local_report = serve::drive(*engine_, local);
  ASSERT_EQ(local_report.threads, 2u);

  ServerOptions options;
  options.threads = 2;
  Server server(handle(), options);
  server.start();

  RemoteDriveOptions remote;
  remote.host = "127.0.0.1";
  remote.port = server.port();
  remote.connections = 2;
  remote.workload.seed = 1234;
  remote.ops_per_thread = 2000;
  const serve::DriveReport remote_report = drive_remote(remote);
  server.stop();

  ASSERT_EQ(remote_report.threads, 2u);
  EXPECT_EQ(remote_report.total_ops, local_report.total_ops);
  ASSERT_EQ(remote_report.thread_fingerprints.size(),
            local_report.thread_fingerprints.size());
  for (std::size_t t = 0; t < local_report.thread_fingerprints.size(); ++t) {
    EXPECT_EQ(remote_report.thread_fingerprints[t],
              local_report.thread_fingerprints[t])
        << "thread " << t;
    EXPECT_EQ(remote_report.thread_ops[t], local_report.thread_ops[t]);
  }
  EXPECT_EQ(remote_report.fingerprint, local_report.fingerprint);
  EXPECT_EQ(remote_report.target_qps, 0.0);

  // Per-type op counts travel through distinct response opcodes; equality
  // means every op was answered by the matching handler.
  for (std::size_t i = 0; i < local_report.by_type.size(); ++i) {
    EXPECT_EQ(remote_report.by_type[i].ops, local_report.by_type[i].ops);
  }
}

// Coordinated-omission correction: with a server stalled ~1ms per
// request and an intended rate of 2x the service rate, the open-loop
// driver must report tail latency from the intended send times — the
// queueing delay that a closed loop (which self-clocks down to the
// service rate) structurally cannot see.
TEST_F(NetServerTest, OpenLoopLatencyIsMeasuredFromIntendedSendTime) {
  ServerOptions options;
  options.before_request = [](Opcode op) {
    if (op != Opcode::Hello) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  Server server(handle(), options);
  server.start();

  RemoteDriveOptions base;
  base.host = "127.0.0.1";
  base.port = server.port();
  base.connections = 1;
  base.workload.seed = 9;
  base.workload.mix = {1, 0, 0};  // point-only: uniform ~1ms service time
  base.ops_per_thread = 200;

  RemoteDriveOptions closed = base;
  const serve::DriveReport closed_report = drive_remote(closed);

  RemoteDriveOptions open = base;
  open.target_qps = 2000.0;  // intended interval 0.5ms << 1ms service
  const serve::DriveReport open_report = drive_remote(open);
  server.stop();

  EXPECT_EQ(open_report.target_qps, 2000.0);
  EXPECT_EQ(open_report.total_ops, 200u);
  // Fingerprints are transport-policy-independent: same op stream, same
  // engine, same fold order.
  EXPECT_EQ(open_report.fingerprint, closed_report.fingerprint);

  const auto& open_point =
      open_report.by_type[static_cast<std::size_t>(serve::QueryType::PointLookup)];
  const auto& closed_point =
      closed_report.by_type[static_cast<std::size_t>(serve::QueryType::PointLookup)];
  ASSERT_EQ(open_point.ops, 200u);

  // Deterministic queueing math: each op adds >= 0.5ms of backlog, so the
  // 200-op run ends >= 100ms behind schedule and most ops wait tens of
  // milliseconds. 20ms is a 5x safety margin over the minimum p99.
  EXPECT_GT(open_point.p99_us, 20'000.0)
      << "open-loop p99 hides the server stall (coordinated omission)";
  // The closed loop self-clocks to the ~1ms service time; the open loop's
  // tail must dwarf it.
  EXPECT_GT(open_point.p99_us, 3.0 * closed_point.p99_us);
}

// Below saturation the fixed schedule has slack: intended-send-time
// latency collapses back to ~service time (no queueing term), and the
// run's wall clock is the schedule's, not the server's.
TEST_F(NetServerTest, OpenLoopBelowSaturationPacesTheSchedule) {
  ServerOptions options;
  options.before_request = [](Opcode op) {
    if (op != Opcode::Hello) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  Server server(handle(), options);
  server.start();

  RemoteDriveOptions open;
  open.host = "127.0.0.1";
  open.port = server.port();
  open.connections = 1;
  open.workload.seed = 9;
  open.workload.mix = {1, 0, 0};
  open.ops_per_thread = 60;
  open.target_qps = 200.0;  // 5ms between sends >> 1ms service: slack
  const serve::DriveReport report = drive_remote(open);
  server.stop();

  ASSERT_EQ(report.total_ops, 60u);
  // The schedule dictates the wall clock: 60 ops at 200/s = 300ms.
  EXPECT_GT(report.wall_s, 0.25);
  EXPECT_LT(report.wall_s, 2.0);
  const auto& point =
      report.by_type[static_cast<std::size_t>(serve::QueryType::PointLookup)];
  // No backlog accumulates, so p99 from intended send times is the
  // ~1ms service time plus loopback noise — far under the 20ms the
  // saturated run exceeds.
  EXPECT_LT(point.p99_us, 20'000.0);
}

// An answer is timestamped when it lands, not at the next send slot: one
// connection at 500 req/s against an idle in-process server gets its
// answers back well within the 2 ms send interval (tens of microseconds
// in a Release build, a few hundred under the thread sanitizer), so the
// open-loop p50 must sit below half the interval. A driver that sleeps
// until the next slot before reading reports about one interval instead.
TEST_F(NetServerTest, OpenLoopTimestampsAnswersOnArrival) {
  Server server(handle(), ServerOptions{});
  server.start();

  RemoteDriveOptions open;
  open.host = "127.0.0.1";
  open.port = server.port();
  open.connections = 1;
  open.workload.seed = 9;
  open.workload.mix = {1, 0, 0};
  open.ops_per_thread = 200;
  open.target_qps = 500.0;
  const serve::DriveReport report = drive_remote(open);
  server.stop();

  ASSERT_EQ(report.total_ops, 200u);
  const auto& point =
      report.by_type[static_cast<std::size_t>(serve::QueryType::PointLookup)];
  EXPECT_LT(point.p50_us, 1000.0) << "answers wait for the next send slot";
}

// Live re-fill: install_engine is one guarded shared_ptr swap, pinned
// per event batch by the loops. Clients hammer the server across the swap
// (this is the TSan target for the RCU handoff), must never see an
// error or a torn answer, and must observe the epoch bump exactly once;
// post-swap answers come from the new engine.
TEST_F(NetServerTest, InstallEngineSwapsLiveUnderConcurrentLoad) {
  scenario::LongitudinalConfig cfg_b = scenario::small_longitudinal_config(5);
  const scenario::LongitudinalResult result_b =
      scenario::run_longitudinal(cfg_b);
  const serve::QueryEngine engine_b(result_b);

  ServerOptions options;
  options.threads = 2;
  Server server(handle(/*epoch=*/1), options);
  server.start();
  const std::uint16_t port = server.port();

  constexpr int kClients = 3;
  std::atomic<bool> failed{false};
  std::atomic<int> saw_new_epoch{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client client;
        client.connect("127.0.0.1", port);
        std::uint64_t last_epoch = 0;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        std::uint32_t id = static_cast<std::uint32_t>(c) << 16;
        while (std::chrono::steady_clock::now() < deadline) {
          const HelloResult hello = client.hello(++id);
          if (hello.engine_epoch < last_epoch) {
            failed = true;  // epochs must be monotone per connection
            return;
          }
          last_epoch = hello.engine_epoch;
          // Keep the query path busy across the swap; TopK is valid
          // against either engine regardless of their key universes.
          serve::Op op;
          op.type = serve::QueryType::TopK;
          op.k = 8;
          op.metric = 0;
          client.queue_op(op, ++id);
          client.flush();
          const Answer& answer = client.recv();
          if (answer.opcode != Opcode::TopKOk || answer.request_id != id) {
            failed = true;
            return;
          }
          if (last_epoch == 2) {
            saw_new_epoch.fetch_add(1);
            return;
          }
        }
        failed = true;  // deadline: never saw the new epoch
      } catch (...) {
        failed = true;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.install_engine(EngineHandle::view(engine_b, /*epoch=*/2));
  for (std::thread& t : clients) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(saw_new_epoch.load(), kClients);
  EXPECT_EQ(server.stats().engine_swaps, 1u);

  // A fresh connection is answered entirely by the new engine.
  Client after;
  after.connect("127.0.0.1", port);
  const HelloResult hello = after.hello();
  EXPECT_EQ(hello.engine_epoch, 2u);
  EXPECT_EQ(hello.key_count, engine_b.keys().size());
  EXPECT_EQ(hello.nsset_count, engine_b.nsset_count());

  serve::Op op;
  op.type = serve::QueryType::TopK;
  op.k = 5;
  op.metric = static_cast<std::uint8_t>(serve::TopKMetric::PeakImpact);
  after.queue_op(op, 77);
  after.flush();
  const Answer& answer = after.recv();
  ASSERT_EQ(answer.opcode, Opcode::TopKOk);
  std::vector<serve::TopEntry> expected;
  const std::size_t n = engine_b.top_k(serve::TopKMetric::PeakImpact, 5, expected);
  expected.resize(n);
  ASSERT_NE(answer.rows, nullptr);
  EXPECT_EQ(*answer.rows, expected);

  after.close();
  server.stop();
}

// Unmap safety across store-backed swaps: EngineHandle::load goes
// through the mmap reader, and load_serving_inputs copies every decoded
// column out before the mapping closes — so answers must never
// reference bytes of a store file that has since been swapped out (and
// even deleted). Swapping repeatedly between two loaded stores while
// clients hammer TopK (whose rows come from the engine's own arrays) is
// the dangling-read probe; the TSan job runs this binary to make any
// lifetime violation loud.
TEST_F(NetServerTest, StoreBackedSwapNeverDanglesIntoTheMapping) {
  const std::string path_a = temp_path("net-swap-a.drs");
  const std::string path_b = temp_path("net-swap-b.drs");
  ASSERT_GT(scenario::save_run(path_a, *config_, 1, *result_), 0u);
  scenario::LongitudinalConfig cfg_b = scenario::small_longitudinal_config(5);
  const scenario::LongitudinalResult result_b =
      scenario::run_longitudinal(cfg_b);
  ASSERT_GT(scenario::save_run(path_b, cfg_b, 1, result_b), 0u);

  ServerOptions options;
  options.threads = 2;
  Server server(EngineHandle::load(path_a, /*epoch=*/1), options);
  server.start();
  const std::uint16_t port = server.port();

  constexpr int kClients = 2;
  constexpr std::uint64_t kSwaps = 8;
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client client;
        client.connect("127.0.0.1", port);
        std::uint32_t id = static_cast<std::uint32_t>(c) << 16;
        while (!done.load()) {
          serve::Op op;
          op.type = serve::QueryType::TopK;
          op.k = 8;
          op.metric = 0;
          client.queue_op(op, ++id);
          client.flush();
          const Answer& answer = client.recv();
          if (answer.opcode != Opcode::TopKOk || answer.request_id != id ||
              answer.rows == nullptr) {
            failed = true;
            return;
          }
          // Touch every byte of every row: a dangling reference into an
          // unmapped store would fault (or trip TSan) right here.
          for (const serve::TopEntry& row : *answer.rows) {
            if (row.key == 0 && row.value != row.value) failed = true;
          }
        }
      } catch (...) {
        failed = true;
      }
    });
  }

  for (std::uint64_t swap = 0; swap < kSwaps; ++swap) {
    const std::string& path = (swap % 2 == 0) ? path_b : path_a;
    server.install_engine(EngineHandle::load(path, /*epoch=*/swap + 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (swap == kSwaps / 2) {
      // Mid-hammer, delete both files: every engine already installed
      // must be self-contained — nothing may still read the store paths.
      std::filesystem::remove(path_a);
      std::filesystem::remove(path_b);
      break;
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  done = true;
  for (std::thread& t : clients) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GE(server.stats().engine_swaps, 1u);
  server.stop();
}

// ---- malformed input over a raw socket -------------------------------

int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

/// Read until the server closes; returns everything received.
std::vector<std::uint8_t> read_to_eof(int fd) {
  std::vector<std::uint8_t> all;
  std::uint8_t chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    all.insert(all.end(), chunk, chunk + n);
  }
  return all;
}

TEST_F(NetServerTest, MalformedFrameGetsOneErrorFrameThenClose) {
  Server server(handle(), ServerOptions{});
  server.start();
  const int fd = raw_connect(server.port());

  std::vector<std::uint8_t> wire;
  encode_hello(1, wire);
  wire[4] = 0x00;  // corrupt the magic byte
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  const std::vector<std::uint8_t> reply = read_to_eof(fd);  // EOF = closed
  ::close(fd);

  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(reply, frame, consumed), DecodeStatus::Ok);
  EXPECT_EQ(frame.opcode, Opcode::Error);
  EXPECT_EQ(frame.request_id, 0u);  // header was garbage; id 0 goodbye
  const std::optional<WireError> error = decode_error(frame);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::Malformed);
  EXPECT_EQ(consumed, reply.size());  // exactly one frame, nothing after

  server.stop();
  EXPECT_EQ(server.stats().malformed_frames, 1u);
}

TEST_F(NetServerTest, OversizedLengthPrefixClosesWithoutBuffering) {
  Server server(handle(), ServerOptions{});
  server.start();
  const int fd = raw_connect(server.port());

  // A length prefix past kMaxFrameBytes must be rejected from the prefix
  // alone — the server never waits for (or buffers) the announced body.
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxFrameBytes) + 1;
  std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(huge & 0xFF),
      static_cast<std::uint8_t>((huge >> 8) & 0xFF),
      static_cast<std::uint8_t>((huge >> 16) & 0xFF),
      static_cast<std::uint8_t>((huge >> 24) & 0xFF),
  };
  ASSERT_EQ(::send(fd, prefix, sizeof(prefix), 0),
            static_cast<ssize_t>(sizeof(prefix)));

  const std::vector<std::uint8_t> reply = read_to_eof(fd);
  ::close(fd);

  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(reply, frame, consumed), DecodeStatus::Ok);
  EXPECT_EQ(frame.opcode, Opcode::Error);
  const std::optional<WireError> error = decode_error(frame);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::Malformed);

  server.stop();
  EXPECT_EQ(server.stats().malformed_frames, 1u);
}

// Semantic errors are not framing errors: an out-of-range key_index gets
// a BadRequest Error frame and the connection stays usable.
TEST_F(NetServerTest, BadRequestAnswersErrorAndKeepsConnection) {
  Server server(handle(), ServerOptions{});
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  serve::Op op;
  op.type = serve::QueryType::PointLookup;
  op.key_index = engine_->keys().size();  // one past the end
  client.queue_op(op, 5);
  client.flush();
  const Answer& answer = client.recv();
  EXPECT_EQ(answer.opcode, Opcode::Error);
  EXPECT_EQ(answer.request_id, 5u);
  EXPECT_EQ(answer.error.code, ErrorCode::BadRequest);

  // Same connection keeps serving.
  const HelloResult hello = client.hello(6);
  EXPECT_EQ(hello.key_count, engine_->keys().size());

  client.close();
  server.stop();
  EXPECT_EQ(server.stats().malformed_frames, 0u);
  EXPECT_EQ(server.stats().connections_accepted, 1u);
}

}  // namespace
}  // namespace ddos::net
