// net::Server — the epoll TCP front-end that puts serve::QueryEngine on
// the wire.
//
// Threading model: `threads` event-loop threads, each owning one epoll
// instance. The single listening socket is registered in every loop with
// EPOLLEXCLUSIVE, so the kernel wakes exactly one loop per pending
// accept and connections spread across loops without a dedicated
// acceptor; a connection then lives its whole life on the loop that
// accepted it (its fd is in exactly one epoll set), so per-connection
// state — read buffer, write buffer, frame cursor — is single-threaded
// by construction and needs no locks. Sockets are non-blocking,
// level-triggered; responses are appended to the connection's write
// buffer and flushed opportunistically, with EPOLLOUT armed only while
// a partial write is pending.
//
// Query path: requests are decoded with net::codec's strict decoder and
// executed inline on the event loop against the current engine — every
// engine query is const over immutable state (serve/query_engine.h), so
// N loops query one engine with no locks anywhere on the hot path. A
// malformed frame (bad magic/version/opcode, truncated or oversized
// body) is answered with one best-effort Error frame and the connection
// is closed: framing errors are never resynchronized over.
//
// Live re-fill: the engine sits behind a mutex-guarded
// shared_ptr<const EngineHandle> (RCU-style: the mutex covers only the
// pointer hand-off, never a query — libstdc++'s atomic<shared_ptr> is
// an internal spinlock TSan cannot see through, so a plain mutex buys
// verifiable correctness at the same cost). install_engine() is one
// guarded pointer swap; a loop pins the handle ONCE per event batch, so
// the lock is taken per epoll wakeup, not per request, and requests
// already being served finish against the engine they started with
// while new batches see the replacement — queries keep flowing through
// the cutover, and the old engine is destroyed when the last in-flight
// batch drops its reference. Clients observe the swap as a bumped
// engine_epoch in Hello answers.
//
// Observability: with an installed obs::Observer the server publishes
// net.connections_accepted / net.connections_open / net.rx_bytes /
// net.tx_bytes / net.malformed_frames / net.engine_swaps counters and
// gauges, a net.queue_depth_bytes gauge (pending response bytes across
// all write buffers), per-op net.request_us{op=...} service-time
// histograms, and a `net.requests` progress source for the stall
// watchdog.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/codec.h"
#include "obs/obs.h"
#include "scenario/driver.h"
#include "serve/query_engine.h"

namespace ddos::net {

/// A query engine shared between the server's event loops behind one
/// guarded pointer. `load` owns the whole chain (DRS store ->
/// scenario::load_serving_inputs -> engine; the engine keeps only the
/// joined events and its indexes, no StoredRun); `view` wraps an
/// externally-owned engine (tests, bench, the in-process CLI path) that
/// the caller must keep alive for the handle's lifetime.
class EngineHandle {
 public:
  static std::shared_ptr<const EngineHandle> load(
      const std::string& store_path, std::uint64_t epoch);
  static std::shared_ptr<const EngineHandle> view(
      const serve::QueryEngine& engine, std::uint64_t epoch);

  const serve::QueryEngine& engine() const { return *engine_; }
  std::uint64_t epoch() const { return epoch_; }

 private:
  EngineHandle() = default;

  std::unique_ptr<serve::QueryEngine> owned_engine_;  // load() only
  const serve::QueryEngine* engine_ = nullptr;
  std::uint64_t epoch_ = 0;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; Server::port() has the result
  unsigned threads = 1;    // event-loop threads, >= 1
  /// Close a connection whose pending response bytes exceed this (a
  /// client that stops reading must not buffer the server into the
  /// ground).
  std::size_t max_tx_buffer_bytes = 16u << 20;
  /// Test hook, run on the event loop before each request executes (the
  /// open-loop coordinated-omission test injects server stalls here).
  /// Must be thread-safe; empty = disabled.
  std::function<void(Opcode)> before_request;
};

/// Totals across all event loops, readable at any time.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;
  std::uint64_t requests = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t malformed_frames = 0;
  std::uint64_t engine_swaps = 0;
};

class Server {
 public:
  /// Takes the initial engine; the server is inert until start().
  Server(std::shared_ptr<const EngineHandle> engine, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the event loops. Throws std::runtime_error
  /// (with errno text) when the address cannot be bound.
  void start();
  /// Idempotent; joins the loops and closes every socket.
  void stop();

  bool running() const { return running_; }
  /// Bound port (after start(); resolves port 0 to the real ephemeral
  /// port).
  std::uint16_t port() const { return bound_port_; }

  /// Atomically swap the serving engine; in-flight batches finish on the
  /// old one, new batches see the new one immediately.
  void install_engine(std::shared_ptr<const EngineHandle> engine);
  std::shared_ptr<const EngineHandle> current_engine() const;

  ServerStats stats() const;

 private:
  struct Connection;
  struct Loop;

  void loop_main(Loop& loop);
  void accept_ready(Loop& loop);
  void conn_readable(Loop& loop, Connection& conn);
  void conn_writable(Loop& loop, Connection& conn);
  /// Decode + execute every complete frame in the read buffer. Returns
  /// false when the connection must close (malformed input).
  bool drain_frames(Connection& conn, const EngineHandle& engine);
  void handle_frame(Connection& conn, const Frame& frame,
                    const EngineHandle& engine);
  void flush(Loop& loop, Connection& conn);
  void close_conn(Loop& loop, Connection& conn);
  void note_tx_queued(std::int64_t delta);

  ServerOptions options_;
  mutable std::mutex engine_mu_;  // guards engine_ (the pointer only)
  std::shared_ptr<const EngineHandle> engine_;

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  bool running_ = false;

  // stats cells (relaxed; exactness per counter, not across counters)
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_open_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rx_bytes_{0};
  std::atomic<std::uint64_t> tx_bytes_{0};
  std::atomic<std::uint64_t> malformed_frames_{0};
  std::atomic<std::uint64_t> engine_swaps_{0};
  std::atomic<std::int64_t> tx_queued_bytes_{0};

  // Resolved once at start() when an observer is installed; nullptr
  // otherwise (the null-sink discipline every hot path here follows).
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_rx_bytes_ = nullptr;
  obs::Counter* m_tx_bytes_ = nullptr;
  obs::Counter* m_accepted_ = nullptr;
  obs::Counter* m_malformed_ = nullptr;
  obs::Counter* m_swaps_ = nullptr;
  obs::Gauge* m_open_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  std::array<obs::HistogramMetric*, 4> m_request_us_{};  // hello/point/topk/scan
  std::optional<obs::ScopedProgressSource> progress_;
};

}  // namespace ddos::net
