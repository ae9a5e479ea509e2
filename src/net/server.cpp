#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace ddos::net {

namespace {

using Clock = std::chrono::steady_clock;

// Same shape as serve::drive_latency_histogram(): 10 ns .. 100 s in
// tenth-of-a-decade bins. Service time per request, not round trip.
constexpr double kRequestUsBase = 0.01;
constexpr double kRequestUsDecadesPerBin = 0.1;
constexpr std::size_t kRequestUsBins = 100;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

const char* op_label(Opcode op) {
  switch (op) {
    case Opcode::Hello: return "hello";
    case Opcode::PointLookup: return "point";
    case Opcode::TopK: return "topk";
    case Opcode::WindowScan: return "scan";
    default: return "?";
  }
}

/// hello/point/topk/scan -> 0..3 for the per-op histogram array.
std::size_t op_slot(Opcode op) {
  switch (op) {
    case Opcode::Hello: return 0;
    case Opcode::PointLookup: return 1;
    case Opcode::TopK: return 2;
    default: return 3;
  }
}

}  // namespace

// ---- EngineHandle ----------------------------------------------------

std::shared_ptr<const EngineHandle> EngineHandle::load(
    const std::string& store_path, std::uint64_t epoch) {
  auto handle = std::shared_ptr<EngineHandle>(new EngineHandle());
  handle->owned_engine_ = std::make_unique<serve::QueryEngine>(
      scenario::load_serving_inputs(store_path));
  handle->engine_ = handle->owned_engine_.get();
  handle->epoch_ = epoch;
  return handle;
}

std::shared_ptr<const EngineHandle> EngineHandle::view(
    const serve::QueryEngine& engine, std::uint64_t epoch) {
  auto handle = std::shared_ptr<EngineHandle>(new EngineHandle());
  handle->engine_ = &engine;
  handle->epoch_ = epoch;
  return handle;
}

// ---- Server internals ------------------------------------------------

struct Server::Connection {
  int fd = -1;
  std::vector<std::uint8_t> read_buf;
  std::size_t read_off = 0;  // bytes of read_buf already consumed
  std::vector<std::uint8_t> write_buf;
  std::size_t write_off = 0;
  bool want_write = false;  // EPOLLOUT currently armed
  bool closing = false;     // close as soon as write_buf drains
};

struct Server::Loop {
  static constexpr std::size_t kReadChunk = 64 * 1024;

  int epoll_fd = -1;
  int wake_fd = -1;
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  // Every read lands here first; only the bytes received are appended to
  // the connection's buffer, so no read zero-fills a fresh chunk.
  std::unique_ptr<std::uint8_t[]> read_scratch =
      std::make_unique_for_overwrite<std::uint8_t[]>(kReadChunk);
};

Server::Server(std::shared_ptr<const EngineHandle> engine,
               ServerOptions options)
    : options_(std::move(options)), engine_(std::move(engine)) {
  if (options_.threads == 0) options_.threads = 1;
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_) return;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) throw_errno("net::Server socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("net::Server: bad listen address '" +
                             options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("net::Server bind/listen " + options_.host + ":" +
                std::to_string(options_.port));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  bound_port_ = ntohs(bound.sin_port);

  if (obs::Observer* o = obs::Observer::installed()) {
    auto& metrics = o->metrics();
    m_requests_ = &metrics.counter("net.requests");
    m_rx_bytes_ = &metrics.counter("net.rx_bytes");
    m_tx_bytes_ = &metrics.counter("net.tx_bytes");
    m_accepted_ = &metrics.counter("net.connections_accepted");
    m_malformed_ = &metrics.counter("net.malformed_frames");
    m_swaps_ = &metrics.counter("net.engine_swaps");
    m_open_ = &metrics.gauge("net.connections_open");
    m_queue_depth_ = &metrics.gauge("net.queue_depth_bytes");
    for (const Opcode op : {Opcode::Hello, Opcode::PointLookup, Opcode::TopK,
                            Opcode::WindowScan}) {
      m_request_us_[op_slot(op)] = &metrics.histogram(
          "net.request_us", kRequestUsBase, kRequestUsDecadesPerBin,
          kRequestUsBins, {{"op", op_label(op)}});
    }
    progress_.emplace(&o->progress_sources(), "net.requests", [this] {
      return requests_.load(std::memory_order_relaxed);
    });
  }

  stop_.store(false, std::memory_order_relaxed);
  loops_.clear();
  loops_.reserve(options_.threads);
  for (unsigned i = 0; i < options_.threads; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (loop->epoll_fd < 0 || loop->wake_fd < 0) {
      throw_errno("net::Server epoll/eventfd");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wake_fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    // EPOLLEXCLUSIVE: the kernel wakes one loop per pending accept, so
    // connections spread across loops without a thundering herd.
    ev.events = EPOLLIN | EPOLLEXCLUSIVE;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
    loops_.push_back(std::move(loop));
  }
  threads_.reserve(options_.threads);
  for (unsigned i = 0; i < options_.threads; ++i) {
    threads_.emplace_back([this, i] { loop_main(*loops_[i]); });
  }
  running_ = true;
}

void Server::stop() {
  if (!running_) return;
  stop_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(loop->wake_fd, &one, sizeof(one));
  }
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  for (auto& loop : loops_) {
    for (auto& [fd, conn] : loop->conns) ::close(fd);
    loop->conns.clear();
    ::close(loop->wake_fd);
    ::close(loop->epoll_fd);
  }
  loops_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  connections_open_.store(0, std::memory_order_relaxed);
  tx_queued_bytes_.store(0, std::memory_order_relaxed);
  if (m_open_ != nullptr) m_open_->set(0.0);
  if (m_queue_depth_ != nullptr) m_queue_depth_->set(0.0);
  progress_.reset();
  running_ = false;
}

void Server::install_engine(std::shared_ptr<const EngineHandle> engine) {
  {
    const std::lock_guard<std::mutex> lock(engine_mu_);
    engine_.swap(engine);
  }
  // `engine` now holds the old handle; it dies here unless an in-flight
  // batch still pins it.
  engine_swaps_.fetch_add(1, std::memory_order_relaxed);
  if (m_swaps_ != nullptr) m_swaps_->inc();
}

std::shared_ptr<const EngineHandle> Server::current_engine() const {
  const std::lock_guard<std::mutex> lock(engine_mu_);
  return engine_;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_open = connections_open_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.rx_bytes = rx_bytes_.load(std::memory_order_relaxed);
  s.tx_bytes = tx_bytes_.load(std::memory_order_relaxed);
  s.malformed_frames = malformed_frames_.load(std::memory_order_relaxed);
  s.engine_swaps = engine_swaps_.load(std::memory_order_relaxed);
  return s;
}

void Server::note_tx_queued(std::int64_t delta) {
  const std::int64_t now =
      tx_queued_bytes_.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->set(static_cast<double>(now < 0 ? 0 : now));
  }
}

void Server::loop_main(Loop& loop) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(loop.epoll_fd, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself is broken; nothing sane left to do
    }
    for (int i = 0; i < n; ++i) {
      if (stop_.load(std::memory_order_acquire)) return;
      const int fd = events[i].data.fd;
      if (fd == loop.wake_fd) {
        std::uint64_t drained = 0;
        [[maybe_unused]] ssize_t r =
            ::read(loop.wake_fd, &drained, sizeof(drained));
        continue;
      }
      if (fd == listen_fd_) {
        accept_ready(loop);
        continue;
      }
      const auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;  // closed earlier in this batch
      Connection& conn = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(loop, conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) conn_writable(loop, conn);
      // conn_writable may have closed the connection; re-check.
      if (loop.conns.count(fd) != 0 && (events[i].events & EPOLLIN) != 0) {
        conn_readable(loop, conn);
      }
    }
  }
}

void Server::accept_ready(Loop& loop) {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (or a raced-away connection): done
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    loop.conns.emplace(fd, std::move(conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_open_.fetch_add(1, std::memory_order_relaxed);
    if (m_accepted_ != nullptr) m_accepted_->inc();
    if (m_open_ != nullptr) {
      m_open_->set(static_cast<double>(
          connections_open_.load(std::memory_order_relaxed)));
    }
  }
}

void Server::conn_readable(Loop& loop, Connection& conn) {
  bool peer_closed = false;
  for (;;) {
    const ssize_t n =
        ::read(conn.fd, loop.read_scratch.get(), Loop::kReadChunk);
    if (n > 0) {
      conn.read_buf.insert(conn.read_buf.end(), loop.read_scratch.get(),
                           loop.read_scratch.get() + n);
      rx_bytes_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
      if (m_rx_bytes_ != nullptr) m_rx_bytes_->inc(static_cast<std::uint64_t>(n));
      if (static_cast<std::size_t>(n) < Loop::kReadChunk) break;  // drained
      continue;
    }
    if (n == 0) {
      peer_closed = true;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      close_conn(loop, conn);
      return;
    }
    break;
  }

  if (!conn.closing) {
    // Pin the engine once per batch (one mutex hit per epoll wakeup):
    // every frame already buffered is answered by the same engine even
    // if install_engine races with us.
    const std::shared_ptr<const EngineHandle> engine = current_engine();
    if (!drain_frames(conn, *engine)) {
      // Malformed input: the error frame is queued; flush it and close
      // once (and only once) the buffer drains.
      conn.closing = true;
    }
  }
  flush(loop, conn);
  if (loop.conns.count(conn.fd) == 0) return;  // flush closed it
  if (peer_closed || (conn.closing && conn.write_buf.empty())) {
    close_conn(loop, conn);
  }
}

void Server::conn_writable(Loop& loop, Connection& conn) {
  flush(loop, conn);
  if (loop.conns.count(conn.fd) == 0) return;
  if (conn.closing && conn.write_buf.empty()) close_conn(loop, conn);
}

bool Server::drain_frames(Connection& conn, const EngineHandle& engine) {
  for (;;) {
    const std::span<const std::uint8_t> pending(
        conn.read_buf.data() + conn.read_off,
        conn.read_buf.size() - conn.read_off);
    Frame frame;
    std::size_t consumed = 0;
    const DecodeStatus status = decode_frame(pending, frame, consumed);
    if (status == DecodeStatus::NeedMore) break;
    if (status != DecodeStatus::Ok) {
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      if (m_malformed_ != nullptr) m_malformed_->inc();
      const std::size_t before = conn.write_buf.size();
      // Best-effort goodbye; the header may be garbage so id 0 is all we
      // can echo.
      encode_error(0, ErrorCode::Malformed, to_string(status),
                   conn.write_buf);
      note_tx_queued(
          static_cast<std::int64_t>(conn.write_buf.size() - before));
      return false;
    }
    conn.read_off += consumed;
    handle_frame(conn, frame, engine);
  }
  // Compact: drop consumed bytes so the buffer never grows past one
  // partial frame plus whatever the last read appended.
  if (conn.read_off > 0) {
    conn.read_buf.erase(conn.read_buf.begin(),
                        conn.read_buf.begin() +
                            static_cast<std::ptrdiff_t>(conn.read_off));
    conn.read_off = 0;
  }
  return true;
}

void Server::handle_frame(Connection& conn, const Frame& frame,
                          const EngineHandle& engine) {
  if (options_.before_request) options_.before_request(frame.opcode);
  const std::size_t before = conn.write_buf.size();
  const Clock::time_point t0 = Clock::now();
  const serve::QueryEngine& q = engine.engine();

  switch (frame.opcode) {
    case Opcode::Hello: {
      if (!frame.body.empty()) {
        encode_error(frame.request_id, ErrorCode::Malformed,
                     "hello takes no body", conn.write_buf);
        break;
      }
      HelloResult hello;
      hello.key_count = q.keys().size();
      hello.day_min = q.day_min();
      hello.day_max = q.day_max();
      hello.nsset_count = q.nsset_count();
      hello.engine_epoch = engine.epoch();
      encode_hello_ok(frame.request_id, hello, conn.write_buf);
      break;
    }
    case Opcode::PointLookup: {
      const std::optional<std::uint64_t> key_index =
          decode_point_lookup(frame);
      if (!key_index) {
        encode_error(frame.request_id, ErrorCode::Malformed,
                     "bad point_lookup body", conn.write_buf);
        break;
      }
      if (*key_index >= q.keys().size()) {
        encode_error(frame.request_id, ErrorCode::BadRequest,
                     "key_index " + std::to_string(*key_index) +
                         " out of range (key universe " +
                         std::to_string(q.keys().size()) + ")",
                     conn.write_buf);
        break;
      }
      const serve::PointResult r = q.point_lookup(q.keys()[*key_index]);
      WirePointResult wire;
      wire.found = r.found;
      wire.summary = r.summary;
      wire.event_count = static_cast<std::uint32_t>(r.event_indices.size());
      wire.series_len = static_cast<std::uint32_t>(r.series.size());
      encode_point_ok(frame.request_id, wire, conn.write_buf);
      break;
    }
    case Opcode::TopK: {
      const std::optional<TopKRequest> req = decode_top_k(frame);
      if (!req) {
        encode_error(frame.request_id, ErrorCode::Malformed,
                     "bad top_k body", conn.write_buf);
        break;
      }
      // Cap k so one request cannot demand a response larger than a frame
      // can carry (16 bytes/row; the engine clamps to its universe too).
      const std::uint32_t max_k =
          static_cast<std::uint32_t>((kMaxFrameBytes - kHeaderBytes - 4) / 16);
      if (req->k > max_k) {
        encode_error(frame.request_id, ErrorCode::BadRequest,
                     "k " + std::to_string(req->k) + " exceeds frame cap " +
                         std::to_string(max_k),
                     conn.write_buf);
        break;
      }
      // handle_frame only ever runs on the owning loop's thread, so one
      // scratch vector per thread is as shared-nothing as one per loop.
      static thread_local std::vector<serve::TopEntry> scratch;
      const std::size_t n = q.top_k(req->metric, req->k, scratch);
      encode_top_k_ok(frame.request_id,
                      std::span<const serve::TopEntry>(scratch.data(), n),
                      conn.write_buf);
      break;
    }
    case Opcode::WindowScan: {
      const std::optional<WindowScanRequest> req = decode_window_scan(frame);
      if (!req) {
        encode_error(frame.request_id, ErrorCode::Malformed,
                     "bad window_scan body", conn.write_buf);
        break;
      }
      const serve::WindowScanResult r = q.window_scan(req->day_lo,
                                                      req->day_hi);
      encode_scan_ok(frame.request_id, r, conn.write_buf);
      break;
    }
    default:
      // decode_frame only admits request opcodes from valid_opcode, but a
      // client sending a *response* opcode lands here.
      encode_error(frame.request_id, ErrorCode::BadRequest,
                   "not a request opcode", conn.write_buf);
      break;
  }

  const double us = std::chrono::duration<double, std::micro>(
                        Clock::now() - t0).count();
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (m_requests_ != nullptr) m_requests_->inc();
  if (obs::HistogramMetric* h = m_request_us_[op_slot(frame.opcode)]) {
    h->observe(us);
  }
  note_tx_queued(static_cast<std::int64_t>(conn.write_buf.size() - before));
}

void Server::flush(Loop& loop, Connection& conn) {
  while (conn.write_off < conn.write_buf.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.write_buf.data() + conn.write_off,
               conn.write_buf.size() - conn.write_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.write_off += static_cast<std::size_t>(n);
      tx_bytes_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
      if (m_tx_bytes_ != nullptr) m_tx_bytes_->inc(static_cast<std::uint64_t>(n));
      note_tx_queued(-static_cast<std::int64_t>(n));
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_conn(loop, conn);
    return;
  }
  if (conn.write_off == conn.write_buf.size()) {
    conn.write_buf.clear();
    conn.write_off = 0;
  } else if (conn.write_off > (1u << 16)) {
    conn.write_buf.erase(conn.write_buf.begin(),
                         conn.write_buf.begin() +
                             static_cast<std::ptrdiff_t>(conn.write_off));
    conn.write_off = 0;
  }

  const std::size_t backlog = conn.write_buf.size() - conn.write_off;
  if (backlog > options_.max_tx_buffer_bytes) {
    // The peer stopped reading; shed it rather than buffer unboundedly.
    close_conn(loop, conn);
    return;
  }
  const bool want = backlog > 0;
  if (want != conn.want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.fd = conn.fd;
    if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
      conn.want_write = want;
    }
  }
}

void Server::close_conn(Loop& loop, Connection& conn) {
  note_tx_queued(
      -static_cast<std::int64_t>(conn.write_buf.size() - conn.write_off));
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  loop.conns.erase(conn.fd);  // destroys conn; do not touch it after this
  connections_open_.fetch_sub(1, std::memory_order_relaxed);
  if (m_open_ != nullptr) {
    m_open_->set(static_cast<double>(
        connections_open_.load(std::memory_order_relaxed)));
  }
}

}  // namespace ddos::net
