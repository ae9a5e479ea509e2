#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <latch>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>

#include "net/client.h"
#include "net/codec.h"
#include "serve/driver.h"

namespace perfbench {

namespace {

namespace net = ddos::net;
namespace serve = ddos::serve;
using Clock = std::chrono::steady_clock;

// How long an open loop waits for the last answers after its last send.
constexpr std::chrono::seconds kDrainTimeout{5};

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

class Socket {
 public:
  Socket(const std::string& host, std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error(std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const std::string why = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("connect " + host + ":" +
                               std::to_string(port) + ": " + why);
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

}  // namespace

void encode_op(const serve::Op& op, std::uint32_t id,
               std::vector<std::uint8_t>& out) {
  switch (op.type) {
    case serve::QueryType::PointLookup:
      net::encode_point_lookup(id, op.key_index, out);
      break;
    case serve::QueryType::TopK:
      net::encode_top_k(id, static_cast<serve::TopKMetric>(op.metric), op.k,
                        out);
      break;
    case serve::QueryType::WindowScan:
      net::encode_window_scan(id, op.day_lo, op.day_hi, out);
      break;
  }
}

bool fold_frame(const net::Frame& frame, const serve::Op& op,
                std::uint64_t& fp, std::vector<serve::TopEntry>& rows) {
  switch (op.type) {
    case serve::QueryType::PointLookup: {
      if (frame.opcode != net::Opcode::PointOk) return false;
      const auto p = net::decode_point_ok(frame);
      if (!p) return false;
      fp = serve::fold_point_answer(fp, p->found, p->summary, p->series_len);
      return true;
    }
    case serve::QueryType::TopK:
      if (frame.opcode != net::Opcode::TopKOk ||
          !net::decode_top_k_ok(frame, rows)) {
        return false;
      }
      fp = serve::fold_top_k_answer(fp, rows);
      return true;
    case serve::QueryType::WindowScan: {
      if (frame.opcode != net::Opcode::ScanOk) return false;
      const auto s = net::decode_scan_ok(frame);
      if (!s) return false;
      fp = serve::fold_window_scan_answer(fp, *s);
      return true;
    }
  }
  return false;
}

namespace {

struct Pending {
  Clock::time_point start;  // closed: send time; open: intended send time
  serve::Op op;
};

// One connection's run: its op stream, its in-flight requests and what it
// measured. Only its own thread touches it until join.
struct Connection {
  Connection(const LoadSpec& spec, const serve::WorkloadSpec& wspec,
             std::uint64_t key_count, unsigned index)
      : socket(spec.host, spec.port), workload(wspec, key_count, index) {}

  Socket socket;
  serve::Workload workload;
  serve::ParticipantOutcome outcome;
  std::deque<Pending> pending;
  std::uint64_t answered = 0;  // frames consumed, good or bad
  std::uint64_t failed = 0;
  std::vector<double> latency_us;
  std::vector<double> late_us;
  Clock::time_point last_answer;
  std::string error;

  std::vector<std::uint8_t> rx;
  std::size_t rx_off = 0;
  std::vector<serve::TopEntry> rows;

  // Consumes every whole frame in `rx`, matching each to the oldest
  // pending request. False when the stream is malformed.
  bool parse(Clock::time_point now) {
    for (;;) {
      net::Frame frame;
      std::size_t consumed = 0;
      const std::span<const std::uint8_t> buf(rx.data() + rx_off,
                                              rx.size() - rx_off);
      const net::DecodeStatus status = net::decode_frame(buf, frame, consumed);
      if (status == net::DecodeStatus::NeedMore) break;
      if (status != net::DecodeStatus::Ok || pending.empty()) {
        error = std::string("malformed or unsolicited frame: ") +
                net::to_string(status);
        return false;
      }
      const Pending p = pending.front();
      pending.pop_front();
      const bool ok =
          frame.request_id == static_cast<std::uint32_t>(answered) &&
          fold_frame(frame, p.op, outcome.fingerprint, rows);
      ++answered;
      rx_off += consumed;
      if (!ok) {
        ++failed;
        if (error.empty()) {
          error = std::string("bad answer: opcode ") +
                  net::to_string(frame.opcode);
        }
        continue;
      }
      latency_us.push_back(micros(now - p.start));
      last_answer = now;
      ++outcome.ops;
      ++outcome.type_ops[static_cast<std::size_t>(p.op.type)];
    }
    if (rx_off > 0) {
      rx.erase(rx.begin(), rx.begin() + static_cast<std::ptrdiff_t>(rx_off));
      rx_off = 0;
    }
    return true;
  }

  // Reads from the socket: blocking, one recv() that waits for data;
  // non-blocking, everything the kernel has buffered. False on a closed
  // or failed connection.
  bool receive(bool blocking) {
    bool got = false;
    for (;;) {
      constexpr std::size_t kChunk = 64 * 1024;
      const std::size_t old = rx.size();
      rx.resize(old + kChunk);
      const ssize_t n = ::recv(socket.fd(), rx.data() + old, kChunk,
                               blocking ? 0 : MSG_DONTWAIT);
      if (n > 0) {
        rx.resize(old + static_cast<std::size_t>(n));
        got = true;
        if (blocking) break;
        continue;
      }
      rx.resize(old);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      error = n == 0 ? "connection closed by server" : std::strerror(errno);
      return false;
    }
    return got ? parse(Clock::now()) : true;
  }

  bool send_all(const std::vector<std::uint8_t>& tx) {
    std::size_t off = 0;
    while (off < tx.size()) {
      const ssize_t n =
          ::send(socket.fd(), tx.data() + off, tx.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else if (errno != EINTR) {
        error = std::strerror(errno);
        return false;
      }
    }
    return true;
  }

  void run_closed(std::uint64_t ops) {
    std::vector<std::uint8_t> tx;
    for (std::uint64_t i = 0; i < ops; ++i) {
      const serve::Op op = workload.next();
      tx.clear();
      encode_op(op, static_cast<std::uint32_t>(i), tx);
      pending.push_back(Pending{Clock::now(), op});
      if (!send_all(tx)) return;
      while (!pending.empty()) {
        if (!receive(/*blocking=*/true)) return;
      }
    }
  }

  void run_open(std::uint64_t ops, Clock::time_point start,
                Clock::duration interval) {
    // 1 ns timer slack: ppoll wakes at the due time, not up to 50 us late.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const int flags = ::fcntl(socket.fd(), F_GETFL, 0);
    ::fcntl(socket.fd(), F_SETFL, flags | O_NONBLOCK);
    std::vector<std::uint8_t> tx;
    std::size_t tx_off = 0;
    std::uint64_t sent = 0;
    const auto due = [&](std::uint64_t i) {
      return start + interval * static_cast<std::int64_t>(i);
    };
    Clock::time_point drain_deadline = Clock::time_point::max();
    for (;;) {
      if (!receive(/*blocking=*/false)) return;
      Clock::time_point now = Clock::now();
      while (sent < ops && due(sent) <= now) {
        const serve::Op op = workload.next();
        encode_op(op, static_cast<std::uint32_t>(sent), tx);
        pending.push_back(Pending{due(sent), op});
        late_us.push_back(micros(now - due(sent)));
        ++sent;
      }
      while (tx_off < tx.size()) {
        const ssize_t n = ::send(socket.fd(), tx.data() + tx_off,
                                 tx.size() - tx_off, MSG_NOSIGNAL);
        if (n > 0) {
          tx_off += static_cast<std::size_t>(n);
        } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;
        } else if (errno != EINTR) {
          error = std::strerror(errno);
          return;
        }
      }
      if (tx_off == tx.size()) {
        tx.clear();
        tx_off = 0;
      }
      if (sent == ops && pending.empty()) return;
      now = Clock::now();
      Clock::time_point wake;
      if (sent < ops) {
        wake = due(sent);
      } else {
        if (drain_deadline == Clock::time_point::max()) {
          drain_deadline = now + kDrainTimeout;
        }
        if (now >= drain_deadline) {
          error = "unanswered requests at drain timeout";
          return;
        }
        wake = drain_deadline;
      }
      if (wake <= now) continue;
      const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
          wake - now);
      timespec ts{};
      ts.tv_sec = static_cast<time_t>(wait.count() / 1'000'000'000);
      ts.tv_nsec = static_cast<long>(wait.count() % 1'000'000'000);
      pollfd pfd{socket.fd(),
                 static_cast<short>(POLLIN | (tx.empty() ? 0 : POLLOUT)), 0};
      ::ppoll(&pfd, 1, &ts, nullptr);
    }
  }
};

}  // namespace

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index =
      std::min(values.size() - 1, rank > 0 ? rank - 1 : 0);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

LoadResult run_load(const LoadSpec& spec) {
  if (spec.connections == 0) {
    throw std::invalid_argument("run_load: connections must be > 0");
  }
  net::HelloResult hello;
  {
    net::Client probe;
    probe.connect(spec.host, spec.port);
    hello = probe.hello();
  }
  if (hello.key_count == 0) {
    throw std::runtime_error("run_load: server has an empty key universe");
  }
  serve::WorkloadSpec wspec = spec.workload;
  wspec.day_min = hello.day_min;
  wspec.day_max = hello.day_max;

  std::vector<std::unique_ptr<Connection>> conns;
  for (unsigned c = 0; c < spec.connections; ++c) {
    conns.push_back(
        std::make_unique<Connection>(spec, wspec, hello.key_count, c));
  }

  const bool open_loop = spec.target_qps > 0.0;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(
          open_loop ? spec.connections / spec.target_qps : 0.0));
  Clock::time_point start;
  std::latch go(1);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < spec.connections; ++c) {
    threads.emplace_back([&, c] {
      go.wait();
      Connection& conn = *conns[c];
      if (open_loop) {
        // Stagger the connections so the aggregate schedule is even.
        conn.run_open(spec.ops_per_connection,
                      start + interval * c / spec.connections, interval);
      } else {
        std::this_thread::sleep_until(start);
        conn.run_closed(spec.ops_per_connection);
      }
    });
  }
  start = Clock::now() + std::chrono::milliseconds(1);
  go.count_down();
  for (std::thread& t : threads) t.join();

  LoadResult result;
  std::vector<serve::ParticipantOutcome> outcomes;
  Clock::time_point last = start;
  for (const auto& conn : conns) {
    result.attempted += spec.ops_per_connection;
    result.failed += conn->failed + (spec.ops_per_connection - conn->answered);
    result.latency_us.insert(result.latency_us.end(),
                             conn->latency_us.begin(), conn->latency_us.end());
    result.late_us.insert(result.late_us.end(), conn->late_us.begin(),
                          conn->late_us.end());
    last = std::max(last, conn->last_answer);
    if (result.first_error.empty()) result.first_error = conn->error;
    outcomes.push_back(conn->outcome);
  }
  result.wall_s = std::chrono::duration<double>(last - start).count();
  result.fingerprint =
      serve::finalize_drive(outcomes, result.wall_s).fingerprint;
  return result;
}

}  // namespace perfbench
