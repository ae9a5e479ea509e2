// Load generator for `ddosrepro serve --listen`: C connections, one
// thread each, every connection replaying the serve workload stream of
// its index (serve::Workload(spec, keys, c)), exactly as the in-process
// `ddosrepro serve --store --threads C` drive does for thread c, so the
// combined answer fingerprint must equal that drive's.
//
// Closed loop: each connection sends its next request when the previous
// answer arrived. Open loop: each connection sends on a fixed schedule
// (target_qps / C per connection, connections staggered by a fraction of
// the interval) and latency is measured from each request's intended
// send time. Between sends the thread blocks in ppoll() on its socket
// until the next request is due, with the thread's timer slack lowered
// to 1 ns, so answers are timestamped when they arrive, not when the
// generator next wakes to send.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/codec.h"
#include "serve/workload.h"

namespace perfbench {

struct LoadSpec {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  unsigned connections = 2;
  ddos::serve::WorkloadSpec workload;  // day range is taken from Hello
  std::uint64_t ops_per_connection = 0;
  double target_qps = 0.0;  // 0 = closed loop
};

struct LoadResult {
  std::uint64_t attempted = 0;
  /// Error frames, wrong request ids, wrong answer opcodes, and requests
  /// still unanswered 5 s after the last send or when the connection
  /// broke.
  std::uint64_t failed = 0;
  double wall_s = 0.0;  // first send to last answer
  /// Per answered request: closed loop, send to answer; open loop,
  /// intended send time to answer.
  std::vector<double> latency_us;
  /// Open loop only: actual minus intended send time, per request.
  std::vector<double> late_us;
  /// serve::finalize_drive combination of the per-connection folds.
  std::uint64_t fingerprint = 0;
  std::string first_error;
};

/// Runs one phase. Throws std::runtime_error only when the server cannot
/// be reached (connect or the initial Hello); every later defect is
/// counted in `failed`.
LoadResult run_load(const LoadSpec& spec);

/// Appends `op` as a request frame with id `id` (what net::Client sends).
void encode_op(const ddos::serve::Op& op, std::uint32_t id,
               std::vector<std::uint8_t>& out);

/// Folds the answer `frame` to `op` into `fp` with the serve driver's
/// answer folds; false when the frame is an Error or does not answer
/// `op`. `rows` is TopK decode scratch.
bool fold_frame(const ddos::net::Frame& frame, const ddos::serve::Op& op,
                std::uint64_t& fp, std::vector<ddos::serve::TopEntry>& rows);

/// Nearest-rank quantile of `values` (reorders it); 0 when empty.
double quantile(std::vector<double>& values, double q);

}  // namespace perfbench
