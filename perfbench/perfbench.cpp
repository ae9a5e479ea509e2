// perfbench — the benchmark's native helper, driven by run.py.
//
//   perfbench load  --port P --seed S [--connections C] [--closed-ops N]
//                   [--open-ops N] [--qps Q] [--reps K]
//       K repetitions of a closed-loop phase (C x N ops) followed by an
//       open-loop phase (C x N ops at Q req/s) against a running
//       `ddosrepro serve --listen`. Each phase restarts the per-connection
//       op streams, so every repetition's fingerprint must equal the
//       in-process `ddosrepro serve --store --threads C --serve-ops N`.
//
//   perfbench trace --seed S --dir D [--threads T] [--open-ops N]
//                   [--qps Q]
//       One traced pass over every layer: the `generate` pipeline rebuilt
//       from the layers' public entry points (writing D/traced.drs, which
//       must equal `ddosrepro generate --store`), analyze, the three
//       shards and their merge, store load + engine build, the engine and
//       the wire codec over the serve op stream, and socket round trips
//       against an in-process server. Spans are taken here, around the
//       calls; the program itself is not instrumented.
//
// Both print one JSON object on stdout.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/pool.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "scenario/driver.h"
#include "serve/driver.h"
#include "serve/query_engine.h"
#include "store/merge.h"

namespace {

using namespace ddos;
using Clock = std::chrono::steady_clock;

using Args = std::map<std::string, std::string>;

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc % 2 != 0) {
    throw std::invalid_argument("flags come in --flag value pairs");
  }
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --flag value, got " + key);
    }
    args[key.substr(2)] = argv[i + 1];
  }
  return args;
}

std::uint64_t arg_u64(const Args& args, const std::string& key,
                      std::uint64_t fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : std::stoull(it->second);
}

double arg_double(const Args& args, const std::string& key, double fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : std::stod(it->second);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// Wall and process-CPU time since construction.
struct Stopwatch {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = process_cpu_s();

  double wall_s() const {
    return std::chrono::duration<double>(Clock::now() - wall0).count();
  }
  double cpu_s() const { return process_cpu_s() - cpu0; }
};

// One layer row: the span's wall and CPU, the work it did, and the
// threads it was given (the par_eff denominator).
struct LayerRow {
  std::string name;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double items = 0.0;
  unsigned threads = 1;
};

class Trace {
 public:
  void add(const std::string& name, const Stopwatch& sw, double items,
           unsigned threads) {
    add(name, sw.wall_s(), sw.cpu_s(), items, threads);
  }
  void add(const std::string& name, double wall_s, double cpu_s, double items,
           unsigned threads) {
    rows_.push_back(LayerRow{name, wall_s, cpu_s, items, threads});
  }
  void extra(const std::string& name, double value) {
    extras_.emplace_back(name, value);
  }
  void check(const std::string& name, bool ok) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "perfbench trace: check failed: " << name << "\n";
    }
  }
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  void print() const {
    std::ostringstream out;
    out << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"layers\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const LayerRow& r = rows_[i];
      out << (i ? ", " : "") << "{\"name\": \"" << r.name
          << "\", \"wall_s\": " << num(r.wall_s)
          << ", \"cpu_s\": " << num(r.cpu_s) << ", \"items\": " << num(r.items)
          << ", \"threads\": " << r.threads << "}";
    }
    out << "], \"extra\": {";
    for (std::size_t i = 0; i < extras_.size(); ++i) {
      out << (i ? ", " : "") << "\"" << extras_[i].first
          << "\": " << num(extras_[i].second);
    }
    out << "}}";
    std::cout << out.str() << std::endl;
  }

 private:
  std::vector<LayerRow> rows_;
  std::vector<std::pair<std::string, double>> extras_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// The `generate --store` path at the CLI's defaults, one layer call at a
// time (the same calls, in the same order, as the materialized driver
// and save_run), so the store it writes must be byte-identical.
void trace_generate(const scenario::LongitudinalConfig& cfg, unsigned threads,
                    const std::string& path, Trace& trace) {
  const Stopwatch run_sw;
  scenario::LongitudinalResult result;
  {
    const Stopwatch sw;
    result.world = scenario::build_world(cfg.world);
    trace.add("scenario.world", sw, result.world->registry.domain_count(),
              threads);
  }
  const scenario::World& world = *result.world;
  {
    const Stopwatch sw;
    result.workload = scenario::generate_workload(world, cfg.workload);
    trace.add("scenario.workload", sw, result.workload.schedule.size(),
              threads);
  }
  {
    const Stopwatch sw;
    result.feed = telescope::RSDoSFeed(cfg.inference, cfg.backscatter);
    result.feed.ingest(result.workload.schedule, result.darknet, cfg.feed_seed);
    result.feed_records = result.feed.records().size();
    trace.add("telescope.ingest", sw, result.feed_records, threads);
    trace.extra("telescope.records", result.feed_records);
  }
  {
    const Stopwatch sw;
    result.events = result.feed.events();
    trace.add("telescope.stitch", sw, result.events.size(), threads);
    trace.extra("telescope.events", result.events.size());
  }
  const Stopwatch plan_sw;
  const scenario::SweepPlan plan =
      scenario::derive_sweep_plan(world, result.events, nullptr, nullptr);
  trace.add("scenario.plan", plan_sw, plan.days.size(), threads);
  trace.extra("scenario.plan_sweeps", plan.domains_planned);

  {
    const scenario::PlanRetention retention{plan.daily_keys, plan.window_keys,
                                            plan.ns_seen_keys};
    openintel::SweeperParams sp;
    sp.resolver = cfg.resolver;
    sp.model = cfg.model;
    sp.seed = cfg.sweep_seed;
    const Stopwatch sw;
    const openintel::Sweeper sweeper(world.registry, result.workload.schedule,
                                     sp);
    double fold_wall = 0.0;
    double fold_cpu = 0.0;
    std::vector<double> day_ms;
    std::vector<dns::DomainId> day_domains;
    for (const auto& [day, domains] : plan.days) {
      const Stopwatch day_sw;
      day_domains = domains.sorted_keys();
      sweeper.sweep_domains_batched(
          day, day_domains, exec::global_pool(),
          [&](std::span<const openintel::Measurement> batch) {
            const Stopwatch fold_sw;
            result.store.add_batch(batch, retention);
            result.swept_measurements += batch.size();
            fold_wall += fold_sw.wall_s();
            fold_cpu += fold_sw.cpu_s();
          });
      day_ms.push_back(day_sw.wall_s() * 1e3);
    }
    trace.add("openintel.sweep", sw, result.swept_measurements, threads);
    // The fold runs inside the sweep span, on the calling thread.
    trace.add("openintel.fold", fold_wall, fold_cpu,
              result.swept_measurements, 1);
    trace.extra("openintel.sweep_days", day_ms.size());
    trace.extra("openintel.sweep_day_p50_ms", perfbench::quantile(day_ms, 0.5));
    trace.extra("openintel.sweep_day_max_ms",
                perfbench::quantile(day_ms, 1.0));
  }
  {
    const Stopwatch sw;
    const core::ResilienceClassifier classifier(world.registry, world.census,
                                                world.routes, world.orgs);
    core::JoinPipeline pipeline(world.registry, result.store, classifier,
                                cfg.join);
    result.joined = pipeline.run(result.events);
    result.join_stats = pipeline.stats();
    trace.add("core.join", sw, result.events.size(), threads);
  }
  {
    const Stopwatch sw;
    const std::uint64_t bytes = scenario::save_run(path, cfg, threads, result);
    const double wall = sw.wall_s();
    trace.add("store.write", wall, sw.cpu_s(), bytes, threads);
    trace.extra("store.write_MBps", bytes / wall / 1e6);
  }
  trace.extra("run.wall_s", run_sw.wall_s());
  trace.extra("run.cpu_s", run_sw.cpu_s());
}

void trace_analyze_shards_merge(const scenario::LongitudinalConfig& cfg,
                                unsigned threads, const std::string& dir,
                                Trace& trace) {
  const std::string store_path = dir + "/traced.drs";
  {
    const double bytes = std::filesystem::file_size(store_path);
    const Stopwatch sw;
    const scenario::StoreAnalysis analysis =
        scenario::analyze_store(store_path);
    const double wall = sw.wall_s();
    trace.add("store.analyze", wall, sw.cpu_s(), bytes, threads);
    trace.extra("store.scan_MBps", bytes / wall / 1e6);
    trace.check("analyze joined count", analysis.joined > 0);
  }
  constexpr std::uint32_t kShards = 3;
  std::vector<std::string> shard_paths;
  double wall_sum = 0.0, wall_max = 0.0, cpu_sum = 0.0, swept = 0.0;
  for (std::uint32_t i = 0; i < kShards; ++i) {
    shard_paths.push_back(dir + "/tshard" + std::to_string(i) + ".drs");
    const Stopwatch sw;
    const scenario::ShardRunResult r = scenario::run_shard(
        cfg, scenario::ShardSpec{i, kShards}, threads, shard_paths.back());
    const double wall = sw.wall_s();
    wall_sum += wall;
    wall_max = std::max(wall_max, wall);
    cpu_sum += sw.cpu_s();
    swept += static_cast<double>(r.swept_measurements);
  }
  trace.add("scenario.shard", wall_sum, cpu_sum, swept, threads);
  trace.extra("scenario.shard_skew", wall_max / (wall_sum / kShards));
  {
    const Stopwatch sw;
    const store::MergeStats stats =
        store::merge_stores(dir + "/tmerged.drs", shard_paths);
    const double wall = sw.wall_s();
    trace.add("store.merge", wall, sw.cpu_s(), stats.bytes_written, threads);
    trace.extra("store.merge_MBps", stats.bytes_written / wall / 1e6);
  }
}

void trace_serve(const Args& args, const std::string& store_path,
                 std::uint64_t seed, unsigned threads, Trace& trace) {
  const Stopwatch load_sw;
  const scenario::StoredRun run = scenario::load_run(store_path);
  trace.add("store.load", load_sw, std::filesystem::file_size(store_path),
            threads);
  const Stopwatch build_sw;
  const serve::QueryEngine engine(run);
  trace.add("serve.build", build_sw, engine.nsset_count(), threads);

  serve::WorkloadSpec spec;
  spec.seed = seed;
  spec.day_min = engine.day_min();
  spec.day_max = engine.day_max();
  const std::span<const dns::NssetId> keys = engine.keys();
  constexpr std::uint64_t n_ops = 200000;
  std::vector<serve::Op> ops;
  {
    serve::Workload wl(spec, keys.size(), 0);
    for (std::uint64_t i = 0; i < n_ops; ++i) ops.push_back(wl.next());
  }

  // serve.engine: the op stream as generated, then each query type
  // alone for its per-op cost.
  std::vector<serve::TopEntry> scratch;
  const auto execute = [&](const serve::Op& op, std::uint64_t fp) {
    switch (op.type) {
      case serve::QueryType::PointLookup: {
        const serve::PointResult r = engine.point_lookup(keys[op.key_index]);
        return serve::fold_point_answer(fp, r.found, r.summary,
                                        r.series.size());
      }
      case serve::QueryType::TopK: {
        const std::size_t n = engine.top_k(
            static_cast<serve::TopKMetric>(op.metric), op.k, scratch);
        return serve::fold_top_k_answer(
            fp, std::span<const serve::TopEntry>(scratch.data(), n));
      }
      case serve::QueryType::WindowScan:
        return serve::fold_window_scan_answer(
            fp, engine.window_scan(op.day_lo, op.day_hi));
    }
    return fp;
  };
  std::uint64_t engine_fp = 0;
  {
    const Stopwatch sw;
    for (const serve::Op& op : ops) engine_fp = execute(op, engine_fp);
    trace.add("serve.engine", sw, ops.size(), 1);
  }
  const char* kTypeKeys[serve::kQueryTypeCount] = {
      "serve.point_ns", "serve.topk_ns", "serve.scan_ns"};
  for (std::size_t t = 0; t < serve::kQueryTypeCount; ++t) {
    std::vector<serve::Op> typed;
    for (const serve::Op& op : ops) {
      if (static_cast<std::size_t>(op.type) == t) typed.push_back(op);
    }
    std::uint64_t fp = 0;
    const Stopwatch sw;
    for (const serve::Op& op : typed) fp = execute(op, fp);
    const double wall = sw.wall_s();
    trace.extra(kTypeKeys[t], typed.empty() ? 0.0 : wall * 1e9 / typed.size());
  }

  // net.codec: both sides of every request — request encode, server-side
  // decode, answer encode, client-side decode and fold — with the answers
  // computed beforehand so no engine time is inside the span.
  {
    std::vector<net::WirePointResult> points(ops.size());
    std::vector<std::vector<serve::TopEntry>> tops(ops.size());
    std::vector<serve::WindowScanResult> scans(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const serve::Op& op = ops[i];
      if (op.type == serve::QueryType::PointLookup) {
        const serve::PointResult r = engine.point_lookup(keys[op.key_index]);
        points[i].found = r.found;
        points[i].summary = r.summary;
        points[i].event_count =
            static_cast<std::uint32_t>(r.event_indices.size());
        points[i].series_len = static_cast<std::uint32_t>(r.series.size());
      } else if (op.type == serve::QueryType::TopK) {
        engine.top_k(static_cast<serve::TopKMetric>(op.metric), op.k, tops[i]);
      } else {
        scans[i] = engine.window_scan(op.day_lo, op.day_hi);
      }
    }
    std::vector<std::uint8_t> requests, responses;
    const auto encode_all = [&] {
      requests.clear();
      responses.clear();
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto id = static_cast<std::uint32_t>(i);
        perfbench::encode_op(ops[i], id, requests);
        switch (ops[i].type) {
          case serve::QueryType::PointLookup:
            net::encode_point_ok(id, points[i], responses);
            break;
          case serve::QueryType::TopK:
            net::encode_top_k_ok(id, tops[i], responses);
            break;
          case serve::QueryType::WindowScan:
            net::encode_scan_ok(id, scans[i], responses);
            break;
        }
      }
    };
    encode_all();  // warm-up: the timed pass reuses the buffers' capacity
    const Stopwatch enc_sw;
    encode_all();
    const double enc_wall = enc_sw.wall_s();
    const double enc_cpu = enc_sw.cpu_s();

    std::uint64_t codec_fp = 0;
    std::uint64_t bad = 0;
    std::vector<serve::TopEntry> rows;
    const Stopwatch dec_sw;
    std::size_t req_off = 0, resp_off = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      net::Frame frame;
      std::size_t consumed = 0;
      if (net::decode_frame(std::span(requests).subspan(req_off), frame,
                            consumed) != net::DecodeStatus::Ok) {
        ++bad;
        break;
      }
      req_off += consumed;
      const bool req_ok =
          ops[i].type == serve::QueryType::PointLookup
              ? net::decode_point_lookup(frame).has_value()
          : ops[i].type == serve::QueryType::TopK
              ? net::decode_top_k(frame).has_value()
              : net::decode_window_scan(frame).has_value();
      if (!req_ok) ++bad;
      if (net::decode_frame(std::span(responses).subspan(resp_off), frame,
                            consumed) != net::DecodeStatus::Ok) {
        ++bad;
        break;
      }
      resp_off += consumed;
      if (!perfbench::fold_frame(frame, ops[i], codec_fp, rows)) ++bad;
    }
    const double dec_wall = dec_sw.wall_s();
    const double dec_cpu = dec_sw.cpu_s();
    trace.add("net.codec", enc_wall + dec_wall, enc_cpu + dec_cpu, ops.size(),
              1);
    trace.extra("net.encode_ns", enc_wall * 1e9 / ops.size());
    trace.extra("net.decode_ns", dec_wall * 1e9 / ops.size());
    trace.extra("net.bytes_per_op",
                static_cast<double>(requests.size() + responses.size()) /
                    ops.size());
    trace.count(ops.size(), bad);
    trace.check("codec answers fold to the engine fingerprint",
                codec_fp == engine_fp);
  }

  // net.socket: round trips through an in-process server (the CLI's
  // event-loop count) on one connection, then the open-loop generator.
  net::ServerOptions sopts;
  sopts.threads = 2;
  net::Server server(net::EngineHandle::view(engine, 0), sopts);
  server.start();
  {
    net::Client client;
    client.connect("127.0.0.1", server.port());
    serve::Workload wl(spec, keys.size(), 0);
    constexpr std::uint64_t n = 20000;
    std::vector<double> rtt_us;
    rtt_us.reserve(n);
    std::uint64_t bad = 0;
    const Stopwatch sw;
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto t0 = Clock::now();
      client.queue_op(wl.next(), static_cast<std::uint32_t>(i));
      client.flush();
      const net::Answer& answer = client.recv();
      rtt_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
      if (answer.opcode == net::Opcode::Error ||
          answer.request_id != static_cast<std::uint32_t>(i)) {
        ++bad;
      }
    }
    trace.add("net.socket", sw, n, 1 + sopts.threads);
    trace.extra("net.rtt_p50_us", perfbench::quantile(rtt_us, 0.5));
    trace.count(n, bad);
  }
  {
    perfbench::LoadSpec load;
    load.port = server.port();
    load.connections = 2;
    load.workload = spec;
    load.ops_per_connection = arg_u64(args, "open-ops", 5000);
    load.target_qps = arg_double(args, "qps", 20000.0);
    perfbench::LoadResult r = perfbench::run_load(load);
    trace.extra("net.p90_us", perfbench::quantile(r.latency_us, 0.9));
    trace.extra("net.p99_us", perfbench::quantile(r.latency_us, 0.99));
    trace.extra("net.p999_us", perfbench::quantile(r.latency_us, 0.999));
    trace.extra("net.gen_late_p99_us", perfbench::quantile(r.late_us, 0.99));
    trace.count(r.attempted, r.failed);
  }
  server.stop();
}

int cmd_trace(const Args& args) {
  const std::uint64_t seed = arg_u64(args, "seed", 42);
  const auto threads = static_cast<unsigned>(arg_u64(args, "threads", 4));
  const auto dir_it = args.find("dir");
  if (dir_it == args.end()) {
    std::cerr << "perfbench trace: --dir is required\n";
    return 2;
  }
  const std::string dir = dir_it->second;
  exec::set_global_threads(threads);
  scenario::LongitudinalConfig cfg = scenario::default_longitudinal_config();
  cfg.world.seed = seed;

  Trace trace;
  trace_generate(cfg, threads, dir + "/traced.drs", trace);
  trace_analyze_shards_merge(cfg, threads, dir, trace);
  trace_serve(args, dir + "/traced.drs", seed, threads, trace);
  trace.print();
  return 0;
}

int cmd_load(const Args& args) {
  perfbench::LoadSpec spec;
  spec.port = static_cast<std::uint16_t>(arg_u64(args, "port", 0));
  spec.connections = static_cast<unsigned>(arg_u64(args, "connections", 2));
  spec.workload.seed = arg_u64(args, "seed", 42);
  const std::uint64_t closed_ops = arg_u64(args, "closed-ops", 25000);
  const std::uint64_t open_ops = arg_u64(args, "open-ops", 5000);
  const double qps = arg_double(args, "qps", 20000.0);
  const std::uint64_t reps = arg_u64(args, "reps", 1);

  std::ostringstream out;
  out << "{\"reps\": [";
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    spec.ops_per_connection = closed_ops;
    spec.target_qps = 0.0;
    perfbench::LoadResult closed = perfbench::run_load(spec);
    spec.ops_per_connection = open_ops;
    spec.target_qps = qps;
    perfbench::LoadResult open = perfbench::run_load(spec);
    out << (rep ? ", " : "") << "{\"closed\": {\"attempted\": "
        << closed.attempted << ", \"failed\": " << closed.failed
        << ", \"qps\": " << num(closed.latency_us.size() / closed.wall_s)
        << ", \"fingerprint\": \"" << hex(closed.fingerprint)
        << "\"}, \"open\": {\"attempted\": " << open.attempted
        << ", \"failed\": " << open.failed
        << ", \"p50_us\": " << num(perfbench::quantile(open.latency_us, 0.5))
        << ", \"fingerprint\": \"" << hex(open.fingerprint) << "\"}}";
    for (const auto* r : {&closed, &open}) {
      if (!r->first_error.empty()) {
        std::cerr << "perfbench load: " << r->first_error << "\n";
      }
    }
  }
  out << "]}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  try {
    const Args args = parse_args(argc, argv);
    if (command == "trace") return cmd_trace(args);
    if (command == "load") return cmd_load(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench " << command << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "usage: perfbench trace|load [--flag value ...]\n";
  return 2;
}
