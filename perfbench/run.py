#!/usr/bin/env python3
"""Benchmark harness for ddosrepro: builds the CLI and the benchmark's
helper from source, runs one workload, checks its outputs and prints one
JSON result line.

    python3 perfbench/run.py --workload generate|shard-merge|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden 0-99   # refresh golden.json

--trace 0 drives the user-visible commands as subprocesses, with no
observer installed, and reports the end-to-end metrics. --trace 1 runs
`perfbench trace`, which calls each layer's public entry points and times
them from the outside, and reports the per-layer table. NOTES.md explains
the workloads, the metrics and what each should move.
"""
import argparse
import hashlib
import itertools
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")

THREADS = 4            # --threads for generate/analyze (nproc of the box)
SHARDS = 3
ANALYZE_REPEATS = 5    # analyze is short: several samples per store
SERVE_THREADS = 2      # server event loops = generator connections
CLOSED_OPS = 25000     # per connection, per closed-loop phase
OPEN_OPS = 5000        # per connection, per open-loop phase
OPEN_QPS = 20000.0     # aggregate open-loop rate
PHASES_PER_SESSION = 4  # closed + open phase pairs per server session
LAUNCHES_PER_SESSION = 3  # set-up samples per session (last one serves)
COMMAND_TIMEOUT_S = 60  # any single command; keeps a run well under 180 s

# Each workload cycles through its pattern while the next step still fits
# in --seconds (judged by that step's last duration), and always completes
# the first cycle, so every metric has a sample.
# "gen" is generate + analyze, "shard" is the three shards + merge,
# "session" is server set-up plus closed- and open-loop phases.
PATTERNS = {
    "generate": ["gen", "session", "gen", "shard", "gen", "gen"],
    "shard-merge": ["gen", "shard", "session", "shard", "gen", "shard"],
    "serve": ["gen", "session", "session", "gen", "shard", "session",
              "session"],
}

E2E_UNITS = {
    "generate_s": "s",
    "analyze_s": "s",
    "sharded_generate_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "serve_qps": "1/s",
    "serve_p50_us": "us",
}

# Which process's ru_maxrss is the workload's peak_rss_mb.
RSS_SOURCE = {"generate": "gen", "shard-merge": "shard", "serve": "session"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once and build incrementally; exits non-zero on failure."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return (os.path.join(out, "repo_tools", "ddosrepro"),
            os.path.join(out, "perfbench"), out)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_golden():
    with open(GOLDEN) as f:
        return json.load(f)["seeds"]


class Run:
    """One benchmark run: its working directory, the processes it started
    and the samples and operation counts it collected."""

    def __init__(self, cli, helper, workdir, seed, golden):
        self.cli, self.helper, self.dir, self.seed = cli, helper, workdir, seed
        self.golden = golden
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.live = []
        self.store_digest = None   # first generate store of this run
        self.analyze_digest = None
        self.oracle = None         # in-process serve fingerprints

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"perfbench: FAILED: {what}")
        return ok

    def reap(self, proc):
        """Waits for `proc` (killed after COMMAND_TIMEOUT_S): (exit code,
        peak RSS MB)."""
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def ddosrepro(self, *args):
        """Runs the CLI to completion, stdout to cmd.out: (exit ok, wall s,
        peak RSS MB)."""
        with open(os.path.join(self.dir, "cmd.out"), "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([self.cli, *args], cwd=self.dir,
                                    stdout=out, stderr=subprocess.DEVNULL)
            self.live.append(proc)
            code, rss = self.reap(proc)
            wall = time.perf_counter() - start
        return code == 0, wall, rss

    def expected(self, key, first):
        """The seed's golden digest, else this run's first one."""
        return self.golden[key] if self.golden else first

    def gen(self, sampled=True):
        """generate --store, then analyze it; `sampled` records timings."""
        ok, wall, rss = self.ddosrepro("generate", "--store", "gen.drs",
                                       "--threads", str(THREADS),
                                       "--seed", str(self.seed))
        digest = sha256(os.path.join(self.dir, "gen.drs")) if ok else None
        self.store_digest = self.store_digest or digest
        want = self.expected("store_sha256", self.store_digest)
        good = self.op(ok and digest == want,
                       f"generate store digest {digest} != {want}")
        if good and sampled:
            self.sample("generate_s", wall)
            self.sample("rss.gen", rss)

        for _ in range(ANALYZE_REPEATS):
            ok, wall, _ = self.ddosrepro("analyze", "--store", "gen.drs",
                                         "--threads", str(THREADS))
            digest = sha256(os.path.join(self.dir, "cmd.out")) if ok else None
            self.analyze_digest = self.analyze_digest or digest
            want = self.expected("analyze_sha256", self.analyze_digest)
            good = self.op(ok and digest == want,
                           f"analyze output digest {digest} != {want}")
            if good and sampled:
                self.sample("analyze_s", wall)

    def shard(self):
        walls, rss = [], []
        paths = []
        for i in range(SHARDS):
            paths.append(f"shard{i}.drs")
            ok, wall, peak = self.ddosrepro(
                "generate", "--shard", f"{i}/{SHARDS}", "--store", paths[-1],
                "--threads", str(THREADS), "--seed", str(self.seed))
            if not self.op(ok, f"generate --shard {i}/{SHARDS}"):
                return
            walls.append(wall)
            rss.append(peak)
        ok, merge_wall, peak = self.ddosrepro("merge", "merged.drs", *paths)
        digest = sha256(os.path.join(self.dir, "merged.drs")) if ok else None
        if self.op(ok and digest == self.store_digest,
                   f"merged digest {digest} != generate {self.store_digest}"):
            self.sample("sharded_generate_s", max(walls) + merge_wall)
            self.sample("rss.shard", max(rss + [peak]))

    def launch_server(self):
        """Starts `serve --listen`; returns (proc, port, setup s) or None."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [self.cli, "serve", "--store", "gen.drs", "--listen",
             "127.0.0.1:0", "--threads", str(SERVE_THREADS)],
            cwd=self.dir, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            bufsize=0)
        self.live.append(proc)
        fd, text = proc.stdout.fileno(), b""
        deadline = start + COMMAND_TIMEOUT_S
        while time.perf_counter() < deadline:
            if not select.select([fd], [], [], 1.0)[0]:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            text += chunk
            for line in text.decode(errors="replace").splitlines():
                if line.startswith("listening on "):
                    port = int(line.split()[2].rsplit(":", 1)[1])
                    return proc, port, time.perf_counter() - start
        self.stop_server(proc)
        return None

    def stop_server(self, proc):
        """SIGTERM and reap; returns (exit code, peak RSS MB)."""
        proc.send_signal(signal.SIGTERM)
        result = self.reap(proc)
        proc.stdout.close()
        return result

    def serve_oracle(self):
        """Fingerprints of the in-process drive at the phases' op counts."""
        if self.oracle is None:
            self.oracle = {}
            for phase, ops in (("closed", CLOSED_OPS), ("open", OPEN_OPS)):
                ok, _, _ = self.ddosrepro(
                    "serve", "--store", "gen.drs", "--threads",
                    str(SERVE_THREADS), "--serve-ops", str(ops),
                    "--seed", str(self.seed))
                text = open(os.path.join(self.dir, "cmd.out")).read()
                lines = [l for l in text.splitlines()
                         if l.startswith("fingerprint: ")]
                self.op(ok and len(lines) == 1, "in-process serve drive")
                self.oracle[phase] = lines[0].split()[1] if lines else None
        return self.oracle

    def session(self):
        oracle = self.serve_oracle()
        for launch in range(LAUNCHES_PER_SESSION):
            started = self.launch_server()
            if not self.op(started is not None, "serve --listen start"):
                return
            proc, port, setup = started
            self.sample("setup_s", setup)
            serving = launch == LAUNCHES_PER_SESSION - 1
            if serving:
                self.load(port, oracle)
            code, rss = self.stop_server(proc)
            # The CLI installs its SIGTERM handler just after printing the
            # listening line, so a server stopped right away may die of
            # the signal instead of shutting down; one that served must
            # exit cleanly.
            self.op(code == 0 or (code == -signal.SIGTERM and not serving),
                    f"serve --listen shutdown (exit {code})")
        self.sample("rss.session", rss)

    def load(self, port, oracle):
        try:
            proc = subprocess.run(
                [self.helper, "load", "--port", str(port),
                 "--seed", str(self.seed),
                 "--connections", str(SERVE_THREADS),
                 "--closed-ops", str(CLOSED_OPS), "--open-ops", str(OPEN_OPS),
                 "--qps", str(OPEN_QPS), "--reps", str(PHASES_PER_SESSION)],
                cwd=self.dir, capture_output=True, text=True,
                timeout=COMMAND_TIMEOUT_S)
            reps = (json.loads(proc.stdout)["reps"] if proc.returncode == 0
                    else [])
        except (subprocess.TimeoutExpired, ValueError):
            reps = []
        if not self.op(bool(reps), "load generator"):
            return
        for rep in reps:
            closed, open_ = rep["closed"], rep["open"]
            for phase in (closed, open_):
                self.attempted += phase["attempted"]
                self.failed += phase["failed"]
            if self.op(closed["fingerprint"] == oracle["closed"],
                       f"closed-loop fingerprint {closed['fingerprint']}"):
                self.sample("serve_qps", closed["qps"])
            if self.op(open_["fingerprint"] == oracle["open"],
                       f"open-loop fingerprint {open_['fingerprint']}"):
                self.sample("serve_p50_us", open_["p50_us"])

    def stop_all(self):
        for proc in list(self.live):
            proc.kill()
            proc.wait()
        self.live.clear()


def median(values):
    return statistics.median(values) if values else None


def end_to_end(run, workload, seconds):
    pattern = PATTERNS[workload]
    # Warm-up: the first generate after idle runs slow; check, don't time.
    run.gen(sampled=False)
    start = time.perf_counter()
    last = {}  # step -> its last duration
    for i in itertools.count():
        step = pattern[i % len(pattern)]
        now = time.perf_counter()
        if i >= len(pattern) and now + last[step] - start > seconds:
            break
        getattr(run, step)()
        last[step] = time.perf_counter() - now
    run.samples["peak_rss_mb"] = run.samples.get(
        "rss." + RSS_SOURCE[workload], [])
    for name in E2E_UNITS:
        log(f"perfbench: {name} samples: " +
            " ".join(f"{v:.6g}" for v in run.samples.get(name, [])))
    return {name: median(run.samples.get(name, [])) for name in E2E_UNITS}


# The layers `perfbench trace` times, in call order. Each row reports
# LAYER_FIELDS; EXTRA_UNITS are the layers' own counts and rates.
LAYERS = ["scenario.world", "scenario.workload", "telescope.ingest",
          "telescope.stitch", "scenario.plan", "openintel.sweep",
          "openintel.fold", "core.join", "store.write", "store.analyze",
          "scenario.shard", "store.merge", "store.load", "serve.build",
          "serve.engine", "net.codec", "net.socket"]
LAYER_FIELDS = {"wall_ms": "ms", "cpu_ms": "ms", "items": "count",
                "items_per_s": "1/s", "par_eff": "ratio"}
EXTRA_UNITS = {
    "telescope.records": "count", "telescope.events": "count",
    "scenario.plan_sweeps": "count", "openintel.sweep_days": "count",
    "openintel.sweep_day_p50_ms": "ms", "openintel.sweep_day_max_ms": "ms",
    "store.write_MBps": "MB/s", "store.scan_MBps": "MB/s",
    "scenario.shard_skew": "ratio", "store.merge_MBps": "MB/s",
    "serve.point_ns": "ns", "serve.topk_ns": "ns", "serve.scan_ns": "ns",
    "net.encode_ns": "ns", "net.decode_ns": "ns", "net.bytes_per_op": "B",
    "net.rtt_p50_us": "us", "net.p90_us": "us", "net.p99_us": "us",
    "net.p999_us": "us",
    "net.gen_late_p99_us": "us",
    "run.par_eff": "ratio", "run.trace_overhead_s": "s",
    "run.layer_coverage": "ratio",
}
# The traced generate's top-level spans (fold is inside sweep).
GENERATE_LAYERS = LAYERS[:LAYERS.index("store.write") + 1]
GENERATE_LAYERS.remove("openintel.fold")
PER_LAYER_UNITS = {f"{layer}.{field}": unit for layer in LAYERS
                   for field, unit in LAYER_FIELDS.items()}
PER_LAYER_UNITS.update(EXTRA_UNITS)


def traced(run, seconds):
    """The per-layer table: medians over traced passes, each checked
    against the CLI's store bytes."""
    run.gen()
    generate_s = median(run.samples.get("generate_s", [])) or 0.0
    passes = []
    start = time.perf_counter()
    pass_s = 0.0
    while not passes or time.perf_counter() + pass_s - start <= seconds:
        pass_start = time.perf_counter()
        try:
            proc = subprocess.run(
                [run.helper, "trace", "--seed", str(run.seed),
                 "--dir", run.dir, "--threads", str(THREADS),
                 "--open-ops", str(OPEN_OPS), "--qps", str(OPEN_QPS)],
                cwd=run.dir, capture_output=True, text=True,
                timeout=COMMAND_TIMEOUT_S)
            result = json.loads(proc.stdout) if proc.returncode == 0 else None
        except (subprocess.TimeoutExpired, ValueError):
            result = None
        if not run.op(result is not None, "perfbench trace"):
            break
        run.attempted += result["attempted"]
        run.failed += result["failed"]
        for name in ("traced.drs", "tmerged.drs"):
            digest = sha256(os.path.join(run.dir, name))
            run.op(digest == run.store_digest,
                   f"{name} digest {digest} != generate {run.store_digest}")
        values = {}
        for row in result["layers"]:
            name, wall, cpu = row["name"], row["wall_s"], row["cpu_s"]
            values.update({
                f"{name}.wall_ms": wall * 1e3,
                f"{name}.cpu_ms": cpu * 1e3,
                f"{name}.items": row["items"],
                f"{name}.items_per_s": row["items"] / wall,
                f"{name}.par_eff": cpu / (wall * row["threads"]),
            })
        extra = result["extra"]
        run_wall = extra.pop("run.wall_s")
        run_cpu = extra.pop("run.cpu_s")
        values.update(extra)
        values["run.par_eff"] = run_cpu / (run_wall * THREADS)
        values["run.trace_overhead_s"] = run_wall - generate_s
        values["run.layer_coverage"] = sum(
            values[f"{n}.wall_ms"] for n in GENERATE_LAYERS) / (run_wall * 1e3)
        passes.append(values)
        pass_s = time.perf_counter() - pass_start
    return {name: median([p[name] for p in passes if name in p])
            for name in PER_LAYER_UNITS}


def write_golden(spec):
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    cli, helper, out = build()
    workdir = os.path.join(out, "golden")
    os.makedirs(workdir, exist_ok=True)
    try:
        table = load_golden() if os.path.exists(GOLDEN) else {}
        for seed in seeds:
            run = Run(cli, helper, workdir, seed, None)
            ok1, _, _ = run.ddosrepro("generate", "--store", "gen.drs",
                                      "--threads", str(THREADS),
                                      "--seed", str(seed))
            ok2, _, _ = run.ddosrepro("analyze", "--store", "gen.drs",
                                      "--threads", str(THREADS))
            if not (ok1 and ok2):
                sys.exit(f"perfbench: seed {seed} failed")
            table[str(seed)] = {
                "store_sha256": sha256(os.path.join(workdir, "gen.drs")),
                "analyze_sha256": sha256(os.path.join(workdir, "cmd.out")),
            }
            log(f"seed {seed}: {table[str(seed)]['store_sha256']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ordered = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(GOLDEN, "w") as f:
        json.dump({"threads": THREADS, "seeds": ordered}, f, indent=1)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PATTERNS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", metavar="LO-HI")
    args = parser.parse_args()
    if args.write_golden:
        write_golden(args.write_golden)
        return
    if not args.workload:
        parser.error("--workload is required")

    cli, helper, out = build()
    # A SIGTERM still stops the servers this run started (via finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    workdir = os.path.join(
        out, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    golden = load_golden().get(str(args.seed))
    run = Run(cli, helper, workdir, args.seed, golden)
    try:
        if args.trace:
            values, units = traced(run, args.seconds), PER_LAYER_UNITS
        else:
            values = end_to_end(run, args.workload, args.seconds)
            units = E2E_UNITS
    finally:
        run.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None:
            run.op(False, f"no sample for {name}")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
