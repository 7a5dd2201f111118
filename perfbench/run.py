#!/usr/bin/env python3
"""Namer benchmark: train, scan, serve and incremental-update workloads.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a source checkout.  It builds the namer CLI and the
benchmark worker (perfbench/perfbench.ml) with dune, generates the
workload's inputs from the seed, sets the workload up several times,
measures it in fresh processes for about T seconds, checks every output
and prints one JSON object as the last line of stdout: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  Everything
it writes goes under .bench_build/ in the checkout.  See README.md.
"""

import argparse
import bisect
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
JOBS = len(os.sched_getaffinity(0))
CHILD_TIMEOUT = 170

# Sizes of each workload's inputs.  The selftest shrinks them.
SIZES = {
    "train_files": 2000,
    "scan_files": 5000,
    "model_files": 500,
    "serve_cached": 16,
    "serve_fresh": 250,
    "update_base": 2000,
    "update_added": 50,
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


class Failure(Exception):
    pass


def build():
    """Build the CLI and the worker from source; None when that fails."""
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        log("no dune-project at the checkout root: nothing to build")
        return None
    os.makedirs(BUILD, exist_ok=True)
    bdir = os.path.join(BUILD, "dune")
    env = dict(os.environ, DUNE_CACHE="disabled", XDG_CACHE_HOME=os.path.join(BUILD, "cache"))
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", bdir,
         "./perfbench/perfbench.exe", "./bin/namer_cli.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        log(f"build failed with code {r.returncode}")
        return None
    return (os.path.join(bdir, "default", "perfbench", "perfbench.exe"),
            os.path.join(bdir, "default", "bin", "namer_cli.exe"))


class Bench:
    def __init__(self, exe, cli, work, seed, seconds, corrupt):
        self.exe, self.cli, self.work = exe, cli, work
        self.seed, self.seconds, self.corrupt = seed, seconds, corrupt
        self.env = dict(os.environ,
                        XDG_STATE_HOME=os.path.join(work, "state"),
                        XDG_CACHE_HOME=os.path.join(work, "cache-home"))
        self.daemon = None

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def worker(self, *args):
        """One fresh worker process; its last stdout line, as JSON."""
        cmd = [self.exe] + [str(a) for a in args]
        r = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT)
        if r.returncode != 0:
            raise Failure(f"{' '.join(cmd[:2])} exited {r.returncode}: {r.stderr.strip()[-2000:]}")
        return json.loads(r.stdout.strip().splitlines()[-1])

    def gen(self, lang, files, seed, out, *extra):
        self.worker("gen", "--lang", lang, "--files", files, "--seed", seed,
                    "--out", out, *extra)

    # ---- serve daemon ----
    def start_daemon(self, model):
        sock = self.path("namer.sock")
        cache = self.path("scan-cache")
        shutil.rmtree(cache, ignore_errors=True)
        with open(self.path("daemon.log"), "ab") as err:
            self.daemon = subprocess.Popen(
                [self.cli, "serve", "--model", model, "--socket", "namer.sock",
                 "--cache-dir", "scan-cache", "--jobs", str(JOBS), "--no-ledger"],
                cwd=self.work, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
        deadline = time.time() + 30
        while not os.path.exists(sock):
            if self.daemon.poll() is not None or time.time() > deadline:
                raise Failure("the serve daemon did not start (see daemon.log)")
            time.sleep(0.005)

    def daemon_hwm_kb(self):
        with open(f"/proc/{self.daemon.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop_daemon(self):
        if self.daemon is None:
            return
        d, self.daemon = self.daemon, None
        if d.poll() is None:
            d.send_signal(signal.SIGTERM)
            try:
                d.wait(timeout=20)
            except subprocess.TimeoutExpired:
                d.kill()
                d.wait()


class StealClock:
    """How long this VM was stalled by the hypervisor: the time at least one
    of its vCPUs was ready to run while the host ran another machine on it
    ("steal" in /proc/stat), sampled every PERIOD in a background thread.
    Every domain of an OCaml 5 process stops at each minor collection until
    the others reach it, so steal on either vCPU stalls the whole process.
    Within a sample, the vCPUs' steal is taken as independent: the share of
    it with some vCPU stolen is 1 - prod(1 - share of vCPU i).  On a shared
    host steal swings within a minute from nothing to more than half of an
    operation's wall time, so the benchmark reports each time net of it:
    what the operation takes on a machine of its own."""

    PERIOD = 0.05  # seconds between samples
    WINDOW = 1.0   # shortest span a stall rate is taken over; steal ticks in 10 ms

    def __init__(self):
        self.tick = 1.0 / os.sysconf("SC_CLK_TCK")
        self.samples = []

    def steal_s(self):
        """Each vCPU's steal so far, in seconds."""
        try:
            with open("/proc/stat") as f:
                cpus = [l.split() for l in f if l.startswith("cpu") and not l.startswith("cpu ")]
        except OSError:
            return []
        return [int(c[8]) * self.tick for c in cpus if len(c) > 8]

    def _sample(self):
        last_t, last = time.time(), self.steal_s()
        stalled = 0.0
        while not self.done.wait(self.PERIOD):
            t, cur = time.time(), self.steal_s()
            running = 1.0
            for a, b in zip(last, cur):
                running *= 1.0 - min(1.0, (b - a) / (t - last_t))
            stalled += (1.0 - running) * (t - last_t)
            self.samples.append((t, stalled))
            last_t, last = t, cur

    def start(self):
        self.samples = [(time.time(), 0.0)]
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._sample, daemon=True)
        self.thread.start()

    def stop(self):
        self.done.set()
        self.thread.join()

    def at(self, t):
        """Stalled seconds up to instant t, interpolated between samples."""
        xs = self.samples[:]
        i = bisect.bisect_left(xs, (t,))
        if i == 0:
            return xs[0][1]
        if i == len(xs):
            return xs[-1][1]
        (t0, s0), (t1, s1) = xs[i - 1], xs[i]
        return s0 + (s1 - s0) * (t - t0) / (t1 - t0)

    def net(self, t0, dt):
        """The dt seconds from instant t0, net of the stall: at the stall
        rate over that span, widened to WINDOW if shorter.  Kept at 10% of
        dt or more."""
        pad = max(0.0, (self.WINDOW - dt) / 2)
        rate = (self.at(t0 + dt + pad) - self.at(t0 - pad)) / (dt + 2 * pad)
        return dt * max(0.1, 1.0 - rate)

    def net_ms(self, window, ms):
        """An operation's ms over a worker's [start, end] window, net of the stall."""
        return self.net(window[0], ms / 1e3) * 1e3


CLOCK = StealClock()


def settle():
    """Flush pending writes and file deletions to disk, untimed: before
    each set-up, after it and at the end of a run, so that the write-back
    of one run's or set-up's files does not land inside another's measured
    window."""
    os.sync()


def median(xs):
    return statistics.median(xs)


def percentile(xs, p):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(len(xs) * p / 100.0))]


def tail(xs):
    """(label, value): the highest of p99.9/p99/p95/p90/p50 with at least
    ten samples beyond it; the slowest sample when there are too few."""
    n = len(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return f"p{p:g}", percentile(xs, p)
    return "max", max(xs)


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# Reference values the output checks compare against.

EXPECTED_FILE = os.path.join(HERE, "expected.json")


def recorded(workload):
    """The values recorded for a workload, by seed (see --record)."""
    try:
        with open(EXPECTED_FILE) as f:
            return json.load(f).get(workload, {})
    except FileNotFoundError:
        return {}


def corrupt_if(b, value):
    """The selftest's corruption: a value no correct run produces."""
    return ("corrupted-" + value) if b.corrupt else value


# ---------------------------------------------------------------------------
# Workloads.  Each has a setup (repeated, timed), an operation (one fresh
# process, timed inside), a reference for its output check and a traced
# replay.

class Workload:
    name = ""
    reps = 1  # complete set-ups per untraced run; setup_s is their median

    def __init__(self, b):
        self.b = b

    def setup(self):
        raise NotImplementedError

    def timed_setup(self, reps):
        times = []
        for _ in range(reps):
            self.teardown()
            for entry in os.listdir(self.b.work):
                p = self.b.path(entry)
                shutil.rmtree(p) if os.path.isdir(p) else os.remove(p)
            settle()
            t0 = time.time()
            self.setup()
            times.append((t0, time.time() - t0))
            settle()
        return times

    def teardown(self):
        pass

    def reference(self, jobs1=None):
        """(field, value) an operation's output must carry: the value
        recorded for the seed, else one computed now by the reference route."""
        value = recorded(self.name).get(str(self.b.seed))
        if value is not None:
            return (self.field, value)
        log(f"seed {self.b.seed} is not recorded: {self.route}")
        return self.computed_reference(jobs1)

    def check(self, out, ref):
        field, value = ref
        return corrupt_if(self.b, out[field]) == value

    def replay_matches(self, out, tr):
        return corrupt_if(self.b, tr[self.replay_field]) == out[self.replay_field]


# Every workload's files are a fixed snapshot, as `namer corpus` writes it
# (seed 42, or 42 + 7919 for a second, unseen corpus); the workload seed
# draws the order in which the repos are met and, for serve, the requests.
# Mining and scanning costs move by up to a factor of two between corpora
# of different seeds, which would drown any change to the code in the
# spread; a new order keeps the work and still changes every interner id,
# model hash and report path.
SNAPSHOT = 42
UNSEEN = SNAPSHOT + 7919


class Train(Workload):
    name = "train-py2k"
    reps = 7

    def setup(self):
        self.b.gen("python", SIZES["train_files"], SNAPSHOT, "corpus",
                   "--order-seed", self.b.seed)

    def op(self, jobs):
        return self.b.worker("train", "--dir", "corpus", "--model", "model.nmdl", "--jobs", jobs)

    field = "model_hash"
    replay_field = "patterns"
    route = "checking the pattern set recorded for the snapshot"

    def computed_reference(self, jobs1=None):
        # the pattern set does not depend on the order seed
        patterns = recorded(self.name).get("patterns")
        if patterns is not None:
            return ("patterns", patterns)
        return ("model_hash", (jobs1 or self.op(1))["model_hash"])

    def replay(self):
        return self.b.worker("trace", "--workload", "train", "--dir", "corpus")


class Scan(Workload):
    name = "scan-py5k"
    reps = 2

    def setup(self):
        b = self.b
        b.gen("python", SIZES["model_files"], SNAPSHOT, "model-corpus")
        b.worker("train", "--dir", "model-corpus", "--model", "model.nmdl", "--jobs", JOBS)
        b.gen("python", SIZES["scan_files"], UNSEEN, "corpus", "--order-seed", b.seed)

    def op(self, jobs):
        return self.b.worker("scan", "--model", "model.nmdl", "--dir", "corpus", "--jobs", jobs)

    field = replay_field = "digest"
    route = "the reference is a --jobs 1 scan"

    def computed_reference(self, jobs1=None):
        return ("digest", (jobs1 or self.op(1))["digest"])

    def replay(self):
        return self.b.worker("trace", "--workload", "scan", "--model", "model.nmdl",
                             "--dir", "corpus")


class Update(Workload):
    name = "update-java"
    reps = 2

    def setup(self):
        b = self.b
        b.gen("java", SIZES["update_base"], SNAPSHOT, "base", "--order-seed", b.seed)
        b.worker("partial", "--dir", "base", "--out", "base.nprt", "--jobs", JOBS)
        b.gen("java", SIZES["update_added"], UNSEEN, "added")

    def op(self, jobs):
        return self.b.worker("update", "--partial", "base.nprt", "--add", "added",
                             "--model", "updated.nmdl", "--partial-out", "updated.nprt",
                             "--jobs", jobs)

    # The merge contract: the updated model equals a direct train over base
    # plus added.  Compared on the id-free pattern set, since the model hash
    # also encodes interner id order (see README.md); the pattern set does
    # not depend on the order seed, so one value is recorded for all seeds.
    field = replay_field = "patterns"
    route = "the reference is a direct train over base plus added"

    def reference(self, jobs1=None):
        value = recorded(self.name).get("patterns")
        if value is not None:
            return ("patterns", value)
        log(self.route)
        return self.computed_reference()

    def computed_reference(self, jobs1=None):
        return ("patterns", self.b.worker("direct", "--base", "base", "--add", "added",
                                          "--jobs", JOBS)["patterns"])

    def replay(self):
        return self.b.worker("trace", "--workload", "update", "--partial", "base.nprt",
                             "--add", "added", "--partial-out", "traced.nprt")


class Serve(Workload):
    name = "serve-mixed"
    reps = 1  # each set-up writes about 13,850 files; see README.md

    # whole 50-file repos as `namer corpus` writes them: the warmed ones,
    # the never-seen ones the loop draws, and one for the request alone
    def n_pool(self):
        return SIZES["serve_cached"] + SIZES["serve_fresh"] + 1

    def setup(self):
        b = self.b
        b.gen("python", SIZES["model_files"], SNAPSHOT, "model-corpus")
        b.worker("train", "--dir", "model-corpus", "--model", "model.nmdl", "--jobs", JOBS)
        # the same repos for every seed, which draws the request stream:
        # which repos are warmed would otherwise change the work per seed
        b.gen("python", self.n_pool() * 50, UNSEEN, "pool")
        b.start_daemon("model.nmdl")
        out = b.worker("warm", "--socket", "namer.sock", "--lang", "python",
                       "--pool", "pool", "--cached", SIZES["serve_cached"])
        if out["failed"]:
            raise Failure(f"{out['failed']} warm-up requests failed")

    def teardown(self):
        self.b.stop_daemon()

    def load(self, trace):
        b = self.b
        out = b.worker("client", "--socket", "namer.sock", "--model", "model.nmdl",
                       "--lang", "python", "--pool", "pool", "--cached", SIZES["serve_cached"],
                       "--seed", b.seed, "--seconds", b.seconds, "--conns", JOBS,
                       "--jobs", JOBS, "--trace", trace, "--corrupt", 1 if b.corrupt else 0)
        out["daemon_hwm_kb"] = b.daemon_hwm_kb()
        return out


WORKLOADS = {w.name: w for w in (Train, Scan, Serve, Update)}

# ---------------------------------------------------------------------------
# Measurement.

E2E = [("setup_s", "s"), ("files_per_s", "files/s"), ("p50_ms", "ms"),
       ("tail_ms", "ms"), ("peak_rss_mb", "MB")]


def measure_ops(w, b):
    """Operations in fresh processes, started while the run's seconds last."""
    outs = []
    t0 = time.perf_counter()
    while not outs or time.perf_counter() - t0 < b.seconds:
        outs.append(w.op(JOBS))
    return outs


def serve_outcome(out):
    """(correct, attempted, failed) of a serve load: every refused, failed
    or mismatched response fails; files skipped inside ok responses count
    as failed too."""
    bad = out["failed"] + out["overloaded_responses"] + out["mismatched"]
    return bad == 0, out["requests"], bad + out["skipped"]


def run_untraced(w, b, setup_times):
    """The end-to-end metrics.  Every time is net of the hypervisor's stall
    (StealClock); the raw wall times are printed beside them."""
    if isinstance(w, Serve):
        out = w.load(0)
        t_loop = out["loop_at"][0]
        raw, lat = [], []
        for c in ("cached", "uncached", "inline"):
            for at, ms in zip(out[f"{c}_at_ms"], out[f"{c}_ms"]):
                raw.append(ms)
                lat.append(CLOCK.net(t_loop + at / 1e3, ms / 1e3) * 1e3)
        # a fixed percentile: a 10 s loop sends 300 to 1,100 requests here,
        # so the highest percentile with ten samples beyond it would flip
        # between p95 and p99 from run to run
        label, tail_v = "p95", percentile(lat, 95.0)
        correct, attempted, failed = serve_outcome(out)
        wall = out["wall_s"]
        # under the seeded mix, files covered per second carries the rate
        # of requests, weighted by their size
        m = {"files_per_s": out["files_served"] / CLOCK.net(t_loop, wall),
             "p50_ms": median(lat), "tail_ms": tail_v,
             "peak_rss_mb": out["daemon_hwm_kb"] / 1024.0}
        print(f"serve-mixed: {out['loop_requests']} requests "
              f"({out['loop_requests'] / wall:.1f}/s) in {wall:.2f}s over {JOBS} "
              f"connections{', never-seen repos used up' if out['exhausted'] else ''}; "
              f"tail_ms is {label} of {len(lat)} samples; "
              f"{out['failed']} failed, {out['overloaded_responses']} overloaded, "
              f"{out['mismatched']} mismatched, {out['skipped']} files skipped")
        print(f"raw wall: p50 {median(raw):.3f} ms, p95 {percentile(raw, 95.0):.3f} ms, "
              f"{out['files_served'] / wall:.1f} files/s")
    else:
        outs = measure_ops(w, b)
        ref = w.reference()
        walls = [CLOCK.net_ms(o["wall_at"], o["wall_ms"]) for o in outs]
        label, tail_v = tail(walls)
        bad = [o for o in outs if not w.check(o, ref)]
        skipped = sum(o["skipped"] for o in outs)
        # every file of an operation is an attempt; a skipped file fails
        attempted = sum(o["files"] for o in outs)
        failed = len(bad) + skipped
        correct = not bad
        # files the output covers per second of compute, model and
        # partial file reads and writes excluded; p50_ms includes them
        m = {"files_per_s": median(o["covered_files"] * 1e3
                                   / CLOCK.net_ms(o["compute_at"], o["compute_ms"])
                                   for o in outs),
             "p50_ms": median(walls), "tail_ms": tail_v,
             "peak_rss_mb": median(o["hwm_kb"] for o in outs) / 1024.0}
        print(f"{w.name}: {len(outs)} operations at --jobs {JOBS}, tail_ms is {label}; "
              f"{len(bad)} failed the output check, {skipped} files skipped")
        print("raw wall: " + ", ".join(f"{o['wall_ms']:.1f}" for o in outs)
              + " ms; net of stall: " + ", ".join(f"{x:.1f}" for x in walls)
              + " ms; peak RSS: " + ", ".join(f"{o['hwm_kb'] / 1024:.1f}" for o in outs) + " MB")
    setup_net = [CLOCK.net(t0, dt) for t0, dt in setup_times]
    m["setup_s"] = median(setup_net)
    print(f"setup: {len(setup_times)} set-ups, raw "
          + ", ".join(f"{dt:.3f}s" for _, dt in setup_times)
          + "; net of stall " + ", ".join(f"{x:.3f}s" for x in setup_net))
    return correct, attempted, failed, {k: metric(m[k], u) for k, u in E2E}


# ---- per-layer metrics ----

LAYERS_PER_FILE = ["pylang.parse", "pylang.lower", "analysis.analyze",
                   "javalang.parse", "javalang.lower", "analysis.java_analyze"]
LAYERS_PER_STMT = ["namepath.astplus", "namepath.extract"]
KINDS = ["consistency", "confusing", "ordering"]

PER_LAYER = (
    [(f"{l}.self_ms_per_file", "ms/file") for l in LAYERS_PER_FILE]
    + [(f"{l}.alloc_kb_per_file", "KB/file") for l in LAYERS_PER_FILE]
    + [(f"{l}.self_ms_per_stmt", "ms/stmt") for l in LAYERS_PER_STMT]
    + [(f"{l}.alloc_kb_per_stmt", "KB/stmt") for l in LAYERS_PER_STMT]
    + [("namepath.interner_ends", "count"),
       ("core.load.self_ms_per_file", "ms/file"), ("core.load.bytes", "B"),
       ("core.of_refs.self_ms", "ms"), ("core.finalize.self_ms", "ms"),
       ("features.extract.self_ms", "ms"), ("features.extract.alloc_mb", "MB"),
       ("mining.pairs.self_ms", "ms"), ("mining.pairs.alloc_mb", "MB"),
       ("mining.mine.self_ms", "ms"), ("mining.mine.share", "ratio")]
    + [(f"mining.mine.{k}.{q}", u) for k in KINDS
       for q, u in (("self_ms", "ms"), ("alloc_mb", "MB"), ("candidates", "count"),
                    ("kept", "count"), ("kept_ratio", "ratio"))]
    + [("pattern.match.self_ms_per_stmt", "ms/stmt"),
       ("pattern.match.alloc_kb_per_stmt", "KB/stmt"),
       ("pattern.match.candidates_per_stmt", "count/stmt"),
       ("pattern.match.violation_ratio", "ratio"),
       ("model.save.self_ms", "ms"), ("model.save.bytes", "B"),
       ("model.load.self_ms", "ms"), ("model.load.bytes", "B"),
       ("model.partial_load.self_ms", "ms"), ("model.partial_load.bytes", "B"),
       ("model.partial_merge.self_ms", "ms"),
       ("model.partial_save.self_ms", "ms"), ("model.partial_save.bytes", "B"),
       ("parallel.speedup", "ratio"), ("parallel.wall_jobs1_ms", "ms"),
       ("parallel.wall_jobsn_ms", "ms")]
    + [(f"serve.{c}.{q}", "ms") for c in ("cached", "uncached", "inline")
       for q in ("p50_ms", "tail_ms")]
    + [("serve.rps", "1/s"),
       ("serve.uncached_alone_ms", "ms"), ("serve.lock_wait_ms", "ms"),
       ("serve.cache_hits", "count"), ("serve.cache_misses", "count"),
       ("serve.hit_ratio", "ratio"), ("serve.overloaded", "count"),
       ("trace.wall_ms", "ms"), ("trace.self_ms", "ms"),
       ("trace.unattributed_ms", "ms"), ("trace.unattributed_share", "ratio"),
       ("trace.overhead_ms", "ms")]
)


def layer_metrics(tr, jobs_n, jobs_1):
    """Per-layer values from one traced replay and its untraced twins."""
    v = {}
    spans = tr["spans"]

    def self_ms(name):
        return spans.get(name, {}).get("self_ms", 0.0)

    def alloc_kb(name):
        return spans.get(name, {}).get("alloc_kb", 0.0)

    files, stmts = max(tr["files"], 1), max(tr["stmts"], 1)
    for l in LAYERS_PER_FILE:
        n = spans.get(l, {}).get("calls", 0)
        v[f"{l}.self_ms_per_file"] = self_ms(l) / n if n else 0.0
        v[f"{l}.alloc_kb_per_file"] = alloc_kb(l) / n if n else 0.0
    for l in LAYERS_PER_STMT:
        v[f"{l}.self_ms_per_stmt"] = self_ms(l) / stmts
        v[f"{l}.alloc_kb_per_stmt"] = alloc_kb(l) / stmts
    v["namepath.interner_ends"] = tr["interner_ends"]
    v["core.load.self_ms_per_file"] = self_ms("core.load") / files
    v["core.load.bytes"] = tr["bytes_loaded"]
    v["core.of_refs.self_ms"] = self_ms("core.of_refs")
    v["core.finalize.self_ms"] = self_ms("core.finalize")
    v["features.extract.self_ms"] = self_ms("features.extract")
    v["features.extract.alloc_mb"] = alloc_kb("features.extract") / 1024.0
    v["mining.pairs.self_ms"] = self_ms("mining.pairs")
    v["mining.pairs.alloc_mb"] = alloc_kb("mining.pairs") / 1024.0
    mine = 0.0
    for k in KINDS:
        name = f"mining.mine.{k}"
        mined = tr["mined"].get(k, {"candidates": 0, "kept": 0})
        mine += self_ms(name)
        v[f"{name}.self_ms"] = self_ms(name)
        v[f"{name}.alloc_mb"] = alloc_kb(name) / 1024.0
        v[f"{name}.candidates"] = mined["candidates"]
        v[f"{name}.kept"] = mined["kept"]
        v[f"{name}.kept_ratio"] = mined["kept"] / mined["candidates"] if mined["candidates"] else 0.0
    v["mining.mine.self_ms"] = mine
    v["mining.mine.share"] = mine / tr["wall_ms"]
    matched = max(tr["stmts_matched"], 1)
    v["pattern.match.self_ms_per_stmt"] = self_ms("pattern.match") / matched
    v["pattern.match.alloc_kb_per_stmt"] = alloc_kb("pattern.match") / matched
    v["pattern.match.candidates_per_stmt"] = tr["candidates"] / matched
    v["pattern.match.violation_ratio"] = (tr["violations"] / tr["candidates"]
                                          if tr["candidates"] else 0.0)
    v["model.save.self_ms"] = jobs_n.get("save_ms", 0.0)
    v["model.save.bytes"] = jobs_n.get("model_bytes", 0) if "save_ms" in jobs_n else 0
    v["model.load.self_ms"] = self_ms("model.load")
    # the model the replay loaded: the one the operation (scan) or the
    # client (serve) loaded
    v["model.load.bytes"] = (tr.get("model_bytes", jobs_n.get("model_bytes", 0))
                             if "model.load" in spans else 0)
    v["model.partial_load.self_ms"] = self_ms("model.partial_load")
    v["model.partial_load.bytes"] = jobs_n.get("partial_bytes", 0)
    v["model.partial_merge.self_ms"] = self_ms("model.partial_merge")
    v["model.partial_save.self_ms"] = self_ms("model.partial_save")
    v["model.partial_save.bytes"] = jobs_n.get("partial_out_bytes", 0)
    v["parallel.wall_jobs1_ms"] = jobs_1["wall_ms"]
    v["parallel.wall_jobsn_ms"] = jobs_n["wall_ms"]
    v["parallel.speedup"] = jobs_1["wall_ms"] / jobs_n["wall_ms"]
    # the replay runs on one domain, so its untraced twin is the --jobs 1 run
    v["trace.wall_ms"] = tr["wall_ms"]
    v["trace.self_ms"] = tr["self_ms"]
    v["trace.unattributed_ms"] = tr["wall_ms"] - tr["self_ms"]
    v["trace.unattributed_share"] = (tr["wall_ms"] - tr["self_ms"]) / tr["wall_ms"]
    v["trace.overhead_ms"] = tr["wall_ms"] - jobs_1["wall_ms"]
    return v


def serve_layer_metrics(out):
    v = {"serve.rps": out["loop_requests"] / out["wall_s"]}
    for c in ("cached", "uncached", "inline"):
        xs = out[f"{c}_ms"]
        v[f"serve.{c}.p50_ms"] = median(xs) if xs else 0.0
        v[f"serve.{c}.tail_ms"] = tail(xs)[1] if xs else 0.0
        print(f"serve.{c}: {len(xs)} requests, tail is {tail(xs)[0] if xs else '-'}")
    v["serve.uncached_alone_ms"] = out["uncached_alone_ms"]
    v["serve.lock_wait_ms"] = v["serve.uncached.p50_ms"] - out["uncached_alone_ms"]
    v["serve.cache_hits"] = out["cache_hits"]
    v["serve.cache_misses"] = out["cache_misses"]
    seen = out["cache_hits"] + out["cache_misses"]
    v["serve.hit_ratio"] = out["cache_hits"] / seen if seen else 0.0
    v["serve.overloaded"] = out["overloaded"]
    return v


def run_traced(w, b):
    if isinstance(w, Serve):
        # the daemon runs untraced; after the timed loop the client replays
        # the files the daemon digested (warmed repos, every distinct
        # request) on one domain, and scans them again at --jobs 1 and
        # --jobs N for the output check and the parallel rows
        out = w.load(1)
        tr = out["trace"]
        correct, attempted, failed = serve_outcome(out)
        checks = {
            "responses": correct,
            "replay output": tr["replay_mismatched"] == 0,
            "jobs-n output": tr["parallel_mismatched"] == 0,
            "self times within wall": tr["self_ms"] <= tr["wall_ms"],
        }
        for k, ok in checks.items():
            print(f"check {k}: {'ok' if ok else 'FAILED'}")
        v = layer_metrics(tr, {"wall_ms": tr["wall_jobsn_ms"]}, {"wall_ms": tr["wall_jobs1_ms"]})
        v.update(serve_layer_metrics(out))
        failed += sum(1 for k, ok in checks.items() if k != "responses" and not ok)
        correct = all(checks.values())
    else:
        jobs_n = w.op(JOBS)
        jobs_1 = w.op(1)
        ref = w.reference(jobs1=jobs_1)
        tr = w.replay()
        checks = {
            "jobs-n output": w.check(jobs_n, ref),
            "jobs-1 output": w.check(jobs_1, ref),
            "replay output": w.replay_matches(jobs_n, tr),
            "self times within wall": tr["self_ms"] <= tr["wall_ms"],
        }
        for k, ok in checks.items():
            print(f"check {k}: {'ok' if ok else 'FAILED'}")
        v = layer_metrics(tr, jobs_n, jobs_1)
        failed = sum(1 for ok in checks.values() if not ok) + jobs_n["skipped"] + jobs_1["skipped"]
        correct = all(checks.values())
        attempted = jobs_n["files"] + jobs_1["files"] + tr["files"]
    print("in-program stage table of the replay (comparison only):")
    for stage, st in tr["stage_table"].items():
        print(f"  {stage:<22} {st['count']:>8} {st['wall_ms']:12.3f} ms")
    for k, _ in PER_LAYER:
        v.setdefault(k, 0.0)
    return correct, attempted, failed, {k: metric(v[k], u) for k, u in PER_LAYER}


def ocaml_version():
    try:
        return subprocess.run(["ocamlopt", "-version"], capture_output=True,
                              text=True).stdout.strip()
    except OSError:
        return "unknown"


def record(exe, cli, seeds, workloads):
    """Compute the output checks' reference values by their reference
    routes and store them in expected.json: per seed for train and scan,
    once for update, whose pattern set does not depend on the seed."""
    try:
        with open(EXPECTED_FILE) as f:
            table = json.load(f)
    except FileNotFoundError:
        table = {}
    for cls in (c for c in (Train, Scan, Update) if c.name in workloads):
        rec = table.setdefault(cls.name, {})
        for seed in (seeds[:1] if cls is Update else seeds):
            work = os.path.join(BUILD, "work", f"record-{cls.name}-{seed}")
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            w = cls(Bench(exe, cli, work, seed, 0, False))
            try:
                w.setup()
                if cls is Train:
                    out = w.op(1)
                    rec["patterns"] = out["patterns"]
                    rec[str(seed)] = out["model_hash"]
                elif cls is Update:
                    rec["patterns"] = w.computed_reference()[1]
                else:
                    rec[str(seed)] = w.computed_reference()[1]
            finally:
                w.teardown()
                shutil.rmtree(work, ignore_errors=True)
            log(f"recorded {cls.name} seed {seed}")
            with open(EXPECTED_FILE, "w") as f:
                json.dump(table, f, indent=1, sort_keys=True)
                f.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt the compared digest or hash (harness self-test)")
    ap.add_argument("--record", metavar="FIRST-LAST",
                    help="record the output checks' references for a range of seeds")
    args = ap.parse_args(argv)
    # a terminated run still stops its daemon and removes its inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.record is None and None in (args.workload, args.seed, args.seconds):
        ap.error("--workload, --seed and --seconds are required")

    built = build()
    if built is None:
        return 2
    exe, cli = built
    if args.record:
        first, last = (int(x) for x in args.record.split("-"))
        record(exe, cli, list(range(first, last + 1)),
               [args.workload] if args.workload else list(WORKLOADS))
        return 0
    work = os.path.join(BUILD, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    b = Bench(exe, cli, work, args.seed, args.seconds, args.corrupt)
    w = WORKLOADS[args.workload](b)
    CLOCK.start()
    try:
        reps = 1 if args.trace else w.reps
        setup_times = w.timed_setup(reps)
        if args.trace:
            result = run_traced(w, b)
        else:
            result = run_untraced(w, b, setup_times)
    except (Failure, subprocess.TimeoutExpired) as e:
        log(f"{w.name} failed: {e}")
        return 1
    finally:
        w.teardown()
        shutil.rmtree(work, ignore_errors=True)
        settle()
        CLOCK.stop()
    correct, attempted, failed, metrics = result
    print(f"machine: nproc {JOBS}, --jobs {JOBS}, OCaml {ocaml_version()}")
    for k, m in metrics.items():
        print(f"  {k:<44} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
