#!/usr/bin/env python3
"""Campaign benchmark: build, run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]
    python3 perfbench/run.py --self-check [--seed N]

Run from the repository root (or anywhere: paths are resolved from this
file).  The first run builds the stc libraries, the `concat` CLI and the
harness (perfbench/campaign_bench.cpp) from the sources next to this
directory into .bench_build/perfbench.  Each run then

  1. prepares, untimed, the references the run is checked against
     (cached in .bench_build/cache, keyed by the harness binary);
  2. for campaign-dispatch, starts two `concat serve --listen 0` daemons
     on loopback ephemeral ports and reaps them on every exit path;
  3. runs the harness for --seconds and checks every campaign's fates;
  4. prints a stamp line, a table of metrics with units, and as the last
     line one JSON object {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are the per-layer ones (perfbench/layers.json says
what each should move and where).  --self-check runs every workload
briefly in both modes and fails unless every end-to-end metric carries
its unit, nothing failed, each layer family is non-zero exactly on
the workload that exercises it, and the harness's dispatch merge
writes the same telemetry as `concat dispatch`.
"""

import argparse
import ctypes
import hashlib
import json
import os
import select
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type

WORKLOADS = ["campaign-threads", "campaign-isolate", "campaign-dispatch",
             "kill-sortable"]
DAEMONS = 2
SEED_20010701 = 20010701


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def load_json(path):
    with open(path) as f:
        return json.load(f)


def log(message):
    print(message, file=sys.stderr, flush=True)


# --------------------------------------------------------------------
# Build

def check_sources():
    needed = ["src/CMakeLists.txt", "tools/concat_cli.cpp",
              "examples/CMakeLists.txt"]
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise BenchError("repository sources not found next to perfbench/: "
                         + ", ".join(missing))


def build():
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "--target", "concat",
                  "campaign_bench", "-j", jobs])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(build_log) as f:
                    tail = f.read()[-3000:]
                raise BenchError("build failed (%s):\n%s" % (" ".join(step), tail))
    harness = os.path.join(BUILD, "campaign_bench")
    concat = os.path.join(BUILD, "tools", "concat")
    for path in (harness, concat):
        if not os.access(path, os.X_OK):
            raise BenchError("build produced no " + path)
    return harness, concat


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def source_digest():
    """Content hash of every source the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "examples", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in paths:
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def stamp(workload, args):
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        try:
            commit = subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                stderr=subprocess.DEVNULL).strip()
            dirty = subprocess.check_output(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "tools", "examples", "perfbench", "CMakeLists.txt"],
                text=True, stderr=subprocess.DEVNULL).strip()
            if dirty:
                commit += "+dirty"
        except (OSError, subprocess.CalledProcessError):
            pass
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    try:
        version = subprocess.check_output([compiler, "--version"], text=True,
                                          stderr=subprocess.DEVNULL)
        compiler = version.splitlines()[0]
    except (OSError, subprocess.CalledProcessError):
        pass
    return {
        "commit": commit,
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


# --------------------------------------------------------------------
# Child processes

_children = []


def _die_with_parent():
    # Linux prctl(PR_SET_PDEATHSIG, SIGTERM): a daemon must not outlive
    # this runner even if the runner itself is SIGKILLed.
    try:
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)
    except (OSError, AttributeError):
        pass


def spawn(cmd, **kwargs):
    proc = subprocess.Popen(cmd, preexec_fn=_die_with_parent, **kwargs)
    _children.append(proc)
    return proc


def stop(proc):
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc in _children:
        _children.remove(proc)


def stop_all():
    for proc in list(_children):
        stop(proc)


def _on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def start_daemons(concat, work):
    """Start the dispatch daemons; return [(proc, port)]."""
    daemons = []
    for i in range(DAEMONS):
        err = open(os.path.join(work, "daemon-%d.err" % i), "w")
        proc = spawn([concat, "serve", "--listen", "0"], cwd=work,
                     stdout=subprocess.PIPE, stderr=err, text=True)
        err.close()
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        line = proc.stdout.readline() if ready else ""
        if not line.startswith("listening on port "):
            raise BenchError("concat serve did not start: %r" % line)
        daemons.append((proc, int(line.split()[-1])))
    return daemons


def peak_rss_mb(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_harness(harness, cmd, timeout):
    proc = spawn([harness] + cmd, stdout=subprocess.PIPE,
                 stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError("campaign_bench %s failed (exit %d):\n%s"
                         % (cmd[0], proc.returncode, err[-3000:]))
    return out


# --------------------------------------------------------------------
# One workload

def run_workload(workload, args, harness, concat):
    cache = os.path.join(ROOT, ".bench_build", "cache", file_digest(harness))
    work = os.path.join(ROOT, ".bench_build", "work",
                        "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", workload, "--seed", str(args.seed)]
    daemons = []
    try:
        run_harness(harness, ["prepare"] + common + ["--cache", cache], 170)
        cmd = ["run"] + common + ["--seconds", str(args.seconds),
                                  "--trace", str(args.trace),
                                  "--cache", cache, "--work",
                                  os.path.join(work, "harness")]
        if workload == "campaign-dispatch":
            daemons = start_daemons(concat, work)
            cmd += ["--workers", ",".join("127.0.0.1:%d" % port
                                          for _, port in daemons)]
        out = run_harness(harness, cmd, 170)
        raw = json.loads(out.strip().splitlines()[-1])
        if args.self_check and daemons and not args.trace:
            raw["cli_telemetry_keys"] = cli_event_keys(concat, work, daemons,
                                                       args.seed)
        daemon_rss = max([peak_rss_mb(p.pid) for p, _ in daemons] or [0.0])
        for proc, _ in daemons:
            if proc.poll() is not None:
                raise BenchError("a dispatch daemon died during the run")
    finally:
        for proc, _ in daemons:
            stop(proc)
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        raw["metrics"]["serve.daemon_rss_mb"] = daemon_rss
    return raw


def cli_event_keys(concat, work, daemons, seed):
    """The distinct key sets of each event kind a `concat dispatch
    --telemetry-out` run of the campaign-dispatch campaign writes,
    against the same daemons."""
    telemetry = os.path.join(work, "cli-telemetry.jsonl")
    cmd = [concat, "dispatch", "sortable", "--seed", str(seed),
           "--workers", ",".join("127.0.0.1:%d" % port for _, port in daemons),
           "--resume", os.path.join(work, "cli-store.jsonl"),
           "--telemetry-out", telemetry]
    proc = spawn(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                 text=True)
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError("concat dispatch failed (exit %d):\n%s"
                         % (proc.returncode, err[-3000:]))
    keys = {}
    with open(telemetry) as f:
        for line in f:
            event = json.loads(line)
            keys.setdefault(event.get("event", ""), set()).add(
                tuple(sorted(event)))
    return {kind: [list(k) for k in sorted(sets)]
            for kind, sets in keys.items()}


def result_line(raw, args, bench):
    group = "per_layer" if args.trace else "end_to_end"
    specs = [(m["name"], m["unit"]) for m in bench[group]]
    metrics = {name: {"value": raw["metrics"][name], "unit": unit}
               for name, unit in specs}
    return {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def print_table(workload, raw, result):
    print("%s: %d campaigns, %d items, %d failed"
          % (workload, raw["campaigns"], raw["attempted"], raw["failed"]))
    rows = [(name, m["value"], m["unit"])
            for name, m in result["metrics"].items()]
    rows.append(("failed_share", raw["metrics"]["failed_share"], "fraction"))
    rows.append(("host_steal_share", raw["steal_share"], "fraction"))
    if "killers_verified" in raw["metrics"]:
        rows.append(("killers_verified", raw["metrics"]["killers_verified"],
                     "count"))
    for name, value, unit in rows:
        print("  %-28s %16.6g %s" % (name, value, unit))
    if workload == "kill-sortable":
        print("  first pass: %d survivors, %d killers verified and replayed "
              "from the corpus, %d verified without a corpus entry (replayed "
              "in memory), score %.1f%%"
              % (raw["first_survivors"], raw["first_killers"],
                 raw["first_unpersisted"], 100 * raw["first_score"]))
    else:
        print("  first campaign score: %.1f%%" % (100 * raw["first_score"]))
    if workload == "campaign-isolate" and "driver.self_share" in result["metrics"]:
        print("  note: sandbox children drop their spans when they exit, so "
              "campaign-isolate reports parent-side sandbox numbers only; "
              "its self shares and test-case counts cover the parent")


# --------------------------------------------------------------------
# Self-check

def self_check(args, harness, concat, bench, layers):
    problems = []
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    names = [m["name"] for m in bench["per_layer"]]
    for workload in WORKLOADS:
        for trace in (0, 1):
            args.trace = trace
            raw = run_workload(workload, args, harness, concat)
            result = result_line(raw, args, bench)
            print_table(workload, raw, result)
            where = "%s --trace %d" % (workload, trace)
            if raw["failed"] != 0 or raw["metrics"]["failed_share"] != 0:
                problems.append("%s: %d items failed" % (where, raw["failed"]))
            if "cli_telemetry_keys" in raw:
                ours, theirs = raw["telemetry_keys"], raw["cli_telemetry_keys"]
                for kind in sorted(set(ours) | set(theirs)):
                    if ours.get(kind) != theirs.get(kind):
                        problems.append(
                            "%s: %r event keys %s, concat dispatch writes %s"
                            % (where, kind, ours.get(kind), theirs.get(kind)))
            if not trace:
                for name, unit in units.items():
                    m = result["metrics"].get(name)
                    if m is None or m["unit"] != unit or not m["value"] > 0:
                        problems.append("%s: %s missing, unitless or zero"
                                        % (where, name))
                if args.seed == SEED_20010701:
                    if (workload == "campaign-threads"
                            and round(100 * raw["first_score"], 1) != 94.5):
                        problems.append("campaign-threads: first score %.4f "
                                        "is not 94.5%%" % raw["first_score"])
                    first = (raw["first_survivors"], raw["first_killers"],
                             raw["first_unpersisted"])
                    if workload == "kill-sortable" and first != (36, 4, 7):
                        problems.append("kill-sortable: %d survivors, %d "
                                        "killers from the corpus, %d in "
                                        "memory; expected 36, 4, 7" % first)
                continue
            values = {n: raw["metrics"][n] for n in names}
            for family, owner in layers["owners"].items():
                members = [n for n in names if n.startswith(family + ".")]
                if workload == owner:
                    for n in layers["activity"][family]:
                        if not values[n] > 0:
                            problems.append("%s: %s is 0 on its own workload"
                                            % (where, n))
                else:
                    for n in members:
                        if values[n] != 0:
                            problems.append("%s: %s = %g outside %s"
                                            % (where, n, values[n], owner))
            if not values["obs.trace_overhead"] > 0:
                problems.append("%s: obs.trace_overhead not reported" % where)
            if workload != "campaign-isolate":
                share = values["obs.attributed_share"]
                if not 0.9 <= share <= 1.1:
                    problems.append("%s: layer self times cover %.3f of the "
                                    "traced item phase" % (where, share))
    for p in problems:
        print("self-check: FAIL: " + p)
    print("self-check: %s" % ("ok" if not problems else
                               "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


# --------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=SEED_20010701)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        check_sources()
        bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        harness, concat = build()
        if args.self_check:
            args.seconds = min(args.seconds, 2)
            layers = load_json(os.path.join(HERE, "layers.json"))
            return self_check(args, harness, concat, bench, layers)
        targets = WORKLOADS if args.workload == "all" else [args.workload]
        results = {}
        for workload in targets:
            raw = run_workload(workload, args, harness, concat)
            result = result_line(raw, args, bench)
            print_table(workload, raw, result)
            results[workload] = dict(result, stamp=stamp(workload, args))
        if args.workload == "all":
            print(json.dumps(results))
            return 0 if all(r["correct"] for r in results.values()) else 1
        # The result line holds exactly the keys correct, attempted,
        # failed and metrics, so the stamp is the line just before it.
        result = results[args.workload]
        print("stamp: " + json.dumps(result.pop("stamp")))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 2
    finally:
        stop_all()


if __name__ == "__main__":
    sys.exit(main())
