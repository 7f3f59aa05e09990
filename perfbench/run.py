#!/usr/bin/env python3
"""Explain-latency benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload nba-uq1 --seed 11 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Builds the program's sources together with the Scala harness in this
directory (sbt, offline), then runs one JVM per workload. With ``--trace 0``
the last line of standard output is the end-to-end result object, with
``--trace 1`` the per-layer one. ``--workload all`` runs every workload, also
``mimic-naive``, which ``BENCHMARK.json`` leaves out, and ends with one
combined object whose metric names are prefixed by the workload name.

All build output, Spark local files and trace files go under
``.bench_build`` in the current directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM_SRC = os.path.join(HERE, "..", "src", "main", "scala")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ["nba-uq1", "mimic-uq2", "mimic-naive"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# CPUs the benchmark JVM is pinned to.
JVM_CPUS = 2

# Spark on JDK 17 reaches into these JDK internals.
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_bounded(cmd, cwd, env, timeout, out):
    """Runs cmd in its own process group, streaming stdout lines to `out`.

    Kills the whole group on timeout and always waits for it to end.
    Returns (exit code, stdout lines).
    """
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT if out is sys.stderr else None,
                            text=True, start_new_session=True)
    lines = []

    def pump():
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            print(line, end="", file=out, flush=True)

    t = threading.Thread(target=pump, daemon=True)
    t.start()
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} exceeded {timeout}s, stopping it", file=sys.stderr)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGTERM)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        t.join(timeout=15)
    return proc.returncode, lines


def source_stamp():
    h = hashlib.sha256()
    files = []
    for top in (PROGRAM_SRC, os.path.join(HERE, "src"), os.path.join(HERE, "project")):
        for d, _, fs in os.walk(top):
            if os.sep + "target" in d:
                continue
            files += [os.path.join(d, f) for f in fs if f.endswith((".scala", ".properties"))]
    files.append(os.path.join(HERE, "build.sbt"))
    for f in sorted(files):
        h.update(os.path.relpath(f, HERE).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build():
    """Compiles the harness and program once per source state; returns the classpath."""
    if not os.path.isdir(os.path.join(PROGRAM_SRC, "repro")):
        fail("the program's sources (src/main/scala/repro) are not next to the benchmark; "
             "run from the root of a full checkout")
    if shutil.which("sbt") is None:
        fail("sbt not found on PATH")
    os.makedirs(BUILD, exist_ok=True)
    stamp_file = os.path.join(BUILD, "stamp")
    cp_file = os.path.join(BUILD, "classpath")
    stamp = source_stamp()
    if os.path.exists(cp_file) and os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return open(cp_file).read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    print("perfbench: building (sbt)", file=sys.stderr)
    code, lines = run_bounded(["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
                              HERE, env, BUILD_TIMEOUT_S, sys.stderr)
    cps = [l for l in lines if ".jar" in l and os.pathsep in l and not l.startswith("[")]
    if code != 0 or not cps:
        fail(f"build failed (exit {code})")
    with open(cp_file, "w") as f:
        f.write(cps[-1])
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return cps[-1]


def run_workload(cp, workload, seed, seconds, trace):
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # TieredStopAtLevel=1 with CompileThresholdScaling: compile with C1 only,
    # and soon. With C2, Catalyst keeps getting faster for minutes (calls
    # drop from 1.8 s to 1.1 s over 40 calls), so a run's median would hang
    # on how far into that curve it gets; C1 code is steady after a few
    # calls. C1 alone needs a larger code cache than its default.
    # callstack.depth: keep enough frames in each job's call site to reach
    # the program's own frames.
    cmd = [java, "-Xmx3g", "-XX:+UseG1GC", "-XX:TieredStopAtLevel=1", "-XX:CompileThresholdScaling=0.1",
           "-XX:ReservedCodeCacheSize=512m", "-Dspark.callstack.depth=64", f"-Dperfbench.nproc={os.cpu_count()}",
           f"-Djava.io.tmpdir={tmp}", "-Dfile.encoding=UTF-8",
           f"-Dlog4j.configurationFile={os.path.join(HERE, 'log4j2.properties')}"]
    cmd += [f"--add-opens={m}=ALL-UNNAMED" for m in ADD_OPENS]
    cmd += ["-cp", cp, "perfbench.Main", "--workload", workload, "--seconds", str(seconds),
            "--trace", str(trace), "--out-dir", BUILD]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    env = dict(os.environ)
    for var in ("SPARK_MASTER", "SPARK_LOCAL_DIRS"):
        env.pop(var, None)
    # Pinned to a few CPUs, the JVM keeps them busy: Spark hands each job
    # between several threads, and a thread woken on an idle CPU of a shared
    # host waits for the host to run that CPU, which makes a call's time hang
    # on the host's load. The JVM sizes Spark, GC and JIT to these CPUs.
    cpus = sorted(os.sched_getaffinity(0))[-JVM_CPUS:]
    if shutil.which("taskset"):
        cmd = ["taskset", "-c", ",".join(map(str, cpus))] + cmd
    code, lines = run_bounded(cmd, ROOT, env, RUN_TIMEOUT_S, sys.stdout)
    results = [l[len("result: "):] for l in lines if l.startswith("result: ")]
    if code != 0 or not results:
        fail(f"{workload}: benchmark JVM exited with {code} and no result")
    try:
        result = json.loads(results[-1])
    except ValueError:
        fail(f"{workload}: unreadable result {results[-1]}")
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail(f"{workload}: malformed result {results[-1]}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=None, help="data generator seed (default: per workload)")
    ap.add_argument("--seconds", type=int, default=20, help="measured seconds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        fail(f"unknown workload {args.workload}; known: {', '.join(WORKLOADS)} or all")
    cp = build()
    results = {n: run_workload(cp, n, args.seed, args.seconds, args.trace) for n in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
