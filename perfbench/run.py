#!/usr/bin/env python3
"""SeeSaw benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the program and the harness from source with sbt (offline) on first
use, into the sbt target directories and .bench_build/, then runs one JVM
per workload run. The last line of standard output is the run's JSON
result. `--workload all` runs every workload untraced and then traced and
ends with one JSON object over all of them.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["interactive_local", "interactive_spark", "sweep"]
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
HEAP = "-Xmx3g"

# The JDK-internal packages Spark needs opened on Java 17 (as in build.sbt).
JAVA_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]

# Inputs of the build: a change to any of them triggers a rebuild.
BUILD_INPUTS = ["build.sbt", "project/build.properties", "src/main", "jobs",
                "perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src"]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_hash(root):
    h = hashlib.sha256()
    for rel in BUILD_INPUTS:
        path = os.path.join(root, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build(root):
    """Compile with sbt unless the classpath matches the current sources."""
    out = os.path.join(root, BUILD_DIR)
    os.makedirs(out, exist_ok=True)
    stamp_file = os.path.join(out, "build.stamp")
    cp_file = os.path.join(root, "perfbench", "target", "classpath.txt")
    stamp = source_hash(root)
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                return cp_file
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    env["SBT_OPTS"] = " ".join([
        "-Dsbt.offline=true", "-Xmx2g",
        "-Dsbt.override.build.repos=true",
        f"-Dsbt.global.base={os.path.join(out, 'sbt-global')}",
        "-Dsbt.server.autostart=false",
    ] + ([f"-Dsbt.repository.config={os.path.expanduser('~/.sbt/repositories')}"]
         if os.path.exists(os.path.expanduser("~/.sbt/repositories")) else []))
    log = os.path.join(out, "build.log")
    with open(log, "w") as fh:
        proc = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                              cwd=os.path.join(root, "perfbench"), env=env, stdout=fh,
                              stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(cp_file):
        with open(log) as fh:
            sys.stderr.write(fh.read()[-4000:])
        die(f"build failed (log in {log})")
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return cp_file


def run_one(root, cp_file, workload, seed, seconds, trace):
    """Run one workload in its own JVM; returns (stdout lines, parsed result)."""
    with open(cp_file) as fh:
        cp = fh.read().strip()
    tmp = os.path.join(root, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", HEAP, "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in JAVA_OPENS]
           + ["-cp", cp, "perfbench.Main", "--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(trace)])
    # Spark binds to loopback only, and its scratch space stays in the
    # checkout (Main sets spark.local.dir).
    env = {k: v for k, v in os.environ.items() if k != "SPARK_LOCAL_DIRS"}
    env.update(SPARK_LOCAL_IP="127.0.0.1", SPARK_LOCAL_HOSTNAME="localhost")
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        die(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(out)
        die(f"{workload} did not end with a JSON result")
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()
    if a.seconds < 1:
        die("--seconds must be at least 1")

    root = os.getcwd()
    for rel in ["build.sbt", "src/main/scala", "perfbench/build.sbt"]:
        if not os.path.exists(os.path.join(root, rel)):
            die(f"run from the root of a checkout of the program: {rel} is missing")
    cp_file = build(root)

    if a.workload != "all":
        lines, _ = run_one(root, cp_file, a.workload, a.seed, a.seconds, a.trace)
        sys.stdout.write("\n".join(lines) + "\n")
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in (0, 1):
        for w in WORKLOADS:
            lines, r = run_one(root, cp_file, w, a.seed, a.seconds, trace)
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            combined["correct"] = combined["correct"] and r["correct"]
            combined["attempted"] += r["attempted"]
            combined["failed"] += r["failed"]
            for name, m in r["metrics"].items():
                combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
