#!/usr/bin/env python3
"""Mining benchmark launcher.

Run from the root of a checkout of the repository:

    python3 minebench/run.py --workload match-mi --seed 0 --seconds 10 --trace 0
    python3 minebench/run.py --smoke

It builds the benchmark (and with it the repository's code) with sbt when
the sources changed since the last build, then runs one workload in a fresh
JVM. The last line of stdout is the result as one JSON object. `--smoke`
runs every workload on tiny graphs and checks that every metric named in
BENCHMARK.json is emitted with its unit, and that a deliberately wrong
reference answer is reported as a failed query.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "bench.classpath")
STAMP = os.path.join(TARGET, "bench.stamp")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
HEAP = "2g"

# Spark on JDK 17 needs these opens (as in the repository's build.sbt).
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/sun.nio.ch",
    "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg, code=2):
    print(f"minebench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file whose change requires a rebuild."""
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(ROOT, "project", "build.properties"),
             os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for base in [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"), os.path.join(HERE, "src")]:
        for d, _, names in os.walk(base):
            files += [os.path.join(d, n) for n in names]
    return sorted(f for f in files if os.path.isfile(f))


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group on timeout."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"{cmd[0]} exceeded {timeout}s", 4)
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    return p.returncode, out


def build():
    """Compile with sbt and record the runtime classpath, unless up to date."""
    digest = source_hash()
    if os.path.exists(STAMP) and os.path.exists(CLASSPATH):
        with open(STAMP) as fh:
            if fh.read().strip() == digest:
                return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        # Keep sbt's own state inside the checkout; dependencies are read
        # from the toolchain's offline cache.
        opts = ["-Dsbt.offline=true", "-Xmx2g", f"-Dsbt.global.base={os.path.join(TARGET, 'sbt-global')}",
                f"-Dsbt.ivy.home={os.path.join(TARGET, 'ivy')}"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    code, _ = run_bounded(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                          BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if code != 0 or not os.path.exists(CLASSPATH):
        fail("build failed", 3)
    with open(STAMP, "w") as fh:
        fh.write(digest)


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def java(args):
    """Run the benchmark JVM; return its stdout lines."""
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", f"-Xmx{HEAP}", f"-Xms{HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
            "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
            f"-Dspark.local.dir={os.path.join(TARGET, 'spark-local')}",
            f"-Dspark.sql.warehouse.dir={os.path.join(TARGET, 'spark-warehouse')}"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", cp, "minebench.Main", "--cache-dir", os.path.join(TARGET, "refcache")] + args)
    env = dict(os.environ, MINEBENCH_COMMIT=git_commit())
    code, out = run_bounded(cmd, RUN_TIMEOUT_S, cwd=TARGET, env=env, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    if code != 0:
        sys.stdout.write(out)
        fail(f"benchmark JVM exited with {code}", 5)
    return out.splitlines()


def smoke():
    """Tiny graphs: every named metric is emitted with its unit, and a wrong
    reference makes the failed fraction positive."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for trace in (0, 1):
        lines = java(["--workload", "all", "--size", "0.05", "--seconds", "0", "--trace", str(trace)])
        results = [json.loads(l) for l in lines if l.startswith('{"correct"')]
        if len(results) != len(spec["workloads"]):
            problems.append(f"trace {trace}: {len(results)} results for {len(spec['workloads'])} workloads")
        for r in results:
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want[trace]:
                problems.append(f"trace {trace}: metrics differ: {sorted(set(got.items()) ^ set(want[trace].items()))}")
            if not r["correct"] or r["failed"] != 0:
                problems.append(f"trace {trace}: a correct run reported failures: {r}")
    lines = java(["--workload", spec["workloads"][0]["name"], "--size", "0.05", "--seconds", "0",
                  "--trace", "0", "--wrong-reference"])
    r = json.loads(lines[-1])
    if r["correct"] or not r["failed"] / r["attempted"] > 0:
        problems.append(f"a wrong reference was not reported: {r}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail("the repository's sources are not next to the benchmark; run from a full checkout")
    build()
    if a.smoke:
        smoke()
    if not a.workload:
        fail("--workload is required")
    lines = java(["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                  "--trace", str(a.trace)])
    if not lines or not lines[-1].startswith('{"correct"'):
        fail("no result line", 6)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
