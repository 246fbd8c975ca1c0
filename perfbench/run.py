#!/usr/bin/env python3
"""Benchmark of the culinary-patterns reproduction.

    python3 perfbench/run.py --workload corpus_build|fig4_nullmodels|fig5_contribution \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the program and the harness from source (perfbench/build.py), runs one
workload in a fresh JVM with Spark local[k], and prints as its last stdout line
one JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1 (see BENCHMARK.json).
The line before it records the environment (git SHA, nproc, Spark master,
parallelism, shuffle partitions, max heap, JVM flags). Full records, with every span and
check, go to .bench_build/perfbench/results/.

--self-test runs every workload once per trace mode at a small scale and
asserts that each metric named in BENCHMARK.json is emitted with its unit.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing beside the sources
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

ROOT = build.ROOT
WORKLOADS = ("corpus_build", "fig4_nullmodels", "fig5_contribution")
RUN_TIMEOUT_S = 170
# 4 MB G1 regions keep Spark's ~1.5 MB serialized tasks out of humongous
# allocation: over 5 runs each, Fig-4 wall times spread 13% (quartile distance
# over median) with the default 1 MB regions and 4% with these.
JVM_FLAGS = ["-Xmx3g", "-XX:G1HeapRegionSize=4m", "-XX:-UsePerfData"]
# Corpus scale, Monte-Carlo size and Fig-4 regions of the timed runs, and the
# scale and Monte-Carlo size of the self-test.
SCALE, NRAND, REGIONS = 0.1, 5000, "USA"
SELFTEST_SCALE, SELFTEST_NRAND = 0.03, 500


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def spark_env(work):
    """Keep Spark's scratch files in the checkout even if the caller's
    environment names other local directories."""
    return dict(os.environ, SPARK_LOCAL_DIRS=work)


def run_workload(workload, seed, seconds, trace, scale=SCALE, nrand=NRAND):
    """Run one workload in a fresh JVM; return (env line, result dict)."""
    jar, src_hash = build.build()
    work = os.path.join(build.OUT, "work")
    logs = os.path.join(build.OUT, "logs")
    results = os.path.join(build.OUT, "results")
    for d in (work, logs, results):
        os.makedirs(d, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    cmd = ["java"] + JVM_FLAGS + [
        f"-Djava.io.tmpdir={work}",
        "-Dlog4j2.configurationFile=" + os.path.join(ROOT, "perfbench", "log4j2.properties"),
        "-cp", jar + os.pathsep + os.path.join(build.SPARK_JARS, "*"),
        "perfbench.Main", "--workload", workload, "--seed", str(seed),
        "--scale", str(scale), "--nrand", str(nrand), "--regions", REGIONS,
        "--cores", str(min(4, os.cpu_count() or 1)), "--local-dir", work,
        "--seconds", str(seconds), "--trace", str(trace),
        "--jvm-flags", " ".join(JVM_FLAGS), "--git-sha", git_sha(),
        "--source-sha256", src_hash, "--record", os.path.join(results, tag + ".json")]
    with open(os.path.join(logs, tag + ".log"), "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=spark_env(work), stdout=subprocess.PIPE,
                                stderr=err, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError(f"{tag}: timed out after {RUN_TIMEOUT_S} s")
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{tag}: JVM exited with {proc.returncode}; see {err.name}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        raise RuntimeError(f"{tag}: malformed result line")
    return lines[:-1], result


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, result = run_workload(workload, 7, 1, trace,
                                     scale=SELFTEST_SCALE, nrand=SELFTEST_NRAND)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: missing "
                                f"{sorted(set(want) - set(got))}, extra "
                                f"{sorted(set(got) - set(want))}, unit mismatch "
                                f"{sorted(k for k in want if k in got and got[k] != want[k])}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: "
                                f"{result['failed']}/{result['attempted']} checks failed")
            print(f"{workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} checks, {result['failed']} failed", flush=True)
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        env_lines, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (build.BuildError, RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    for line in env_lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
