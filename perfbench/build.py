#!/usr/bin/env python3
"""Build file of the benchmark: compiles the program (src/main/scala) and the
harness (perfbench/src) into one class directory with the Scala compiler that
ships in the Spark distribution ($SPARK_HOME/jars), so no sbt, network or
dependency cache is needed.

    python3 perfbench/build.py          # prints the class directory

Output goes to .bench_build/perfbench/perfbench.jar under the repository
root. A stamp over every source file skips the compile when nothing changed.
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys
import zipfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spark_jars():
    """jars/ of the Spark distribution: $SPARK_HOME, else the first PATH entry
    <dir>/bin whose <dir>/jars holds a Scala compiler."""
    homes = [os.environ.get("SPARK_HOME")] + [
        os.path.dirname(p) for p in os.environ.get("PATH", "").split(os.pathsep)]
    for home in homes:
        if home and glob.glob(os.path.join(home, "jars", "scala-compiler-*.jar")):
            return os.path.join(home, "jars")
    return None


SPARK_JARS = spark_jars()
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
JAR = os.path.join(OUT, "perfbench.jar")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"),
               os.path.join(ROOT, "perfbench", "src")]


class BuildError(Exception):
    pass


def sources():
    files = []
    for d in SOURCE_DIRS:
        if not os.path.isdir(d):
            raise BuildError(f"source directory missing: {os.path.relpath(d, ROOT)}")
        files += glob.glob(os.path.join(d, "**", "*.scala"), recursive=True)
    return sorted(files)


def source_hash(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def compiler_jar():
    if SPARK_JARS is None:
        raise BuildError("no Spark distribution with a Scala compiler: set SPARK_HOME")
    return glob.glob(os.path.join(SPARK_JARS, "scala-compiler-*.jar"))[0]


def build(log=sys.stderr):
    """Compile if the sources changed; return (jar, source hash)."""
    files = sources()
    stamp = source_hash(files) + " " + os.path.basename(compiler_jar())
    stamp_file = os.path.join(OUT, "stamp")
    if os.path.isfile(JAR) and os.path.isfile(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                return JAR, stamp.split()[0]
    tmp = os.path.join(OUT, "classes.tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    print(f"compiling {len(files)} Scala files", file=log, flush=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={OUT}",
           "-cp", os.path.join(SPARK_JARS, "*"),
           "scala.tools.nsc.Main", "-nowarn", "-d", tmp,
           "-classpath", os.path.join(SPARK_JARS, "*")] + files
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError("scalac failed:\n" + proc.stdout[-4000:])
    with zipfile.ZipFile(JAR + ".tmp", "w") as jar:
        for d, _, names in sorted(os.walk(tmp)):
            for name in sorted(names):
                path = os.path.join(d, name)
                jar.write(path, os.path.relpath(path, tmp))
    shutil.rmtree(tmp)
    os.replace(JAR + ".tmp", JAR)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return JAR, stamp.split()[0]


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(1)
