#!/usr/bin/env python3
"""Benchmark of the WSD reproduction: one workload per call.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --baseline

Run from the root of a checkout. The first call compiles the program
(`src/main/scala`) and the benchmark (`perfbench/src`) with the Scala
compiler shipped in Spark's `jars/` directory into `.bench_build/`; later
calls reuse the classes while the sources are unchanged. Each call then
runs one JVM with a fixed heap and collector and prints the JVM's JSON
result as the last line of standard output. With `--trace 1` the JVM runs
under Java Flight Recorder and the samples are attributed to layers by
`jfr_layers.py`. `--selftest` compiles and runs `perfbench/test`, which
shows that each output check rejects a wrong answer. `--baseline` prints
the single-thread ns/event reference table (several minutes).
"""
import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JVM_TIMEOUT_S = 170

# Fixed JVM settings, so runs do not inherit heap or collector choices.
JVM_FLAGS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:-UsePerfData"]

# Module opens Spark needs on JDK 17 (spark-submit would add them).
OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
         "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
         "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
         "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
         "java.base/sun.util.calendar"]

sys.path.insert(0, HERE)
import jfr_layers  # noqa: E402

child = None


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def stop_child(*_):
    if child is not None and child.poll() is None:
        child.kill()
        child.wait()
    sys.exit(1)


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        fail("no java found (set JAVA_HOME or put java on PATH)")
    return exe


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            fail("set SPARK_HOME or put spark-submit on PATH")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars")
    if not os.path.isdir(jars):
        fail(f"Spark has no jars directory at {jars}")
    return jars


def one_jar(jars, prefix):
    found = sorted(glob.glob(os.path.join(jars, prefix + "-[0-9]*.jar")))
    if not found:
        fail(f"no {prefix} jar in {jars}")
    return found[-1]


def sources(d):
    return sorted(glob.glob(os.path.join(d, "**", "*.scala"), recursive=True))


def compile_into(out, srcs, classpath, jars):
    compiler = os.pathsep.join(one_jar(jars, p) for p in ("scala-compiler", "scala-library", "scala-reflect"))
    os.makedirs(out)
    cmd = [java(), "-Xmx2g", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + BUILD, "-cp", compiler,
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", out, "-classpath", classpath] + srcs
    if subprocess.call(cmd) != 0:
        fail(f"compilation into {out} failed")


def build(with_tests=False):
    """Compile program and benchmark unless the stamp says they are current."""
    jars = spark_jars()
    program = sources(os.path.join(ROOT, "src", "main", "scala"))
    if not program:
        fail("no program sources under src/main/scala; run from the root of a checkout")
    bench = sources(os.path.join(HERE, "src"))
    tests = sources(os.path.join(HERE, "test")) if with_tests else []
    h = hashlib.sha256(one_jar(jars, "scala-compiler").encode())
    for f in program + bench + tests:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    stamp = os.path.join(BUILD, "stamp-tests" if with_tests else "stamp")
    classes = [os.path.join(BUILD, "classes", d) for d in ("bench", "program")]
    if with_tests:
        classes.insert(0, os.path.join(BUILD, "classes", "test"))
    cp = os.pathsep.join(classes + [os.path.join(jars, "*")])
    if os.path.exists(stamp) and open(stamp).read() == h.hexdigest():
        return cp
    shutil.rmtree(os.path.join(BUILD, "classes"), ignore_errors=True)
    for s in glob.glob(os.path.join(BUILD, "stamp*")):
        os.remove(s)
    jars_cp = os.path.join(jars, "*")
    compile_into(classes[-1], program, jars_cp, jars)
    compile_into(classes[-2], bench, os.pathsep.join([classes[-1], jars_cp]), jars)
    if with_tests:
        compile_into(classes[0], tests, os.pathsep.join(classes[1:] + [jars_cp]), jars)
    with open(stamp, "w") as fh:
        fh.write(h.hexdigest())
    return cp


def run_jvm(cp, main, args, work, extra_flags=(), timeout=JVM_TIMEOUT_S):
    global child
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [java()] + JVM_FLAGS + list(extra_flags) + \
        ["-Djava.io.tmpdir=" + tmp] + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS] + \
        ["-cp", cp, main] + args
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=work)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"JVM did not finish within {timeout} s")
    code = child.returncode
    child = None
    return code, out


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--baseline", action="store_true")
    a = p.parse_args()
    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)

    work = os.path.join(BUILD, f"work-{os.getpid()}")
    try:
        if a.selftest:
            cp = build(with_tests=True)
            code, out = run_jvm(cp, "perfbench.SelfTest", [], work)
            sys.stdout.write(out)
            sys.exit(code)
        if a.baseline:
            code, out = run_jvm(build(), "perfbench.Baseline", [], work, timeout=1800)
            sys.stdout.write(out)
            sys.exit(code)
        if a.workload is None or a.seed is None or a.seconds is None:
            p.error("--workload, --seed and --seconds are required")
        cp = build()
        jfr = os.path.join(work, "trace.jfr")
        flags = []
        if a.trace:
            flags = [f"-XX:StartFlightRecording=filename={jfr},settings=profile",
                     f"-XX:FlightRecorderOptions=repository={os.path.join(work, 'tmp')}"]
        code, out = run_jvm(cp, "perfbench.Main",
                            ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                             "--trace", str(a.trace), "--work-dir", work], work, flags)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            fail(f"benchmark JVM exited with code {code}")
        for line in lines[:-1]:
            print(line, file=sys.stderr)
        result = json.loads(lines[-1])
        if a.trace:
            for layer, n in jfr_layers.layer_counts(jfr).items():
                result["metrics"][f"jfr.{layer}.samples"] = {"value": n, "unit": "count"}
        for name, m in result["metrics"].items():
            if m["value"] is None:
                result["correct"] = False
                print(f"perfbench: metric {name} is not finite", file=sys.stderr)
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
