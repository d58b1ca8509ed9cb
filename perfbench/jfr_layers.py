#!/usr/bin/env python3
"""Attribute JFR execution samples to the sampler's layers.

Usage: python3 perfbench/jfr_layers.py <recording.jfr>

Reads the recording with the JDK's `jfr print` and counts each
`jdk.ExecutionSample` under one layer, chosen by the sample's innermost
`repro.` frame rather than its top frame: the top frame of a boxed-Long map
lookup is a JDK or Scala collection method, which says nothing about which
step of the event loop asked for it.

Layers: enumerate, inclusion, weight, reservoir, exact, rl, spark, other.
"""
import os
import shutil
import subprocess
import sys

LAYERS = ["enumerate", "inclusion", "weight", "reservoir", "exact", "rl", "spark", "other"]

PATTERNS = {"repro.core.Pattern", "repro.core.Pattern$", "repro.core.Wedge$",
            "repro.core.Triangle$", "repro.core.FourClique$"}
ESTIMATORS = {"repro.core.WSD", "repro.core.GPSA", "repro.baselines.WRS"}
RESERVOIR_CLASSES = {"repro.core.IndexedMinHeap", "repro.core.Adjacency", "repro.core.Rank$",
                     "repro.core.Rng", "repro.baselines.RPSampler"}
RESERVOIR_METHODS = {"insertEdge", "deleteEdge", "add", "dropEntry", "reservoirInsert",
                     "rAdd", "rRemove", "adjRemove", "toState", "restoreState"}
WEIGHTS = {"repro.core.HeuristicWeight$", "repro.core.ConstantWeight$"}


def classify(frames):
    """Layer of one sample; `frames` are 'pkg.Class.method', innermost first."""
    if any(f.startswith("repro.exact.") for f in frames):
        return "exact"
    idx = next((i for i, f in enumerate(frames) if f.startswith("repro.")), None)
    if idx is None:
        return "spark" if any(f.startswith("org.apache.spark.") for f in frames) else "other"
    cls, meth = frames[idx].rsplit(".", 1)
    if cls.startswith("repro.rl."):
        return "weight" if cls == "repro.rl.TrainedPolicy" and meth == "weight" else "rl"
    if cls.startswith("repro.spark.") or cls.startswith("repro.harness.ParallelTrials"):
        return "spark"
    if cls in WEIGHTS:
        return "weight"
    if cls in PATTERNS or (cls == "repro.core.Adjacency" and meth in ("neighbors", "contains", "degree")):
        return "enumerate"
    if (cls == "repro.core.Rank$" and meth == "inclusionProb") or \
            (cls == "repro.baselines.RPSampler$" and meth == "jointProb"):
        return "inclusion"
    if cls in ESTIMATORS and "$anonfun$process" in meth:
        # the per-instance visitor: probability lookups, except WSD-L's sort
        # of arrival times, which feeds the weight function's state
        above = frames[:idx]
        if any(f.startswith("java.util.DualPivotQuicksort") or f.startswith("java.util.Arrays.sort")
               for f in above):
            return "weight"
        return "inclusion"
    if cls in RESERVOIR_CLASSES or (cls in ESTIMATORS and meth in RESERVOIR_METHODS):
        return "reservoir"
    return "other"


def jfr_tool():
    home = os.environ.get("JAVA_HOME")
    if home and os.path.exists(os.path.join(home, "bin", "jfr")):
        return os.path.join(home, "bin", "jfr")
    tool = shutil.which("jfr")
    if tool is None:
        raise RuntimeError("the JDK's jfr tool is not on PATH and JAVA_HOME has none")
    return tool


def samples(path):
    """Yield the frame list of each execution sample in the recording."""
    proc = subprocess.Popen([jfr_tool(), "print", "--events", "jdk.ExecutionSample",
                             "--stack-depth", "64", path],
                            stdout=subprocess.PIPE, text=True)
    frames, in_stack = None, False
    try:
        for line in proc.stdout:
            s = line.strip()
            if s.startswith("jdk.ExecutionSample"):
                frames, in_stack = [], False
            elif s.startswith("stackTrace = ["):
                in_stack = True
            elif in_stack and s == "]":
                in_stack = False
                yield frames
            elif in_stack and s and s != "...":
                frames.append(s.split("(", 1)[0])
    finally:
        proc.stdout.close()
        if proc.wait() != 0:
            raise RuntimeError(f"jfr print failed on {path}")


def layer_counts(path):
    counts = dict.fromkeys(LAYERS, 0)
    for frames in samples(path):
        counts[classify(frames)] += 1
    return counts


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    for layer, n in layer_counts(sys.argv[1]).items():
        print(f"{layer}\t{n}")
