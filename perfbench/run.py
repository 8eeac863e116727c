#!/usr/bin/env python3
"""Run one DiCE benchmark workload and print its result.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The runner builds perfbench/dicebench.exe from source with dune, runs the
workload in a fresh process, and prints the program's output followed by
one "# env" line (seed, revision, nproc, OCaml version, load average and
/proc/stat steal ticks before and after the run). The last line is the
result object: "correct", "attempted", "failed" and "metrics". Untraced
runs carry every end-to-end metric of BENCHMARK.json; traced runs carry
every per-layer metric, 0 for a layer the workload does not call.

Exit codes: 0 when every output check passed, 1 when one failed, 2 when
the benchmark could not build or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "dicebench.exe")
TRACE_DIR = ".perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_proc(cmd, timeout, env=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out, err


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return spec


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _, err = run_proc([dune, "build", "--root", ".", "./perfbench/dicebench.exe"],
                            BUILD_TIMEOUT_S, env)
    if code != 0 or not os.path.exists(EXE):
        fail("build failed:\n" + err[-4000:])
    return dune, env


def steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def revision():
    """The git revision when run in a clone; None in a plain checkout."""
    if not os.path.exists(".git") or shutil.which("git") is None:
        return None
    code, out, _ = run_proc(["git", "--git-dir=.git", "rev-parse", "HEAD"], 30)
    return out.strip() if code == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds: names a revision even
    where there is no git."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name in ("dune", "dune-project"):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own unit tests")
    args = ap.parse_args()

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    dune, env = build()
    if args.self_test:
        code, out, err = run_proc([dune, "build", "--root", ".", "@perfbench/runtest", "--force"],
                                  BUILD_TIMEOUT_S, env)
        sys.stdout.write(out + err)
        sys.exit(0 if code == 0 else 1)
    if args.workload not in workloads:
        fail("--workload must be one of " + ", ".join(workloads))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACE_DIR, "trace-%s-%d.jsonl" % (args.workload, args.seed))]
    env_info = {"seed": args.seed, "rev": revision(), "src_digest": source_digest(),
                "nproc": len(os.sched_getaffinity(0)), "loadavg": loadavg(),
                "steal_before": steal_ticks()}
    code, out, err = run_proc(cmd, RUN_TIMEOUT_S)
    env_info["steal_after"] = steal_ticks()
    sys.stderr.write(err)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        fail("workload produced no result (exit %d)" % code)
    for line in lines[:-1]:
        print(line)
        if line.startswith("# info "):
            env_info["ocaml"] = json.loads(line[len("# info "):]).get("ocaml")

    # The reported set is the declared set, with declared units.
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            fail("metric %s [%s] is not declared so in BENCHMARK.json" % (name, m["unit"]))
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if args.trace:
        env_info["layers_not_called"] = missing
        for name in missing:
            metrics[name] = {"value": 0.0, "unit": units[name]}
    elif missing:
        fail("end-to-end metrics missing: " + ", ".join(missing))
    print("# env " + json.dumps(env_info, sort_keys=True))
    ordered = {m["name"]: metrics[m["name"]] for m in declared}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": ordered}))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
