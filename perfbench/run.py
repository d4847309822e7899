#!/usr/bin/env python3
"""Build and run the end-to-end benchmark; see perfbench/README.md.

Run from the repository root:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

The Go program is built from source into .bench_build/ (Go's build cache,
temporary files and configuration stay there too), then run. Its last line
of standard output is the result object; the exit code is non-zero when a
correctness check fails or the run cannot complete.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    # Build offline with the installed toolchain only.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOENV="off")
    return env


def run(cmd, cwd, env, timeout):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: %s timed out after %ds" % (cmd[0], timeout), file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("paper-grid", "big-n", "served-mix", "fabric-grid"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "internal")):
        print("perfbench: %s holds no repro module to build" % ROOT, file=sys.stderr)
        return 2
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    if run(["go", "build", "-o", binary, "."], HERE, env, BUILD_TIMEOUT) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return run([binary,
                "-workload", args.workload,
                "-seed", str(args.seed),
                "-seconds", str(args.seconds),
                "-trace", str(args.trace),
                "-work", os.path.join(BUILD, "work"),
                "-golden", os.path.join(HERE, "golden.json")],
               ROOT, env, RUN_TIMEOUT)


if __name__ == "__main__":
    sys.exit(main())
