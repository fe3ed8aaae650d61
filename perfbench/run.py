#!/usr/bin/env python3
"""Build perfbench from the checkout's source, then run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig7-serve --seed 1 --seconds 20 --trace 0

The Go build cache, temporary files and the binary stay inside the
checkout, under $CARGO_TARGET_DIR (default .bench_build). The arguments
are passed to the binary unchanged; see README.md for what it measures.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    for name, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                      ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"),
                      ("XDG_CONFIG_HOME", "config")):
        env[name] = os.path.join(build, sub)
        os.makedirs(env[name], exist_ok=True)
    # Build offline with the installed toolchain, from this checkout only.
    env.update(GOPROXY="off", GOFLAGS="", GOWORK="off", GOTOOLCHAIN="local")
    binary = os.path.join(build, "perfbench")
    src = os.path.dirname(os.path.abspath(__file__))
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    spans = os.path.join(build, "trace")
    os.chdir(root)
    os.execve(binary, [binary, "--spans-dir", spans] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
