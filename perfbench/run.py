#!/usr/bin/env python3
"""Build RobustStore's benchmark from this checkout's sources and run it.

Run from the repository root:

    python3 perfbench/run.py --workload write-ramp --seed 1 --seconds 25 --trace 0

The Go module in perfbench/ builds against the repository through a
replace directive. Every file the build writes (binary, build and module
caches, Go's own configuration) stays under .bench_build/ in the checkout.
The binary is rebuilt whenever a Go source or module file of the checkout
changes. Arguments pass through to the binary, whose last line of output
is the JSON result.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
STAMP = BINARY + ".sources"


def source_digest():
    """Hash every Go source and module file of the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def build_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomod"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
    )
    for d in (env["GOTMPDIR"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)
    return env


def ensure_binary():
    digest = source_digest()
    try:
        with open(STAMP) as f:
            if f.read() == digest and os.path.exists(BINARY):
                return
    except OSError:
        pass
    os.makedirs(BUILD, exist_ok=True)
    tmp = "%s.%d" % (BINARY, os.getpid())
    subprocess.run(["go", "build", "-o", tmp, "."], cwd=BENCH, env=build_env(), check=True,
                   stdout=sys.stderr)
    os.replace(tmp, BINARY)
    with open(STAMP, "w") as f:
        f.write(digest)


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: run from the root of a RobustStore checkout (no go.mod here)")
    try:
        ensure_binary()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    main()
