#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload mc-array --seed 1 --seconds 20 --trace 0

Builds the Go program in perfbench/ (its own module, which replaces the
`diablo` module with the checkout it sits in) and runs it with the given
arguments. Everything the build writes -- the binary, Go's build cache and
temporary files -- goes under the build directory, `$CARGO_TARGET_DIR` if set,
else `.bench_build`, inside the checkout. The benchmark's own last output line
is the result; a failed build or run exits non-zero without one.
"""

import os
import subprocess
import sys

# Seconds a single build or run may take before it is stopped; the first
# build in a fresh checkout compiles the standard library too.
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 170


def run(cmd, cwd, env, timeout):
    """Run cmd to completion; stop it if it outlives timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal", "core"))):
        print("perfbench: run from the root of a diablo checkout (go.mod and internal/ not found)",
              file=sys.stderr)
        return 2
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(out, "gocache"),
               GOMODCACHE=os.path.join(out, "gomodcache"),
               GOPATH=os.path.join(out, "gopath"),
               GOTMPDIR=tmp,
               TMPDIR=tmp,
               GOTOOLCHAIN="local",
               GOPROXY="off",
               GOFLAGS="")
    binary = os.path.join(out, "perfbench")
    code = run(["go", "build", "-o", binary, "."], bench, env, BUILD_TIMEOUT)
    if code != 0:
        print(f"perfbench: build failed (exit {code})", file=sys.stderr)
        return code or 1
    return run([binary] + sys.argv[1:], root, env, RUN_TIMEOUT)


if __name__ == "__main__":
    sys.exit(main())
