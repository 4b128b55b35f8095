#!/usr/bin/env python3
"""Build and run the repository benchmark.

From the repository root:

    python3 perfbench/run.py --workload <recover-fr|arena-full|serve-roundtrip> \
        --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ in release mode with the workspace's [profile.release]
settings (into $CARGO_TARGET_DIR, default .bench_build/), then runs it with
the same arguments. Build output goes to stderr; stdout carries only the
benchmark's lines, the last of which is the result object.
"""

import hashlib
import json
import os
import subprocess
import sys
import tomllib


def profile_flags(workspace_manifest):
    """`--config` flags repeating the workspace release profile.

    perfbench is a package of its own, so Cargo would otherwise build the
    program without the workspace's LTO and codegen settings.
    """
    with open(workspace_manifest, "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    flags = []

    def add(prefix, table):
        for key, value in table.items():
            if isinstance(value, dict):
                add(f"{prefix}.{key}", value)
            else:
                flags.extend(["--config", f"{prefix}.{key}={json.dumps(value)}"])

    add("profile.release", profile)
    return flags


def revision(root):
    """The git revision, or a digest of the sources when not in a git tree."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
            ).stdout.strip()
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=root, capture_output=True, text=True, check=True,
            ).stdout.strip()
            return rev + ("-dirty" if dirty else "")
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    files = [os.path.join(root, "Cargo.toml"), os.path.join(root, "Cargo.lock")]
    for base, dirs, names in os.walk(os.path.join(root, "crates")):
        dirs[:] = sorted(d for d in dirs if d != "target")
        files += [os.path.join(base, n) for n in sorted(names) if n.endswith((".rs", ".toml"))]
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def rustc_version():
    try:
        return subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    workspace = os.path.join(root, "Cargo.toml")
    if not (os.path.isfile(workspace) and os.path.isdir(os.path.join(root, "crates"))):
        print("perfbench: run from the repository root (no Cargo.toml or crates/ here)",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = os.path.join(root, env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest,
         *profile_flags(workspace)],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env["PERFBENCH_REV"] = revision(root)
    env["PERFBENCH_RUSTC"] = rustc_version()
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
