"""Build the compiled kernels into a private copy of the package.

The committed ``_snf_cy.c`` and ``_closure_cy.c`` are compiled with the C
compiler and the running interpreter's headers into
``.bench_build/compiled-<key>/monoidkit``; the checkout's ``src`` is never
touched.  The key hashes every package source file and the compiler
command, so an unchanged tree reuses its build.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import sysconfig

KERNELS = ("_snf_cy", "_closure_cy")
CFLAGS = ["-O2", "-shared", "-fPIC"]


def _package_files(pkg):
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith((".so", ".pyc")):
                yield os.path.join(dirpath, name)


def tree_sha256(pkg):
    h = hashlib.sha256()
    for path in _package_files(pkg):
        h.update(os.path.relpath(path, pkg).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def c_sources_sha256(pkg):
    out = {}
    for mod in KERNELS:
        with open(os.path.join(pkg, "_kernels", mod + ".c"), "rb") as fh:
            out[mod + ".c"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def compiled_src(root, cc="gcc"):
    """Path of a ``src``-like directory whose package has built kernels."""
    pkg = os.path.join(root, "src", "monoidkit")
    include = sysconfig.get_paths()["include"]
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    key = hashlib.sha256(
        (tree_sha256(pkg) + " ".join([cc, *CFLAGS, include, suffix])).encode()
    ).hexdigest()[:16]
    dest = os.path.join(root, ".bench_build", f"compiled-{key}")
    if os.path.exists(os.path.join(dest, "BUILT")):
        return dest
    tmp = f"{dest}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.copytree(pkg, os.path.join(tmp, "monoidkit"),
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyc"))
    kdir = os.path.join(tmp, "monoidkit", "_kernels")
    for mod in KERNELS:
        cmd = [cc, *CFLAGS, f"-I{include}", os.path.join(kdir, mod + ".c"),
               "-o", os.path.join(kdir, mod + suffix)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            shutil.rmtree(tmp, ignore_errors=True)
            raise RuntimeError(f"building {mod} failed:\n{proc.stderr[-2000:]}")
    with open(os.path.join(tmp, "BUILT"), "w", encoding="utf-8") as fh:
        fh.write(" ".join(cmd) + "\n")
    try:
        os.replace(tmp, dest)
    except OSError:  # another run finished the same build first
        shutil.rmtree(tmp, ignore_errors=True)
    return dest


if __name__ == "__main__":
    print(compiled_src(sys.argv[1] if len(sys.argv) > 1 else os.getcwd()))
