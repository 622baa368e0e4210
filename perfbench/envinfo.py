"""Environment block printed with every benchmark result.

Everything here is read without starting a process: the git commit comes
from the files under ``.git`` (absent in an exported checkout), the cache
sizes from the read-only CPU description under ``/sys``.
"""

import contextlib
import io
import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit(root):
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas():
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        deps = config.get("Build Dependencies", {})
        return {key: deps.get(key) for key in ("blas", "lapack")}
    except TypeError:
        # numpy < 1.26 only prints its configuration.
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        return {"text": buf.getvalue()}


def _caches():
    """Data and unified caches of cpu0, as {"L<level> <type>": size text}."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    out = {}
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out


def environment(root, working_set_mb):
    import numpy as np

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "caches": _caches(),
        "working_set_mb": working_set_mb,
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
    }
