"""One privsample CLI call in a fresh interpreter, timed from the inside.

Usage: python3 child.py SPEC.json

SPEC holds ``mode`` (``probe``: import only; ``run``: import, then a
timed ``cli.main``; ``trace``: the same with spans), ``workload``,
``argv``, ``out`` and ``result`` paths, and for ``trace`` the ``spans``
path and the ``untraced_wall`` of the paired untraced call. The result
JSON carries ``ready`` (``time.monotonic()`` right after
``privsample.cli`` is imported; the parent started its clock before
spawning us, and on Linux both read the same system-wide clock).
"""
from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np
import scipy

import layers
import workloads
from tracer import Tracer, write_spans

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads():
    """Threads the bundled OpenBLAS will use, or None when it cannot be asked."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment(cli) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "privsample_threads": os.environ.get("PRIVSAMPLE_THREADS"),
        "privsample_file": cli.__file__,
    }


def run(spec: dict) -> dict:
    import privsample.cli as cli  # the import is what setup_s measures

    result = {"ready": time.monotonic(), "env": environment(cli)}
    if spec["mode"] == "probe":
        return result
    workload = workloads.WORKLOADS[spec["workload"]]
    traced = spec["mode"] == "trace"
    tracer = Tracer()
    error, rc = None, None
    with warnings.catch_warnings(record=traced) as caught:
        if traced:
            warnings.simplefilter("always")
            layers.install(tracer)
        start = time.perf_counter()
        try:
            rc = tracer.call("cli.main", cli.main, (spec["argv"],)) if traced else cli.main(spec["argv"])
        except SystemExit as exc:
            rc, error = exc.code, f"SystemExit({exc.code})"
        except Exception:
            error = traceback.format_exc()
        finally:
            wall = time.perf_counter() - start
            tracer.restore()
    result.update(wall_s=wall, rc=rc, error=error, failures=[], objective=None)
    if rc == 0 and error is None:
        try:
            result["failures"], result["objective"] = workload.check(
                Path(spec["out"]), workloads.load_reference()[workload.name]
            )
        except Exception:
            result["failures"] = [traceback.format_exc()]
    if traced:
        write_spans(tracer.spans, spec["spans"])
        result["layers"] = layers.metrics(
            tracer.spans, tracer.counters, caught, spec["untraced_wall"]
        )
    return result


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text())
    Path(spec["result"]).write_text(json.dumps(run(spec)))
