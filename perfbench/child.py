"""One timed pass, run in a fresh interpreter:

    python3 perfbench/child.py SPEC.json

SPEC holds `setup_files`, `block_files` (bool: parse them as JSON blocks
rather than problems), `commands` (argv lists), `trace` (a path or null),
`setup_only` (bool) and `out` (result path).  The pass measures set-up (import
vopt.cli and parse every input file), then runs each command through
`vopt.cli.main` in order, one at a time, and writes per-command exit codes,
latencies and errors to `out`.  With `trace` it installs the span wrappers
after set-up, and at the end writes the raw spans there as .npz and their
summary into `out`.

Set-up and command latencies (`seconds`) are this interpreter's CPU time,
user plus system.  The pass is single-threaded (BLAS pinned to one thread)
and does no waiting of its own, so on an idle core CPU time equals wall
time; on a shared host it leaves out the time the hypervisor (steal) or
other processes took the core away, which wall time would count.  Each
command's wall time is kept beside it as `wall`, for the span shares and
the tracing overhead, which are taken on the wall clock like the spans.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    t0 = time.process_time()
    import vopt.cli

    if spec["block_files"]:
        for f in spec["setup_files"]:
            json.loads(Path(f).read_bytes())
    else:
        from vopt.problem import load_problem

        for f in spec["setup_files"]:
            load_problem(f)
    result = {"setup_s": time.process_time() - t0}
    if spec["setup_only"]:
        Path(spec["out"]).write_text(json.dumps(result))
        return 0

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer().install()
    records = []
    for argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        error = None
        t, w = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = vopt.cli.main(list(argv))
        except Exception:  # a traceback is a failed command, not a failed pass
            rc, error = None, traceback.format_exc(limit=-3)
        seconds, wall = time.process_time() - t, time.perf_counter() - w
        if rc != 0 and error is None:
            error = err.getvalue().strip()[-400:]
        records.append({"rc": rc, "seconds": seconds, "wall": wall, "error": error})
    if tracer is not None:
        tracer.restore()
        result["trace"] = tracer.summary()
        import numpy as np

        np.savez(spec["trace"], names=tracer.names, **tracer.arrays())
    result["commands"] = records
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
