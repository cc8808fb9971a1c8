"""One pass of the geoalg command line in a fresh interpreter.

    python3 perfbench/child.py MODE ARG...

imports `geoalg` from the checkout's `src/`, parses ARG... as the command
line does, then calls `geoalg.cli.main(ARG...)` with standard output held
in memory.  MODE is `-` for an untraced pass, `setup` to stop before
`main` is called (and sample the probe there), or a file that the spans
of a traced pass are appended to as JSON lines.  The last line of standard output is one JSON object:
the monotonic clock when `main` was called, the pass's wall time, exit
code, peak resident memory, the report lines, the mean sample of the
host-speed probe (probe.py) taken while the pass ran and, when traced,
the per-layer sums.
"""

import io
import json
import resource
import sys
import time
from pathlib import Path

from probe import SpeedProbe, reference_mean


def main():
    mode, argv = sys.argv[1], sys.argv[2:]
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import geoalg.cli

    if Path(geoalg.cli.__file__).resolve().parent.parent != src:
        sys.exit(f"geoalg was imported from {geoalg.cli.__file__}, not {src}")
    geoalg.cli.build_parser().parse_args(argv)
    if mode == "setup":
        t_main = time.clock_gettime(time.CLOCK_MONOTONIC)
        print(json.dumps({"t_main": t_main, "reference_s": reference_mean()}))
        return
    tracer = None
    if mode != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    out, real = io.StringIO(), sys.stdout
    with SpeedProbe() as probe:
        sys.stdout = out
        t_main = time.clock_gettime(time.CLOCK_MONOTONIC)
        t0 = time.perf_counter()
        try:
            rc = geoalg.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed pass, not a lost run
            rc = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        sys.stdout = real

    result = {
        "t_main": t_main,
        "wall_s": wall,
        "rc": rc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reports": [json.loads(line) for line in out.getvalue().splitlines()],
        "reference_s": probe.mean(),
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
        with open(mode, "a") as fh:
            fh.write(json.dumps({"argv": argv, "spans": tracer.spans}) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
