"""One benchmark child process: set up, run the timed part, report.

``run.py`` starts this script with ``src/`` on ``PYTHONPATH``; it is not
meant to be run by hand. ``RESULT`` receives a JSON object:

* ``setup_done``: ``time.monotonic()`` when the timed part began. The
  caller subtracts its own spawn time, so interpreter start-up, imports
  and workload set-up all count as set-up.
* ``wall_s``: wall time of the timed part, without the speed probes.
* ``segments``: ``[seconds, probe before, probe after]`` for each stretch
  of the timed part between two speed probes (see :class:`SpeedClock`).
* ``error``: the traceback if the timed part raised, else null.
* ``sections``: the experiment ids a CLI run was asked for (``cli``).
* ``ops``: one record per simulate/select call (``serve_mix``).
* ``layers``: per-layer metrics (``--trace``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import signal
import sys
import time
import traceback
from typing import Callable, List, Optional

#: Iterations of the reference loop: a few milliseconds of pure Python.
PROBE_ITERS = 100_000
#: The stretch of the timed part between two probes.
SEGMENT_S = 0.1


def reference_loop() -> float:
    """Seconds one run of a fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERS):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedClock:
    """Times the reference loop every ``SEGMENT_S`` of the timed part.

    A shared host gives this process a share of a core that changes
    from one second to the next, and a smaller share slows the program
    and the loop about alike. So a timer signal cuts the timed part into
    segments, and the handler runs the reference loop between them. The
    caller scales each segment by the speed the probes on either side of
    it measured.
    """

    def __init__(self) -> None:
        self.segments: List[List[float]] = []
        #: Called with each probe's length, so a tracer can leave it out.
        self.on_probe: Optional[Callable[[int], None]] = None
        self._probe = 0.0
        self._mark = 0.0

    def start(self) -> None:
        self._probe = reference_loop()
        self._mark = time.perf_counter()
        signal.signal(signal.SIGALRM, lambda *_: self._cut())
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S, SEGMENT_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._cut()

    def _cut(self) -> None:
        now = time.perf_counter()
        probe = reference_loop()
        self.segments.append([now - self._mark, self._probe, probe])
        self._probe = probe
        self._mark = time.perf_counter()
        if self.on_probe is not None:
            self.on_probe(int((self._mark - now) * 1e9))


def _experiment(argv) -> str:
    return argv[argv.index("--experiment") + 1] if "--experiment" in argv else "all"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("result")
    parser.add_argument("--kind", choices=("cli", "serve_mix"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--stdout", default=None)
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]
    result = {"error": None}
    clock = SpeedClock()

    if args.kind == "cli":
        import repro.bench.__main__ as cli
        import repro.bench.export  # noqa: F401  (the CLI imports it late)
        from repro.bench.experiments import EXPERIMENTS

        exp = _experiment(cli_args)
        result["sections"] = list(EXPERIMENTS) if exp == "all" else [exp]

        def timed():
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    status = cli.main(cli_args)
                if status:
                    raise RuntimeError(f"CLI exited with status {status}")
            finally:
                with open(args.stdout, "w") as f:
                    f.write(out.getvalue())
    else:
        import serve_mix

        ctx = serve_mix.setup(args.seed, smoke=args.smoke)

        def timed():
            result["ops"] = [dataclasses.asdict(op) for op in serve_mix.run(ctx)]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        clock.on_probe = tracer.skip
    result["setup_done"] = time.monotonic()
    clock.start()
    try:
        timed()
    except (Exception, SystemExit):
        result["error"] = traceback.format_exc()
    clock.stop()
    result["segments"] = clock.segments
    result["wall_s"] = sum(seconds for seconds, _, _ in clock.segments)
    if tracer is not None:
        result["layers"] = tracer.metrics(result["wall_s"])
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
