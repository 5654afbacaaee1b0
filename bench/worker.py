"""One benchmark repeat in a fresh interpreter: set up, then run one CLI command.

    python3 bench/worker.py '<spec as JSON>'

The spec names the package source directory, the text of `run.ini`, the
set-up command (gen-data) and the timed command, both as `fisherjscc.cli.main`
argument lists run in the current directory. The worker writes one JSON
document to spec["result"]:

    ready      time.monotonic() when the timed command was about to start
    setup_exit / exit   exit codes (or an "error: ..." string when it raised)
    wall_s, cpu_s       wall and process CPU (all threads) of the timed command
    peak_rss_mb         peak RSS of this process
    trace               spans and counters, when spec["trace"] is true
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _call(main, argv) -> int | str:
    try:
        return int(main(argv))
    except SystemExit as exc:           # argparse rejects a command line this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:            # the benchmark counts a raise as a failed operation
        traceback.print_exc()
        return f"error: {type(exc).__name__}: {exc}"


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import fisherjscc.cli  # noqa: F401  (import time is part of set-up)

    tracer = None
    absent: list[str] = []
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracing

        tracer = tracing.Tracer(request=f"{spec['request']}/setup")
        absent = tracing.install(tracer)

    Path("run.ini").write_text(spec["config"], encoding="utf-8")
    setup_exit = _call(fisherjscc.cli.main, spec["setup"])

    result: dict = {"setup_exit": setup_exit, "ready": time.monotonic()}
    if setup_exit == 0:
        if tracer is not None:
            tracer.request = spec["request"]
        cpu0, wall0 = time.process_time(), time.perf_counter()
        result["exit"] = _call(fisherjscc.cli.main, spec["command"])
        result["wall_s"] = time.perf_counter() - wall0
        result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracing.dump(tracer)
        result["absent"] = absent
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
