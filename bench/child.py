"""One cold benchmark process: import the CLI, run commands, report.

Usage: child.py SPEC RESULT SPAWN_NS

SPEC is a JSON file with ``commands`` (argv lists for ``audioactive.cli.main``),
``trace`` (time the library's public functions around the commands) and
``probes`` (names from ``layers.PROBES`` mapped to their inputs, run after
the commands).  SPAWN_NS is the parent's ``time.monotonic_ns()`` just
before it started this process, so the set-up time covers interpreter
start-up and the package import.  The result JSON goes to RESULT and
command i prints to RESULT.out<i>.
"""

import os
import sys
import time


def run_command(cli, argv: list[str], stdout_path: str) -> dict:
    import contextlib
    import io
    import traceback

    err = io.StringIO()
    with open(stdout_path, "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an internal failure: a user would see a traceback and exit 1
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - t0
    return {"exit": code, "stderr": err.getvalue()[-2000:], "seconds": seconds}


def main() -> None:
    spawn_ns = int(sys.argv[3])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import audioactive.cli as cli

    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9

    import contextlib
    import json
    import resource

    import layers

    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    recorder = layers.Recorder()
    tracing = layers.traced(recorder) if spec.get("trace") else contextlib.nullcontext()
    with tracing:
        results = [
            run_command(cli, argv, f"{sys.argv[2]}.out{i}") for i, argv in enumerate(spec["commands"])
        ]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes = {name: layers.PROBES[name](recorder, inputs) for name, inputs in spec.get("probes", {}).items()}
    report = {
        "setup_s": setup_s,
        "commands": results,
        "peak_rss_mb": peak_rss_mb,
        "library_s": recorder.library_s,
        "layers": recorder.values,
        "probes": probes,
    }
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
