"""Benchmark worker: imports the CLI once, then runs ops on request.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
It speaks JSON lines: one message per line on stdin, one reply per line
on the original stdout.  The CLI's own stdout and stderr are captured per
op, so they never mix with the replies.

Requests:
    {"cmd": "op", "id": i, "argvs": [[...], ...]}  run cli.main on each argv in turn
    {"cmd": "trace"}                               install the tracer
    {"cmd": "exit", "spans": path or null}         report and stop
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter, process_time


def _peak_rss_kb() -> int:
    """Peak resident set of this process's own address space.

    ru_maxrss is not used first: Linux carries it over from the forking
    client through exec, so it would report the client's memory too.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _send(channel, message: dict) -> None:
    channel.write(json.dumps(message) + "\n")
    channel.flush()


def main() -> int:
    channel = sys.stdout
    start = perf_counter()
    import qdriftlab.cli  # noqa: F401  (the cost every CLI invocation pays)

    import_s = perf_counter() - start
    # CPU seconds since this process began: interpreter start plus the import.
    _send(channel, {"ready": True, "import_s": import_s, "setup_cpu_s": process_time()})

    tracer = None
    for line in sys.stdin:
        request = json.loads(line)
        cmd = request["cmd"]
        if cmd == "op":
            if tracer is not None:
                tracer.op_id = request["id"]
            out, err = io.StringIO(), io.StringIO()
            codes: list[int] = []
            error = None
            t0, c0 = perf_counter(), process_time()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    for argv in request["argvs"]:
                        codes.append(sys.modules["qdriftlab.cli"].main(argv))
            except Exception:  # noqa: BLE001  (an op that raises is a failed op, not a dead worker)
                error = traceback.format_exc()
            except SystemExit as exc:  # argparse rejects bad argv this way
                error = f"SystemExit({exc.code})"
            seconds = perf_counter() - t0
            cpu_seconds = process_time() - c0
            reply = {"id": request["id"], "seconds": seconds, "cpu_seconds": cpu_seconds, "codes": codes,
                     "error": error, "stdout": out.getvalue(), "stderr": err.getvalue()}
            if tracer is not None:
                reply["counts"] = tracer.take_counts()
            _send(channel, reply)
        elif cmd == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            _send(channel, {"tracing": True, "missing": tracer.missing})
        elif cmd == "exit":
            final = {"peak_rss_kb": _peak_rss_kb()}
            if tracer is not None:
                tracer.uninstall()
                final["layers"] = {str(k): v for k, v in tracer.summarize().items()}
                if request.get("spans"):
                    tracer.dump(request["spans"])
            _send(channel, final)
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
