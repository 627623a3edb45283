"""One benchmark process: import spgroth from the checkout, run CLI ops
back to back through `spgroth.cli.main(argv)`, and report as JSON on stdout.

Usage: python3 perfbench/child.py <src> '<spec>' where src is the directory
holding spgroth and spec is a JSON object {"ops": [[argv...], ...],
"trace": bool}.  With no ops the process only measures set-up, which is the
import of spgroth.cli plus one parser build; json is imported after it
because spgroth.cli imports json itself.  Each op's stdout goes to a
sink that hashes it, so no output is kept in memory.  Exit codes: 0 after a
report, 2 when spgroth cannot be imported from src.
"""

import sys
import time


def main() -> int:
    import os

    src = os.path.realpath(sys.argv[1])
    sys.path.insert(0, src)

    start = time.perf_counter()
    try:
        import spgroth.cli as cli
    except ImportError as exc:
        print(f"child: cannot import spgroth from {src}: {exc}", file=sys.stderr)
        return 2
    cli.build_parser()
    setup_s = time.perf_counter() - start
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"child: spgroth was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    import contextlib
    import hashlib
    import io
    import json

    spec = json.loads(sys.argv[2])

    class DigestSink(io.TextIOBase):
        def __init__(self):
            self.sha = hashlib.sha256()
            self.nbytes = 0

        def writable(self):
            return True

        def write(self, text):
            data = text.encode()
            self.sha.update(data)
            self.nbytes += len(data)
            return len(text)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    run = sys.modules["spgroth.cli"].main

    ops = []
    for argv in spec["ops"]:
        sink = DigestSink()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        ops.append({"argv": argv, "exit": code, "error": error, "start": t0, "end": t1,
                    "sha256": sink.sha.hexdigest(), "bytes": sink.nbytes})

    report = {"setup_s": setup_s, "ops": ops, "vm_hwm_mb": _vm_hwm_mb()}
    if ops:
        report["wall_s"] = ops[-1]["end"] - ops[0]["start"]
    if tracer is not None:
        tracer.out_bytes = sum(op["bytes"] for op in ops)
        report["layers"] = tracer.metrics()
        report["spans"] = tracer.span_table()
    print(json.dumps(report))
    return 0


def _vm_hwm_mb():
    """Peak resident set of this process image, or None off Linux.  Unlike
    ru_maxrss it starts afresh at exec, so it excludes the runner's own
    memory."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
