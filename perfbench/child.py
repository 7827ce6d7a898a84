"""Run one memthermo CLI invocation in this fresh process.

    python3 child.py [--trace SPANS] TIMING -- <memthermo arguments>

Imports `memthermo.cli` from the checkout's `src/` exactly as the console
script does, then calls `cli_dispatch`. Two monotonic timestamps are
written to TIMING: when `resolve_config` returned (end of set-up) and when
`cli_dispatch` returned (end of simulation and output). With `--trace`
the tracer is installed first and its spans are written to SPANS.
"""
import os
import sys
import time


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main(argv) -> int:
    spans = None
    if argv[0] == "--trace":
        spans, argv = argv[1], argv[2:]
    timing, sep, args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: child.py [--trace SPANS] TIMING -- ARGS")

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import memthermo.cli as cli
    import memthermo.config as config

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"memthermo imported from {cli.__file__}, not {src}")

    tracer = None
    if spans:
        sys.dont_write_bytecode = True   # keep the benchmark directory clean
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    marks = {}
    resolve = config.resolve_config

    def timed_resolve(*a, **k):
        cfg = resolve(*a, **k)
        marks["resolved"] = _now()
        return cfg

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("memthermo") and \
                getattr(mod, "resolve_config", None) is resolve:
            mod.resolve_config = timed_resolve

    code = cli.cli_dispatch(args)
    done = _now()
    if "resolved" not in marks:
        raise SystemExit("resolve_config was never called")
    with open(timing, "w") as fh:
        fh.write(f"{marks['resolved']} {done}\n")
    if tracer is not None:
        tracer.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
