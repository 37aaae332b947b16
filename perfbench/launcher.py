"""Run one liftlab CLI call with every liftlab module traced.

    python3 perfbench/launcher.py SPANS_OUT ARG...

Times `import liftlab.cli` as a span of its own, installs the tracer, calls
`liftlab.cli.main(ARG...)` and writes the spans to SPANS_OUT as JSON when
the call ends, however it ends. The exit status is the CLI's, as with
`python -m liftlab.cli ARG...`.
"""
import json
import sys

import tracing


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer(op=0)
    idx = tracer.begin(tracing.IMPORT)
    import liftlab.cli
    tracer.end(idx)
    tracing.install(tracer)
    try:
        return liftlab.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
