"""Traced child for one cli-cold invocation.

    python3 perfbench/cli_entry.py OUT.json -- <hopfwitt argv...>

Installs the tracer's wrappers, calls ``hopfwitt.cli.main(argv)`` (stdout
and the exit code are the CLI's own), restores every original, and writes
the tracer's totals and spans to OUT.json.
"""

import json
import sys

import tracing


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_entry.py OUT.json -- ARGV...")
    import hopfwitt.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = hopfwitt.cli.main(argv)
    except SystemExit as exc:  # argparse exits on bad usage
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.restore()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"trace": tracer.aggregate(), "spans": tracer.span_arrays()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
