"""Run the balacyc CLI with the outside-in tracer installed.

Usage: python traced_cli.py PREFIX CLI-ARGS...

Runs ``balacyc.cli.main(CLI-ARGS)`` exactly as ``python -m balacyc`` would,
then writes the spans to PREFIX.spans.jsonl and their summary to
PREFIX.summary.json, and exits with the CLI's exit code.
"""

import json
import sys


def main() -> int:
    import balacyc.cli
    from tracer import Tracer

    prefix, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = balacyc.cli.main(argv)
    finally:
        tracer.restore()
    tracer.dump(prefix + ".spans.jsonl")
    with open(prefix + ".summary.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
