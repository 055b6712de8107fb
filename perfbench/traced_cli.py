"""Run one nilspec command with layer spans recorded, then write them out.

    python3 perfbench/traced_cli.py SPANS_FILE COMMAND [nilspec.cli options]

Traced runs use this for the CLI sweep in place of `python -m nilspec.cli`;
the exit code is the command's own.
"""

import json
import sys

import spans


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    import nilspec.cli

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return nilspec.cli.main(argv)
    finally:
        with open(path, "w") as fh:
            json.dump({"spans": tracer.spans, "eigh_flop": tracer.eigh_flop}, fh)


if __name__ == "__main__":
    sys.exit(main())
