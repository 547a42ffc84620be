"""Run one `adalam` CLI command with its calls into the library traced.

Usage: cli_traced.py SPANS_JSON ARGV...

Wraps the library functions the CLI module calls (file I/O, matcher,
filter, scene generator) in spans, runs `adalam.cli.main(ARGV)` and
writes the spans to SPANS_JSON. The exit code is the CLI's own.
"""
import sys

from tracing import Tracer

LAYERS = {
    "read_keypoints": "fileio.read_keypoints",
    "write_keypoints": "fileio.write_keypoints",
    "read_matches": "fileio.read_matches",
    "write_matches": "fileio.write_matches",
    "nn_match": "matching.nn_match",
    "adalam_filter": "filtering.adalam_filter",
    "generate_scene": "synth.generate_scene",
}


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(enabled=True)
    with tracer.span("cli.import"):
        import adalam.cli as cli
    for attr, name in LAYERS.items():
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr)))
    with tracer.span("cli.main"):
        code = cli.main(argv)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
