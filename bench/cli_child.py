"""Run one `cohft` command under the benchmark's wrappers.

usage: PYTHONPATH=src python bench/cli_child.py TRACE_FILE ARGS...

Stdout, stderr and the exit code are the command's own; the spans and
counters of the run go to TRACE_FILE as JSON, for the parent to merge.
"""

import sys

import cohft.cli

import tracer as tracing


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.start_job(0)
    try:
        code = cohft.cli.main(argv)
    finally:
        root_s = tracer.end_job()
        tracer.write(trace_file, root_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
