"""Run one workload's ksig CLI commands in this fresh interpreter.

    python3 child.py <spec.json> <result.json>

The spec names the source tree, the commands (argv, working directory and
KSIG_OUTDIR of each) and whether to trace.  Wall time is summed over the
`ksig.cli.main` calls, from entry to return.  The result file gets the exit
codes and that time, and for a traced run the per-layer metrics; the spans
themselves go to the spec's `spans` path.
"""

import json
import os
import sys
from time import perf_counter


def main():
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import ksig.cli

    if not os.path.realpath(ksig.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"ksig imported from {ksig.cli.__file__}, not from {src}")
    recorder = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer

        recorder = tracer.Tracer()
        tracer.install(recorder)

    codes = []
    wall = 0.0
    for cmd in spec["commands"]:
        os.chdir(cmd["cwd"])
        os.environ["KSIG_OUTDIR"] = cmd["outdir"]
        start = perf_counter()
        try:
            code = ksig.cli.main(cmd["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        wall += perf_counter() - start
        codes.append(code)
        if code != 0:
            break

    result = {"codes": codes, "wall_s": wall}
    if recorder is not None:
        result["layers"] = tracer.layer_metrics(recorder.spans)
        recorder.write(spec["spans"], spec["run_id"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
