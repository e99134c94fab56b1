"""One pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, with ``PYTHONPATH`` pointing at
the checkout's ``src`` and BLAS pinned to one thread.  The script starts
the host-speed sampler, imports ``sobolevlab.cli``, prepares its inputs and
prints ``READY``; the parent times everything up to that line as set-up.
Then it drives the real entry point, ``sobolevlab.cli.main``, checks the
outputs and writes a JSON result file.  With ``--setup-only`` it writes
only what set-up needs and exits after ``READY``.

Usage: python3 perfbench/child.py --workload NAME --seed N --work DIR
       --result FILE [--manifest FILE] [--trace] [--spans FILE] [--setup-only]
"""

import argparse
import json
import os
import sys

from hostspeed import HostSpeed


def _parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="pass directory; reports go to WORK/out")
    parser.add_argument("--result", required=True)
    parser.add_argument("--manifest", help="scenario manifest for spec-mix")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    speed = HostSpeed()
    speed.start()
    args = _parse_args(argv)
    from sobolevlab import cli  # the import is part of set-up

    out_dir = os.path.join(args.work, "out")
    os.makedirs(out_dir, exist_ok=True)
    manifest = None
    if args.manifest:
        with open(args.manifest, encoding="utf-8") as fh:
            manifest = json.load(fh)
    speed.sample()
    print("READY", flush=True)
    # what set-up looked like to the sampler, for normalizing the set-up time
    result = {"setup_busy_s": sum(speed.durations), "setup_scale": speed.scale(0.0, speed.starts[-1])}
    if not args.setup_only:
        import passes

        result.update(passes.run_pass(cli, args.workload, args.seed, out_dir, manifest, args.trace, args.spans, speed))
    speed.stop()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
