"""Write one workload's inputs and its manifest, in a fresh interpreter.

    python3 perfbench/prepare.py --workload opt_random --seed 1 --out DIR

``run.py`` times this script as the benchmark's set-up: a cold import of
zxparam plus generating, emitting and writing every circuit of one pass.
"""

import argparse
import json
from pathlib import Path

from checkout import use_checkout_sources

use_checkout_sources()

from workloads import WORKLOADS, prepare  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    jobs = prepare(args.workload, args.seed, args.out)
    (args.out / "manifest.json").write_text(json.dumps(jobs, indent=1) + "\n")


if __name__ == "__main__":
    main()
