"""Set-up as a fresh process does it: import cvb, then generate the seeded
inputs (and, for cli-pipeline, write them to ``--out``).  ``run.py`` times
this script from spawn to exit to get ``setup_s``."""

import argparse
from pathlib import Path

import workloads  # imports cvb


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    workloads.setup(args.workload, args.seed, workloads.SIZES[args.size], args.out)


if __name__ == "__main__":
    main()
