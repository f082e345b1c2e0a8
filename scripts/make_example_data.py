#!/usr/bin/env python3
"""Write example CSV datasets for trying the covtest CLI.

Emits one file per departure strength: c = 0 is exactly linear in t, larger
c bends the curve further away from any straight line.
"""

import argparse
import sys
from pathlib import Path

from covtest import generate_dataset, save_csv


def integer_list(text: str) -> list[int]:
    """Comma-separated integers: each file's random stream is keyed by (seed, c)."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=100)
    parser.add_argument("--sigma", type=float, default=0.25)
    parser.add_argument("--c", type=integer_list, default="0,2,4")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default="example_data")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for c in args.c:
        path = out / f"pl_m{args.m}_sigma{args.sigma:g}_c{c}.csv"
        save_csv(generate_dataset(args.m, args.sigma, c, seed=(args.seed, c)), path)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
