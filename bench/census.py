"""Ladder census: how deep the exponent oracle goes on the criterion-03 grid.

    python3 bench/census.py [--slopes 4800]

Draws seeded slopes the way oracle-sweep does (quotients 1-9, preperiod 0-2,
period 1-4, the 12 shapes in turn) and prints

  * per oracle cell of the full grid (k 1-3, m 1-40): the share of cells
    whose oracle ladder stops at each length, and the share capped (needing
    a language longer than 2000);
  * per slope with ORACLE_CELLS_PER_SLOPE cells drawn uniformly from the
    whole grid (k 1-4, m 1-60): the share of each ladder class.

The second table is what ORACLE_CLASSES in workloads.py is built from.  The
ladder depth of a cell follows from the closed-form exponent alone, so the
census builds no factor language.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave no __pycache__ in src/ or bench/
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))
import sturmian_spectra as S  # noqa: E402
import workloads as W  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--slopes", type=int, default=4800)
    args = parser.parse_args(argv)

    rng = random.Random("census")
    source = W.SlopeSource(S, rng, range(3), range(1, 5), 9)
    oracle_cells = [c for c in W.ORACLE_GRID if W.is_oracle_cell(*c)]
    cells, classes = Counter(), Counter()
    for _ in range(args.slopes):
        alpha = source.next().value()
        depth = {}
        for k, m in oracle_cells:
            exponent = S.max_kab_exponent(alpha, k, m, with_witness=False).exponent
            depth[k, m] = W.oracle_ladder_depth(exponent, m)
            cells[depth[k, m], (exponent + 1) * m > W.ORACLE_CAP] += 1
        sample = rng.sample(W.ORACLE_GRID, W.ORACLE_CELLS_PER_SLOPE)
        classes[max([256] + [depth[c] for c in sample if c in depth])] += 1

    total = sum(cells.values())
    print(f"oracle cells of the full grid, {args.slopes} slopes ({total} cells):")
    for (length, capped), n in sorted(cells.items()):
        label = f"{length} capped" if capped else str(length)
        print(f"  ladder {label:<12}{n:>8}{n / total:>8.3f}")
    print(f"ladder class of a slope with {W.ORACLE_CELLS_PER_SLOPE} uniform cells:")
    for length, n in sorted(classes.items()):
        label = "<=256" if length == 256 else str(length)
        share = W.ORACLE_CLASSES.count(length) / len(W.ORACLE_CLASSES)
        print(f"  class {label:<7}{n:>8}{n / args.slopes:>8.3f}   in ORACLE_CLASSES {share:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
