"""How often c08-c12 pass by chance: run them at other master seeds.

The acceptance gate runs each statistical criterion at master seed 0.
This script, which is not part of the test suite, runs the same
configurations, readings and bounds (tests/test_acceptance.py) at master
seeds 1-10 and prints each criterion's line per seed, then per criterion
its pass count and the min, median and max of every reading.  It takes
about half an hour on a 2-core machine, most of it c10; c08 takes about
a minute.  Criterion numbers given as arguments restrict the sweep to
those criteria.

    PYTHONPATH=src python tests/seed_sweep.py        # c08-c12
    PYTHONPATH=src python tests/seed_sweep.py 10     # c10 only
"""

import statistics
import sys

from test_acceptance import STATISTICAL, report

SEEDS = range(1, 11)


def main(argv):
    nums = [int(a) for a in argv] or list(STATISTICAL)
    unknown = [num for num in nums if num not in STATISTICAL]
    if unknown:
        sys.exit(f"no statistical criterion {unknown}; choose from {list(STATISTICAL)}")
    for num in nums:
        criterion = STATISTICAL[num]
        passed = 0
        readings = {}
        for seed in SEEDS:
            reading = criterion(seed)
            print(f"seed {seed}: ", end="")
            report(num, reading.ok, reading.detail, reading.clauses)
            passed += reading.ok
            # a clause's label is "name op bound"; a reading bounded on
            # both sides is kept once
            for name, value in {c[0].rsplit(" ", 2)[0]: c[1] for c in reading.clauses}.items():
                readings.setdefault(name, []).append(value)
            sys.stdout.flush()
        print(f"criterion {num:02d}: {passed}/{len(SEEDS)} seeds pass")
        for name, values in readings.items():
            print(f"  {name}: min {min(values):.4g}, median "
                  f"{statistics.median(values):.4g}, max {max(values):.4g}")
        sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
