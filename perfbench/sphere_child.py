"""External sphere objective speaking lisopt's line protocol.

Reads one point per line (space-separated decimals) and answers sum(x_i^2)
on one line.  It sums left to right, the order numpy uses for a row of four,
so its values equal ``benchmark("sphere", 4)`` bit for bit.

Usage: python3 perfbench/sphere_child.py [--count-file PATH]
With --count-file, the number of points answered is written there on exit.
"""

import sys


def main(argv):
    count_file = argv[argv.index("--count-file") + 1] if "--count-file" in argv else None
    count = 0
    out = sys.stdout
    for line in sys.stdin:
        s = 0.0
        for v in line.split():
            x = float(v)
            s += x * x
        out.write(repr(s) + "\n")
        out.flush()
        count += 1
    if count_file is not None:
        with open(count_file, "w") as fh:
            fh.write(f"{count}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
