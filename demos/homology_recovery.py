"""Recover total homology from Tor data alone.

When cells enter a filtration one at a time, the Tor classes of the chains
modules line up into a small complex T whose homology is the homology of
the total space.  The script runs the construction on the one-at-a-time
circle and on the sphere fixture, printing the shape of T, the quotient Q
by the canonical cell copies, and the Betti comparison.
"""

import argparse
import os

from torpers import complexes, hypertor, modules

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "..", "fixtures")


def show(name, p):
    data = modules.ChainData(complexes.load_mfc(os.path.join(FIXTURES, name)), p)
    print("\n== %s over GF(%d) ==" % (name, p))
    page = hypertor.e1_page(data)
    print("one Tor class per cell: %s" % ("yes" if page.verdict else "no"))
    report = hypertor.recovered_homology(data)
    dims = report["t_dims"]
    arrows = " -> ".join("k^%d" % d for d in reversed(dims))
    print("T complex: %s (left to right: top degree down to 0)" % arrows)
    print("Q dims (after removing one canonical copy per cell): %s"
          % (report["q_dims"],))
    for ell, classes in enumerate(report["q_classes"]):
        for c in classes:
            if c["kind"] == "copy":
                print("  Q_%d class: extra copy of cell %r at %s"
                      % (ell, c["cell"], tuple(c["degree"])))
            else:
                print("  Q_%d class: syzygy of the %d-chains at %s"
                      % (ell, c["chain_dim"], tuple(c["degree"])))
    print("H(Q) vanishes: %s" % report["h_q_zero"])
    print("recovered Betti %s vs direct %s : %s"
          % (tuple(report["betti"]), tuple(report["direct"]),
             "MATCH" if report["match"] else "MISMATCH"))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--field", type=int, default=3)
    args = ap.parse_args()
    show("circle_oneatatime.mfc", args.field)
    show("sphere.mfc", args.field)
    print("\nthe sphere puts its 2-cell in twice; the duplicate copy and a")
    print("syzygy among the duplicated chains are exactly what Q consists")
    print("of, and they cancel in homology.")


if __name__ == "__main__":
    main()
