"""Walk through every invariant of the bifiltered circle fixture.

Three vertices appear at the origin, edges close the triangle one by one,
so H_0 starts at rank 3 and drops to 1, while H_1 appears once the last
edge arrives at (2,1).  The script prints the xi tables of both homology
modules, the hypertor table of the whole complex, and the second
differential connecting them.
"""

import argparse
import os

from torpers import cli, complexes, hypertor, modules, tor

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "..", "fixtures", "circle_fig.mfc")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--field", type=int, default=5)
    args = ap.parse_args()
    p = args.field

    cx = complexes.load_mfc(FIXTURE)
    print("circle fixture: %d cells, grid bound %s, field %d" % (
        len(cx.cells), cx.natural_bound(), p))
    data = modules.ChainData(cx, p)

    for q in (0, 1):
        H = modules.homology_module(data, q)
        table = tor.xi(H)
        print("\nxi table of H_%d:" % q)
        for j in range(cx.n + 1):
            print("  xi_%d = %s" % (j, cli.fmt_multiset(table.tables[j])))
    print("\nH_0 needs three generators, three relations and one syzygy;")
    print("H_1 is free on a single generator born at (2,1).")

    print("\nhypertor of the chain complex as a whole:")
    tables = hypertor.hypertor_dims(data)
    for ell in sorted(tables):
        print("  l=%d : %s" % (ell, cli.fmt_multiset(tables[ell])))
    print("the l=0 and l=1 rows repeat xi_0 and xi_1 of H_0, and nothing")
    print("survives at l>=2: the syzygy of H_0 and the generator of H_1")
    print("cancel, which the second differential now exhibits.")

    result = hypertor.d2(data, 0)
    print("\nd2 out of the homology row q=0:")
    for v, m in sorted(result.mats.items()):
        print("  at %s: %s" % (v, m.tolist()))
    print("a 1x1 invertible block from degree (2,1) to degree (2,1);")
    print("over GF(%d) the entry is %d, that is -1." % (p, (p - 1) % p))


if __name__ == "__main__":
    main()
