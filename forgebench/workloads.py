"""The four workloads: the forge commands that build their inputs, and the
request list of one pass.

Every path is relative to the workload's input directory, which is the
working directory of each forge child.  A request is checked against the
records frozen in data/expected.json under its command line, unless it
names an oracle: requests over a seeded knot table are checked by an
independent coloring count instead.
"""

from dataclasses import dataclass

# The Klein four-group; the tetrahedral quandle is its generalized Alexander
# quandle under the cyclic automorphism (0 2 3 1).
KLEIN_GROUP = "#group\n4\n1 2 3 4\n2 1 4 3\n3 4 1 2\n4 3 2 1\n"

# The two seeded knot tables of `invariant`, as (strands, crossings).  The
# E(Sym(4) transpositions) table stays at 4 strands so that the grid-walk
# oracle (12^4 assignments) is cheap; the alexander(16,3) table carries the
# scan cost, checked by linear algebra.  Crossing counts have the parity of
# strands - 1.
E12_KNOTS = ((4, 9), (4, 11), (4, 13), (4, 15), (4, 11), (4, 13))
A16_KNOTS = ((6, 15), (5, 14), (5, 12), (4, 13), (4, 11))


@dataclass(frozen=True)
class Request:
    args: tuple
    # None: compare with the frozen records; "grid": count colorings with the
    # grid walk of tests/oracles.py; (n, t): the base is alexander(n, t)
    oracle: object = None


@dataclass(frozen=True)
class Workload:
    setup: tuple        # requests that build the inputs, run in order
    requests: tuple     # one pass
    knot_tables: tuple = ()   # (file, name prefix, schedule)


def _args(text):
    return tuple(text.split())


def _requests(lines):
    return tuple(Request(_args(line)) for line in lines)


TET = ("make galex --group klein.group --images 1,3,4,2 -o tet.quandle",)
SYM4 = ("make sym-group --n 4 -o s4.group",
        "make conj --group s4.group --elem 2 -o x6.quandle")
E12 = SYM4 + (
    "h2 --quandle x6.quandle --mod 2 --emit-reps reps/x6_m2",
    "extend --quandle x6.quandle --cocycle reps/x6_m2/rep0.cocycle "
    "-o e12.quandle")
E8 = TET + (
    "h2 --quandle tet.quandle --mod 2 --emit-reps reps/tet_m2",
    "extend --quandle tet.quandle --cocycle reps/tet_m2/rep0.cocycle "
    "-o e8.quandle")


def _h2():
    setup = TET + SYM4 + ("make dihedral --n 12 -o d12.quandle",
                          "make alexander --n 13 --t 2 -o a13_2.quandle",
                          "make alexander --n 16 --t 3 -o a16_3.quandle")
    reqs = []
    for q, m in [("d12", 2), ("d12", 4), ("a13_2", 3), ("a16_3", 2),
                 ("a16_3", 4), ("x6", 2), ("tet", 2)]:
        reqs.append(f"h2 --quandle {q}.quandle --mod {m} "
                    f"--emit-reps reps/{q}_m{m}")
    return Workload(setup=_requests(setup),
                    requests=_requests(reqs))


def _vendramin():
    setup = E8 + E12 + ("make dihedral --n 27 -o d27.quandle",
                        "make alexander --n 13 --t 2 -o a13_2.quandle",
                        "make alexander --n 17 --t 3 -o a17_3.quandle",
                        "make alexander --n 25 --t 2 -o a25_2.quandle")
    reqs = [f"vendramin --quandle {q}.quandle"
            for q in ("e8", "e12", "d27", "a13_2", "a17_3", "a25_2")]
    return Workload(setup=_requests(setup),
                    requests=_requests(reqs))


def _invariant():
    setup = E12 + (
        "h2 --quandle e12.quandle --mod 2 --emit-reps reps/e12_m2",
        "make alexander --n 16 --t 3 -o a16_3.quandle",
        "h2 --quandle a16_3.quandle --mod 4 --emit-reps reps/a16_3_m4")
    e12 = "--quandle e12.quandle --cocycle reps/e12_m2/rep0.cocycle"
    # rep2 is the first representative whose factor is 4
    a16 = "--quandle a16_3.quandle --cocycle reps/a16_3_m4/rep2.cocycle"
    reqs = (
        Request(_args(f"invariant {e12} --knots e12.knots"), "grid"),
        Request(_args(f"invariant {a16} --knots a16.knots"), (16, 3)),
        Request(_args(f"invariant {a16} --knots a16.knots --tangle"),
                (16, 3)),
    )
    return Workload(setup=_requests(setup), requests=reqs,
                    knot_tables=(("e12.knots", "e", E12_KNOTS),
                                 ("a16.knots", "a", A16_KNOTS)))


def _pipeline():
    setup = E12 + E8[:2] + (
        "make conj --group s4.group --elem 10 -o c4.quandle",
        "h2 --quandle c4.quandle --mod 4 --emit-reps reps/c4_m4",
        "make galex --group s4.group --conj-by 2 -o y24.quandle",
        "make dihedral --n 27 -o d27.quandle")
    x6 = "--quandle x6.quandle --cocycle reps/x6_m2/rep0.cocycle"
    once = [
        f"thm31 {x6}",
        "thm35 --quandle c4.quandle --cocycle reps/c4_m4/rep0.cocycle --d 2",
        "certify --quandle tet.quandle --cocycle reps/tet_m2/rep0.cocycle",
        *(f"{cmd} --quandle {q}.quandle" for q in ("e12", "y24", "d27")
          for cmd in ("props", "inn-seq")),
        "recover-ext --quandle e12.quandle -o recovered.cocycle",
        f"extend {x6} -o e12_again.quandle",
        f"invariant {x6} --tangle",
    ]
    # each request is mostly interpreter start-up and import, so the list is
    # repeated to make a pass of several seconds
    return Workload(setup=_requests(setup),
                    requests=_requests(once * 3))


WORKLOADS = {
    "h2": _h2(),
    "vendramin": _vendramin(),
    "invariant": _invariant(),
    "pipeline": _pipeline(),
}
