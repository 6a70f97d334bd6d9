"""Constructions shared by several test modules."""

from quandleforge.cohomology import Cocycle2, second_cohomology
from quandleforge.constructions import abelian_extension
from quandleforge.pipeline import corpus_quandles


def corpus_extensions(max_base_order=6, moduli=(2, 3)):
    """Extensions E(X, Z_m, phi) over the corpus: the zero cocycle plus every
    cohomology representative, for each small connected-or-not base."""
    out = []
    for name, x in corpus_quandles(max_order=max_base_order):
        for m in moduli:
            reps = [("zero", Cocycle2.zero(x.n, m))]
            h = second_cohomology(x, m)
            for i, rep in enumerate(h.representatives):
                reps.append((f"h2gen{i}", rep))
            for tag, phi in reps:
                e, proj = abelian_extension(x, m, phi)
                out.append((f"E({name},Z{m},{tag})", x, m, phi, e, proj))
    return out
