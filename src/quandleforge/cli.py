"""forge: the command-line interface.

Every subcommand writes line-oriented JSON records to stdout and a short
human summary to stderr.  Exit codes: 0 ok (--help included); 1 the input
is at fault (a usage error or bad data, a request over a budget
included); 2 a self-check of a computed result or a mechanically checked
theorem failed (TheoremViolation, one "THEOREM VIOLATION:" line on
stderr), which is an implementation bug.  Every check of a derived value,
from an H^2 representative to a make family's table, fails through
errors.computed, so it exits 2, never 1.  A value of an int option, or an
item of make --images, that is not an integer is a usage error.  _SHARED
declares once the options that several subcommands take: --quandle,
--cocycle, --knots and -o (none sets a budget).  A command writes its files
before it prints a record, so a request whose file cannot be written
prints none.  h2 --emit-reps DIR creates DIR and its missing parents; -o
FILE creates no directory.  Element indices inside records (validate's
witness, vendramin's collision) are 0-based, while files, --elem,
--conj-by and --images are 1-based.
"""

import argparse
import json
import os
import sys

# core and errors load with every command; the other layers are reached
# through their modules at call time, so a command executes only the layers
# it uses (see the package docstring)
from . import cohomology, constructions, envgroup, pipeline
from . import io as qio
from . import knots as qknots
from .core import inn_image, inner_group, is_connected, is_faithful
from .errors import AxiomViolation, QuandleError, TheoremViolation


def emit(record):
    print(json.dumps(record, sort_keys=True))


def note(msg):
    print(msg, file=sys.stderr)


def _load_knots(args):
    if args.knots:
        return qio.read_knots(args.knots)
    return qknots.bundled_knots()


def _write_text(text, args, summary, record=None):
    """Write a quandle or group file to -o, or to stdout without -o, after
    the record if one is given.  The file is written before the record is
    printed, so a failed write prints none."""
    if args.output:
        qio.write_text(args.output, text)
        summary = f"{summary} -> {args.output}"
    if record is not None:
        emit(record)
    if not args.output:
        sys.stdout.write(text)
    note(summary)


def cmd_validate(args):
    try:
        q = qio.read_quandle(args.quandle)
    except AxiomViolation as exc:
        emit({"record": "validate", "ok": False, "kind": exc.kind,
              "witness": exc.witness})
        note(f"axiom violation: {exc}")
        return 1
    emit({"record": "validate", "ok": True, "order": q.n})
    note(f"valid quandle of order {q.n}")
    return 0


def cmd_props(args):
    q = qio.read_quandle(args.quandle)
    inn_order = len(inner_group(q))
    img, _ = inn_image(q)
    rec = {
        "record": "props",
        "order": q.n,
        "connected": is_connected(q),
        "faithful": img.n == q.n,
        "inner_group_order": inn_order,
        "inn_image_order": img.n,
    }
    emit(rec)
    note(f"order {q.n}: connected={rec['connected']} "
         f"faithful={rec['faithful']} |Inn|={inn_order} |inn(Q)|={img.n}")
    return 0


def cmd_inn_seq(args):
    q = qio.read_quandle(args.quandle)
    seq = pipeline.inn_sequence(q)
    orders = [x.n for x in seq.quandles]
    emit({"record": "inn_sequence", "orders": orders,
          "terminal_faithful": seq.terminal_faithful})
    note(" -> ".join(str(o) for o in orders) + "  (terminal faithful)")
    return 0


def cmd_h2(args):
    q = qio.read_quandle(args.quandle)
    h = cohomology.second_cohomology(q, args.mod)
    records = [{"record": "h2", "mod": args.mod,
                "invariant_factors": list(h.invariant_factors),
                "order": h.order}]
    if args.emit_reps:
        os.makedirs(args.emit_reps, exist_ok=True)
        for i, rep in enumerate(h.representatives):
            path = os.path.join(args.emit_reps, f"rep{i}.cocycle")
            qio.write_text(path, qio.cocycle_to_text(
                rep, comment=f"H2 representative {i}, factor "
                f"{h.invariant_factors[i]}"))
            records.append({"record": "h2_rep", "index": i, "path": path,
                            "factor": h.invariant_factors[i]})
    for rec in records:
        emit(rec)
    factors = " x ".join(f"Z{d}" for d in h.invariant_factors) or "trivial"
    note(f"H2(Q, Z{args.mod}) = {factors}")
    return 0


def cmd_extend(args):
    q = qio.read_quandle(args.quandle)
    phi = qio.read_cocycle(args.cocycle)
    e = constructions.abelian_extension(q, phi)
    rec = {"record": "extend", "base_order": q.n, "mod": phi.m,
           "extension_order": e.n,
           "connected": is_connected(e), "faithful": is_faithful(e)}
    summary = f"extension of order {e.n}"
    _write_text(qio.quandle_to_text(e, comment=summary), args, summary, rec)
    return 0


def cmd_invariant(args):
    q = qio.read_quandle(args.quandle)
    if not (args.tangle or args.cocycle):
        raise QuandleError("invariant needs --cocycle unless --tangle is set")
    phi = None
    if not args.tangle:
        phi = qio.read_cocycle(args.cocycle)
        cohomology.cocycle(q, phi)
    knots = _load_knots(args)
    for k in knots:
        if args.tangle:
            cols = qknots.tangle_colorings(q, k)
            mono = all(c.y0 == c.y1 for c in cols)
            emit({"record": "tangle", "knot": k.name,
                  "colorings": len(cols), "end_monochromatic": mono})
        else:
            inv = qknots.state_sum(q, phi, k)
            emit({"record": "invariant", "knot": k.name, "mod": phi.m,
                  "coefficients": list(inv.coeffs),
                  "constant": qknots.is_constant(inv)})
    note(f"{len(knots)} knots processed")
    return 0


def cmd_vendramin(args):
    q = qio.read_quandle(args.quandle)
    crit = envgroup.conjugation_criterion(q)
    rec = {"record": "vendramin", "verdict": crit.verdict}
    if crit.connected:
        rec["finite_enveloping_order"] = crit.order
        if crit.collision is not None:
            rec["collision"] = list(crit.collision)
    emit(rec)
    note(f"conjugation quandle: {rec['verdict']}")
    return 0


def cmd_recover_ext(args):
    q = qio.read_quandle(args.quandle)
    img, f = inn_image(q)
    phi = pipeline.recover_index2_cocycle(f)
    if args.output:
        qio.write_text(args.output, qio.cocycle_to_text(
            phi, comment="recovered from the inner representation"))
    emit({"record": "recover_ext", "base_order": img.n,
          "cocycle": [list(r) for r in phi.values]})
    note(f"cocycle -> {args.output}" if args.output
         else "recovered index-2 cocycle")
    return 0


def cmd_thm31(args):
    q = qio.read_quandle(args.quandle)
    phi = qio.read_cocycle(args.cocycle)
    verdict = pipeline.constancy_pipeline(q, phi, knots=_load_knots(args))
    emit({"record": "constancy",
          "extension_order": verdict.extension.n,
          "is_conjugation": verdict.is_conjugation,
          "inn_preimage_found": verdict.is_conjugation == "yes",
          "all_constant": verdict.invariant_constant_on_corpus,
          "invariants": {k: list(v.coeffs)
                         for k, v in verdict.invariants.items()}})
    note(f"conjugation={verdict.is_conjugation} "
         f"all_constant={verdict.invariant_constant_on_corpus}")
    return 0


def cmd_thm35(args):
    q = qio.read_quandle(args.quandle)
    psi = qio.read_cocycle(args.cocycle)
    report = pipeline.power_coefficient_check(q, psi, args.d,
                                              knots=_load_knots(args))
    m = psi.m // args.d
    held = (report.verdict is not None
            and report.verdict.is_conjugation == "yes")
    # vanishing is never False: Theorem 3.1 is checked on the phi-invariant,
    # which folds the psi-invariant, and coefficients count colorings, so a
    # constant fold forces a_k = 0 for every k != 0 (mod m)
    vanishing = True if m == 1 or held else None
    emit({"record": "power_check", "n": psi.m, "d": args.d, "m": m,
          "hypothesis_held": held, "vanishing_ok": vanishing,
          "coefficients": {k: list(v.coeffs)
                           for k, v in report.invariants.items()}})
    note(f"m={m} hypothesis={held} vanishing={vanishing}")
    return 0


def cmd_certify(args):
    q = qio.read_quandle(args.quandle)
    phi = qio.read_cocycle(args.cocycle)
    verdict = pipeline.nonconstancy_certificates(
        q, phi, knots=_load_knots(args))
    if verdict is None:
        emit({"record": "certificate", "emitted": False})
        note("all invariants constant; no certificate")
        return 0
    witnesses = [name for name, inv in verdict.invariants.items()
                 if not qknots.is_constant(inv)]
    emit({"record": "certificate", "emitted": True,
          "extension_order": verdict.extension.n,
          "witness_knots": witnesses,
          "conjugation_verdict": verdict.is_conjugation})
    note(f"E(X, Z_{phi.m}, phi) of order {verdict.extension.n} admits no "
         f"finite quandle Y with inn(Y) isomorphic to it, and is not a "
         f"conjugation quandle (witnessing knots: {', '.join(witnesses)})")
    return 0


def _element(g, flag, v):
    """The 0-based index of the group element given 1-based as flag v."""
    if not 1 <= v <= g.order:
        raise QuandleError(f"{flag} {v} is not a group element; the group's "
                           f"elements are 1..{g.order}")
    return v - 1


# the families of `forge make`, in --help order, and the options each cannot
# do without
_MAKE_NEEDS = {"dihedral": ("n",), "trivial": ("n",), "alexander": ("n", "t"),
               "conj": ("group", "elem"), "galex": ("group",),
               "cyclic-group": ("n",), "sym-group": ("n",)}


def cmd_make(args):
    missing = [f"--{opt}" for opt in _MAKE_NEEDS[args.family]
               if getattr(args, opt) is None]
    if args.family == "galex" and args.conj_by is None \
            and args.images is None:
        missing.append("--conj-by or --images")
    if missing:
        raise QuandleError(f"make {args.family} needs {', '.join(missing)}")
    if args.family == "galex" and args.conj_by is not None \
            and args.images is not None:
        raise QuandleError("make galex takes one of --conj-by and --images")
    record = None
    if args.family == "dihedral":
        q = constructions.dihedral_quandle(args.n)
        summary = f"dihedral quandle of order {args.n}"
    elif args.family == "trivial":
        q = constructions.trivial_quandle(args.n)
        summary = f"trivial quandle of order {args.n}"
    elif args.family == "alexander":
        q = constructions.alexander_quandle(args.n, args.t)
        summary = f"alexander quandle mod {args.n}, t={args.t}"
    elif args.family == "conj":
        g = qio.read_group(args.group)
        q, labels = constructions.conjugation_quandle(
            g, _element(g, "--elem", args.elem))
        summary = f"conjugacy class of element {args.elem}, order {q.n}"
        record = {"record": "conj_labels",
                  "labels": [v + 1 for v in labels]}
    elif args.family == "galex":
        g = qio.read_group(args.group)
        if args.conj_by is not None:
            f = constructions.conjugation_automorphism(
                g, _element(g, "--conj-by", args.conj_by))
        else:
            images = tuple(_element(g, "--images", v) for v in args.images)
            if len(images) != g.order:
                raise QuandleError(
                    f"--images gives {len(images)} values; the group has "
                    f"{g.order} elements")
            f = constructions.GroupAutomorphism(g, images)
        q = constructions.generalized_alexander_quandle(g, f)
        summary = f"generalized Alexander quandle of order {q.n}"
    elif args.family == "cyclic-group":
        summary = f"cyclic group of order {args.n}"
        g = constructions.cyclic_group(args.n)
        _write_text(qio.group_to_text(g, comment=summary), args, summary)
        return 0
    elif args.family == "sym-group":
        summary = f"symmetric group on {args.n} points"
        g, _ = constructions.symmetric_group(args.n)
        _write_text(qio.group_to_text(g, comment=summary), args, summary)
        return 0
    _write_text(qio.quandle_to_text(q, comment=summary), args, summary,
                record)
    return 0


def _int_list(text):
    """--images: comma-separated integers, each parsed as an int option."""
    values = text.split(",")
    for i, v in enumerate(values):
        try:
            values[i] = int(v)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {v!r}")
    return values


# the options that several commands take, declared once: build_parser adds
# them by name, in each command's order
_SHARED = {
    "quandle": (("--quandle",), {"required": True}),
    "cocycle": (("--cocycle",), {"required": True}),
    "knots": (("--knots",), {}),
    "output": (("-o", "--output"), {}),
}


def _add_shared(p, *names):
    for flags, kw in (_SHARED[name] for name in names):
        p.add_argument(*flags, **kw)
    return p


def build_parser():
    ap = argparse.ArgumentParser(
        prog="forge",
        description="finite quandles: extensions, cohomology, cocycle knot "
                    "invariants, enveloping groups")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, *shared, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        return _add_shared(p, *shared)

    add("validate", cmd_validate, "quandle", help="check the quandle axioms")
    add("props", cmd_props, "quandle", help="structural properties")
    add("inn-seq", cmd_inn_seq, "quandle",
        help="iterate the inner representation to a faithful quandle")
    p = add("h2", cmd_h2, "quandle",
            help="second cohomology with Z_m coefficients")
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--emit-reps", metavar="DIR")
    add("extend", cmd_extend, "quandle", "cocycle", "output",
        help="build an abelian extension")

    p = add("invariant", cmd_invariant, "quandle",
            help="cocycle state-sum invariants over a knot table")
    p.add_argument("--cocycle", help="required unless --tangle is set")
    _add_shared(p, "knots")
    p.add_argument("--tangle", action="store_true",
                   help="report 1-tangle colorings instead")

    add("vendramin", cmd_vendramin, "quandle",
        help="decide the conjugation-quandle criterion")
    add("recover-ext", cmd_recover_ext, "quandle", "output",
        help="recover the Z_2 cocycle of an index-2 inner representation")
    add("thm31", cmd_thm31, "quandle", "cocycle", "knots",
        help="extension constancy pipeline over the knot corpus")
    p = add("thm35", cmd_thm35, "quandle", "cocycle",
            help="power-cocycle coefficient vanishing check")
    p.add_argument("--d", type=int, required=True)
    _add_shared(p, "knots")
    add("certify", cmd_certify, "quandle", "cocycle", "knots",
        help="emit no-inner-preimage certificates from non-constant "
             "invariants")

    p = add("make", cmd_make, help="construct quandles and groups")
    p.add_argument("family", choices=list(_MAKE_NEEDS))
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--group")
    p.add_argument("--elem", type=int,
                   help="1-based group element, matching the file format")
    p.add_argument("--conj-by", type=int,
                   help="1-based group element to conjugate by")
    p.add_argument("--images", type=_int_list,
                   help="comma-separated 1-based images")
    _add_shared(p, "output")

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which is bad
        # input here: 2 is kept for TheoremViolation
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except TheoremViolation as exc:
        note(f"THEOREM VIOLATION: {exc}")
        return 2
    except (QuandleError, ValueError, OSError) as exc:
        note(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
