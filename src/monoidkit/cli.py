"""Command-line front end: one subcommand per operation family.

Exit codes: 0 success, 1 usage, 2 validation failure, 3 bound exceeded.
All output is deterministic (sorted sets, canonical names, invariant
factors in divisibility order); ``--json`` switches to machine-readable
reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import asets as ak
from . import documents as docs
from .errors import BoundExceeded, HypothesisViolated, MonoidKitError, ValidationError
from .monoids import (
    FiniteMonoid,
    MonogenicMonoid,
    generator_names,
    same_monoid,
    validate as validate_monoid,
)


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


MONOID = ("finite-table", "presentation")  # the document kinds of finite monoids


def _load(path, *kinds, registry=None):
    """The document at ``path``; with ``kinds``, a document of any other
    kind is a ValidationError naming the expected and the actual kind."""
    return docs.load_document(path, registry, kinds or None)


def _indices_from_arg(names, arg, what):
    """Indices of the comma-separated names in ``arg``; an unknown name is
    a ValidationError that says which and where (``what``)."""
    pos = {n: i for i, n in enumerate(names)}
    out = []
    for n in filter(None, (s.strip() for s in arg.split(","))):
        if n not in pos:
            raise ValidationError(f"{n!r} is not {what}")
        out.append(pos[n])
    return out


def _ideal_from_arg(m, arg):
    from . import spectra as sp

    return sp.ideal_generated(
        m, _indices_from_arg(m.elements, arg, f"an element of the monoid {m.name}")
    )


# -- subcommand handlers -------------------------------------------------------


def cmd_validate(args):
    obj = _load(args.document)
    if isinstance(obj, FiniteMonoid):
        report = validate_monoid(obj)
    elif isinstance(obj, ak.ASet):
        report = ak.validate_aset(obj)
    else:
        from . import homological as hml  # loaded already if obj is a complex

        if isinstance(obj, hml.DaComplex):
            report = hml.validate_dacomplex(obj)
        elif isinstance(obj, hml.TruncSimplicialASet):
            report = hml.validate_simplicial(obj)
        else:
            report = None
    ok = report.ok if report is not None else True
    _emit(args, {"valid": ok, "violations": str(report) if report else "valid"},
          ["valid" if ok else f"invalid: {report}"])
    return 0 if ok else 2


def cmd_spec(args):
    from . import spectra as sp

    m = _load(args.monoid, *MONOID)
    primes = sp.mspec(m)
    lines = [str(p) for p in primes]
    _emit(args, {"primes": lines, "dimension": sp.dimension(m)}, lines)
    return 0


def cmd_primary(args):
    from . import spectra as sp

    m = _load(args.monoid, *MONOID)
    ideal = _ideal_from_arg(m, args.ideal)
    comps = sp.primary_decomposition(m, ideal)
    lines = [str(c) for c in comps]
    _emit(args, {"components": lines}, lines)
    return 0


def cmd_assprimes(args):
    from . import spectra as sp

    m = _load(args.monoid, *MONOID)
    ideal = _ideal_from_arg(m, args.ideal)
    primes = sp.associated_primes(m, ideal)
    lines = [str(p) for p in primes]
    _emit(args, {"associated_primes": lines}, lines)
    return 0


def _require_same_base(m, x, path):
    """The A-set ``x``, loaded from ``path``, must live over the monoid
    ``m``: a ValidationError naming the document otherwise."""
    if not same_monoid(x.base, m):
        raise ValidationError(
            f"{path}: the A-set {x.name} lives over {x.base.name}, not over {m.name}"
        )


def cmd_hom(args):
    x = _load(args.source, "aset")
    y = _load(args.target, "aset")
    _require_same_base(x.base, y, args.target)
    homs = ak.hom_enumerate(x, y)
    lines = [",".join(map(str, h.mapping)) for h in homs]
    _emit(args, {"count": len(homs), "maps": lines},
          [f"{len(homs)} morphisms"] + lines)
    return 0


def cmd_tensor(args):
    x = _load(args.left, "aset")
    y = _load(args.right, "aset")
    _require_same_base(x.base, y, args.right)
    t = ak.tensor(x, y)
    _emit(
        args,
        {"carrier": t.carrier, "aset": docs.aset_to_doc(t)},
        [f"tensor carrier = {len(t.carrier)}"] + list(t.carrier),
    )
    return 0


def cmd_splitcheck(args):
    y = _load(args.total, "aset")
    points = _indices_from_arg(y.carrier, args.sub, f"a point of the A-set {y.name}")
    sub = sorted({0, *points})
    x = ak.sub_aset(y, sub, name="X")
    inc = ak.inclusion_morphism(x, sub, y)
    q, proj = ak.quotient_by_subset(y, sub)
    rep = ak.split_check(inc, proj)
    payload = {
        "splits": rep.splits,
        "has_section": rep.has_section,
        "wedge_isomorphic": rep.wedge_isomorphic,
        "has_retraction": rep.has_retraction,
        "has_admissible_retraction": rep.has_admissible_retraction,
    }
    _emit(args, payload, [f"{k} = {v}" for k, v in sorted(payload.items())])
    return 0


def cmd_k0(args):
    from . import projk as pk

    m = _load(args.monoid, *MONOID)
    ring = pk.k0(m)
    lines = [str(ring.invariants())]
    _emit(
        args,
        {"group": str(ring.invariants()), "idempotents": ring.generators},
        lines,
    )
    return 0


def cmd_k1(args):
    from . import projk as pk

    m = _load(args.monoid, *MONOID)
    pres = pk.k1(m)
    _emit(args, {"group": str(pres.invariants())}, [str(pres.invariants())])
    return 0


def cmd_g0(args):
    from . import projk as pk

    m = _load(args.monoid, *MONOID)
    seeds = []
    if args.universe:
        for fname in sorted(os.listdir(args.universe)):
            if fname.endswith(".json"):
                path = os.path.join(args.universe, fname)
                obj = _load(path)
                if isinstance(obj, ak.ASet):
                    _require_same_base(m, obj, path)
                    seeds.append(obj)
    if not seeds:
        seeds = [ak.aset_from_monoid(m)]
    res = pk.g0(seeds, middle_bound=args.bound)
    _emit(
        args,
        {
            "group": str(res.invariants()),
            "classes": len(res.class_labels),
            "universe": res.universe_hash,
        },
        [str(res.invariants()), f"universe {res.universe_hash}"],
    )
    return 0


def cmd_devissage(args):
    from . import projk as pk

    m = _load(args.monoid, *MONOID)
    x = _load(args.aset, "aset")
    _require_same_base(m, x, args.aset)
    ideal = _ideal_from_arg(m, args.ideal)
    rep = pk.devissage_check(m, sorted(ideal.elements), x)
    payload = {
        "identity_holds": rep.identity_holds,
        "nilpotency": rep.nilpotency,
        "quotients_over_base_quotient": rep.quotients_are_base_quotient_sets,
    }
    _emit(args, payload, [f"{k} = {v}" for k, v in sorted(payload.items())])
    return 0 if rep.identity_holds else 2


def cmd_homology(args):
    from . import homological as hml

    comp = _load(args.complex, "dacomplex")
    degrees = [args.degree] if args.degree is not None else list(
        range(comp.min_degree, comp.top_degree + 1)
    )
    lines = []
    payload = {}
    for n in degrees:
        h = hml.homology(comp, n)
        lines.append(f"H{n}: carrier {len(h.carrier)}")
        payload[f"H{n}"] = len(h.carrier)
    _emit(args, payload, lines)
    return 0


def cmd_resolve(args):
    from . import homological as hml

    x = _load(args.aset, "aset")
    if isinstance(x.base, MonogenicMonoid):
        comp, eps = hml.free_resolution_monogenic(x)
        lines = [f"P{i}: {len(lbls)} generators" for i, lbls in enumerate(comp.level_labels)]
        _emit(args, {"levels": [len(l) for l in comp.level_labels]}, lines)
        return 0
    if args.reduced:
        comp, eps = hml.reduced_resolution(x, length_cap=args.length)
    else:
        comp, eps = hml.projective_resolution(
            x, length_cap=args.length, minimized=not args.naive
        )
    sizes = [len(l.carrier) for l in comp.levels]
    lines = [f"P{i}: carrier {s}" for i, s in enumerate(sizes)]
    lines.append(f"complete = {comp.complete}")
    _emit(args, {"carriers": sizes, "complete": comp.complete}, lines)
    return 0


def cmd_moore(args):
    from . import homological as hml

    sset = _load(args.simplicial, "simplicial")
    comp = hml.moore(sset)
    sizes = [len(l.carrier) for l in comp.levels]
    _emit(args, {"carriers": sizes}, [f"N{i}: carrier {s}" for i, s in enumerate(sizes)])
    return 0


def cmd_dk(args):
    from . import homological as hml

    comp = _load(args.complex, "dacomplex")
    sset = hml.dold_kan_inverse(comp, args.trunc)
    report = hml.validate_simplicial(sset)
    sizes = [len(l.carrier) for l in sset.levels]
    _emit(
        args,
        {"carriers": sizes, "valid": report.ok},
        [f"K{i}: carrier {s}" for i, s in enumerate(sizes)]
        + ["valid" if report.ok else f"invalid: {report}"],
    )
    return 0 if report.ok else 2


def cmd_adjcheck(args):
    from . import homological as hml

    comp = _load(args.complex, "dacomplex")
    sset = _load(args.simplicial, "simplicial")
    rep = hml.adjunction_check(comp, sset)
    payload = {
        "simplicial_count": rep.simplicial_count,
        "complex_count": rep.complex_count,
        "bijective": rep.bijective,
        "counit_is_simplicial": rep.counit_is_simplicial,
    }
    _emit(args, payload, [f"{k} = {v}" for k, v in sorted(payload.items())])
    return 0 if rep.bijective else 2


def cmd_tor1(args):
    from . import torreal as tr

    x = _load(args.aset, "aset")
    if not isinstance(x.base, MonogenicMonoid):
        raise HypothesisViolated("monogenic base required")
    (gen,) = generator_names(x.base)
    head, caret, power = args.elem.strip().partition("^")
    if head != gen or (caret and not power.isdecimal()):
        raise ValidationError(f"element must be a power of {gen}")
    k = int(power) if caret else 1
    rep = tr.tor1_monogenic(x, k)
    hrep = tr.hurewicz_compare(x, k)
    payload = {
        "rank": rep.formula_rank,
        "graph_rank": rep.graph_rank,
        "h1": str(hrep.h1.as_group()),
        "higher_vanish": hrep.higher_vanish,
    }
    _emit(args, payload, [f"{k2} = {v}" for k2, v in sorted(payload.items())])
    return 0


def cmd_chainhom(args):
    from . import torreal as tr

    sset = _load(args.simplicial, "simplicial")
    chain = tr.chain_of_simplicial(sset)
    degrees = [args.degree] if args.degree is not None else list(
        range(len(chain.ranks))
    )
    payload = {"ranks": chain.ranks, "differentials": {}}
    lines = []
    for n in degrees:
        h = tr.smith_homology(chain, n)
        payload[f"H{n}"] = str(h.as_group())
        if 1 <= n < len(chain.ranks):
            # row-major integer matrix of the n-th differential
            payload["differentials"][f"d{n}"] = chain.differential(n)
        lines.append(f"H{n} = {h.as_group()}")
    _emit(args, payload, lines)
    return 0


def cmd_ext(args):
    from . import extensions as ex

    m = _load(args.monoid, *MONOID)
    registry = {m.name: m}
    x = _load(args.quot, "aset", registry=registry)
    _require_same_base(m, x, args.quot)
    y = _load(args.sub, "aset", registry=registry)
    _require_same_base(m, y, args.sub)
    exts = ex.ext_enumerate(x, y)
    lines = [f"{len(exts)} extensions"]
    payload = {"count": len(exts), "phi": []}
    payload["tables"] = []
    for e in sorted(exts, key=lambda e: sorted(e.phi_table.items())):
        desc = {
            f"{m.elements[a]}[{x.carrier[p]}]": y.carrier[v]
            for (a, p), v in sorted(e.phi_table.items())
        }
        payload["phi"].append(desc)
        payload["tables"].append(
            {"carrier": e.e.carrier, "action": [list(r) for r in e.e.action]}
        )
        lines.append("phi: " + (json.dumps(desc, sort_keys=True) if desc else "0"))
    _emit(args, payload, lines)
    return 0


def cmd_sqz(args):
    from . import extensions as ex

    m = _load(args.monoid, *MONOID)
    x = _load(args.aset, "aset", registry={m.name: m})
    _require_same_base(m, x, args.aset)
    results = ex.squarezero_enumerate(m, x)
    lines = [f"{len(results)} square-zero extensions"]
    payload = {"count": len(results), "cocycles": []}
    for f, table in results:
        desc = {
            f"({m.elements[a]},{m.elements[b]})": x.carrier[v]
            for (a, b), v in sorted(f.items())
        }
        payload["cocycles"].append(
            {
                "map": desc,
                "commutative": table.is_commutative(),
                "table": {
                    "elements": table.elements,
                    "mul": [list(r) for r in table.table],
                },
            }
        )
        lines.append(
            ("f: " + (json.dumps(desc, sort_keys=True) if desc else "0"))
            + (" (commutative)" if table.is_commutative() else " (noncommutative)")
        )
    _emit(args, payload, lines)
    return 0


def cmd_cl(args):
    from . import geometry as gm

    scheme = _load(args.scheme, "scheme")
    pres = gm.class_group(scheme)
    _emit(args, {"group": str(pres.invariants())}, [str(pres.invariants())])
    return 0


def cmd_pic(args):
    from . import geometry as gm

    scheme = _load(args.scheme, "scheme")
    group = gm.pic(scheme)
    _emit(args, {"group": str(group)}, [str(group)])
    return 0


def cmd_normalize(args):
    from . import geometry as gm

    aff = _load(args.monoid, "affine")
    if aff.is_pc_quotient:
        comps = gm.normalize_pc(aff)
        payload = {
            "components": [
                {"name": c.name, "generators": [list(g) for g in c.generators]}
                for c in comps
            ]
        }
        lines = [f"{len(comps)} components"] + [
            f"{c.name}: {sorted(c.generators)}" for c in comps
        ]
    else:
        nor = gm.normalize_affine(aff)
        payload = {
            "normal": gm.is_normal(aff),
            "generators": [list(g) for g in nor.generators],
        }
        lines = [
            f"already normal = {payload['normal']}",
            f"normalization generators: {sorted(nor.generators)}",
        ]
    _emit(args, payload, lines)
    return 0


def cmd_corpus(args):
    directory = args.directory
    from .errors import MissingExpectation

    cases = sorted(
        f for f in os.listdir(directory) if f.endswith(".case.json")
    )
    results = []
    failures = 0
    for fname in cases:
        with open(os.path.join(directory, fname), "r", encoding="utf-8") as fh:
            try:
                case = json.load(fh)
            except json.JSONDecodeError as exc:
                raise MissingExpectation(f"{fname}: unreadable case ({exc})")
        if "argv" not in case or "expect_stdout" not in case:
            raise MissingExpectation(f"{fname}: missing argv/expect_stdout")
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        argv = [
            a if not a.startswith("./") else os.path.join(directory, a[2:])
            for a in case["argv"]
        ]
        with redirect_stdout(buf):
            code = main(argv, standalone=False)
        got = buf.getvalue()
        want = case["expect_stdout"]
        want_code = case.get("expect_exit", 0)
        ok = got == want and code == want_code
        results.append((fname, ok))
        if not ok:
            failures += 1
            if not args.json:
                print(f"FAIL {fname}")
                print(f"  exit {code} (want {want_code})")
                for line in got.splitlines():
                    print(f"  got:  {line}")
                for line in want.splitlines():
                    print(f"  want: {line}")
    summary = [f"{'PASS' if ok else 'FAIL'} {name}" for name, ok in results]
    summary.append(f"{len(results) - failures}/{len(results)} passed")
    _emit(
        args,
        {"results": {n: ok for n, ok in results}, "failures": failures},
        summary,
    )
    return 0 if failures == 0 else 2


# -- parser ---------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="monoidkit",
        description="computational algebra over commutative pointed monoids",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="validate any document")
    s.add_argument("document")
    s.set_defaults(func=cmd_validate)

    s = sub.add_parser("spec", help="prime spectrum of a finite monoid")
    s.add_argument("monoid")
    s.set_defaults(func=cmd_spec)

    s = sub.add_parser("primary", help="primary decomposition of an ideal")
    s.add_argument("monoid")
    s.add_argument("--ideal", required=True, help="comma-separated generators")
    s.set_defaults(func=cmd_primary)

    s = sub.add_parser("assprimes", help="associated primes of an ideal")
    s.add_argument("monoid")
    s.add_argument("--ideal", required=True)
    s.set_defaults(func=cmd_assprimes)

    s = sub.add_parser("hom", help="enumerate equivariant maps")
    s.add_argument("source")
    s.add_argument("target")
    s.set_defaults(func=cmd_hom)

    s = sub.add_parser("tensor", help="balanced product of two A-sets")
    s.add_argument("left")
    s.add_argument("right")
    s.set_defaults(func=cmd_tensor)

    s = sub.add_parser("splitcheck", help="does the subset sequence split?")
    s.add_argument("total")
    s.add_argument("--sub", required=True, help="carrier names of the subset")
    s.set_defaults(func=cmd_splitcheck)

    s = sub.add_parser("k0", help="projective class ring")
    s.add_argument("monoid")
    s.set_defaults(func=cmd_k0)

    s = sub.add_parser("k1", help="units times sign group")
    s.add_argument("monoid")
    s.set_defaults(func=cmd_k1)

    s = sub.add_parser("g0", help="bounded-universe class group of A-sets")
    s.add_argument("monoid")
    s.add_argument("--universe", help="directory of A-set documents")
    s.add_argument("--bound", type=int, default=5)
    s.set_defaults(func=cmd_g0)

    s = sub.add_parser("devissage", help="nilpotent filtration identity")
    s.add_argument("monoid")
    s.add_argument("--ideal", required=True)
    s.add_argument("--aset", required=True)
    s.set_defaults(func=cmd_devissage)

    s = sub.add_parser("homology", help="homology of a double-arrow complex")
    s.add_argument("complex")
    s.add_argument("--degree", type=int)
    s.set_defaults(func=cmd_homology)

    s = sub.add_parser("resolve", help="projective resolution of an A-set")
    s.add_argument("aset")
    s.add_argument("--length", type=int, default=3)
    s.add_argument("--reduced", action="store_true")
    s.add_argument("--naive", action="store_true")
    s.set_defaults(func=cmd_resolve)

    s = sub.add_parser("moore", help="normalized complex of a simplicial object")
    s.add_argument("simplicial")
    s.set_defaults(func=cmd_moore)

    s = sub.add_parser("dk", help="split simplicial object of a reduced complex")
    s.add_argument("complex")
    s.add_argument("--trunc", type=int, required=True)
    s.set_defaults(func=cmd_dk)

    s = sub.add_parser("adjcheck", help="two-sided correspondence check")
    s.add_argument("complex")
    s.add_argument("simplicial")
    s.set_defaults(func=cmd_adjcheck)

    s = sub.add_parser("tor1", help="first derived tensor rank (monogenic)")
    s.add_argument("aset")
    s.add_argument("--elem", required=True, help="e.g. t^2")
    s.set_defaults(func=cmd_tor1)

    s = sub.add_parser("chainhom", help="integral homology of a simplicial object")
    s.add_argument("simplicial")
    s.add_argument("--degree", type=int)
    s.set_defaults(func=cmd_chainhom)

    s = sub.add_parser("ext", help="extensions of one A-set by another")
    s.add_argument("monoid")
    s.add_argument("--quot", required=True, help="the quotient-side A-set")
    s.add_argument("--sub", required=True, help="the sub-side A-set")
    s.set_defaults(func=cmd_ext)

    s = sub.add_parser("sqz", help="square-zero monoid extensions")
    s.add_argument("monoid")
    s.add_argument("--aset", required=True)
    s.set_defaults(func=cmd_sqz)

    s = sub.add_parser("cl", help="divisor class group of a scheme")
    s.add_argument("scheme")
    s.set_defaults(func=cmd_cl)

    s = sub.add_parser("pic", help="Picard group of a scheme")
    s.add_argument("scheme")
    s.set_defaults(func=cmd_pic)

    s = sub.add_parser("normalize", help="saturation / components of a chart")
    s.add_argument("monoid")
    s.set_defaults(func=cmd_normalize)

    s = sub.add_parser("corpus", help="run a directory of expectation cases")
    s.add_argument("directory")
    s.set_defaults(func=cmd_corpus)

    return p


@functools.cache
def _parser():
    """The parser, built once per process: ``corpus`` calls ``main`` once
    per case, and building the 24 subparsers costs more than most cases."""
    return build_parser()


def main(argv=None, standalone=True):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage errors, and --help
        code = 0 if exc.code in (0, None) else 1
    else:
        try:
            code = args.func(args)
        except BoundExceeded as exc:
            print(f"bound exceeded: {exc}", file=sys.stderr)
            code = 3
        except (ValidationError, MonoidKitError, OSError, KeyError,
                ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    if standalone:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
