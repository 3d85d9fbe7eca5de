"""JSON document formats for monoids, A-sets, complexes, simplicial
objects and schemes.  Parsers reject unknown fields; loaded objects are
validated."""

from __future__ import annotations

import json

from . import asets as ak
from .errors import ValidationError
from .monoids import (
    AffineMonoid,
    FiniteMonoid,
    MonogenicMonoid,
    build_from_presentation,
    generator_names,
    monoid_to_doc,
    validate as validate_monoid,
)


def _check_fields(doc, allowed, kind):
    extra = set(doc) - set(allowed)
    if extra:
        raise ValidationError(f"unknown fields {sorted(extra)} in {kind} document")


def parse_monoid(doc):
    if isinstance(doc, str):
        doc = json.loads(doc)
    kind = doc.get("kind")
    if kind == "finite-table":
        _check_fields(
            doc, {"kind", "name", "elements", "mul", "generators"}, kind
        )
        m = FiniteMonoid(
            doc.get("name", "M"),
            doc["elements"],
            doc["mul"],
            generators=[doc["elements"].index(g) for g in doc["generators"]]
            if "generators" in doc
            else None,
        )
        report = validate_monoid(m)
        if not report.ok:
            raise ValidationError(f"invalid finite table: {report}")
        return m
    if kind == "presentation":
        _check_fields(doc, {"kind", "name", "generators", "relations", "bound"}, kind)
        rels = [(r[0], r[1]) for r in doc.get("relations", [])]
        return build_from_presentation(
            doc.get("generators", []),
            rels,
            bound=doc.get("bound", 24),
            name=doc.get("name"),
        )
    if kind == "monogenic":
        _check_fields(doc, {"kind", "name", "generator"}, kind)
        return MonogenicMonoid(doc.get("name", "N"), doc.get("generator", "t"))
    if kind == "affine":
        _check_fields(
            doc,
            {
                "kind",
                "name",
                "rank",
                "generators",
                "unit_group",
                "unit_tags",
                "monomial_ideal",
                "degree_bound",
            },
            kind,
        )
        return AffineMonoid(
            doc.get("name", "A"),
            doc["rank"],
            [tuple(g) for g in doc["generators"]],
            unit_orders=list(doc.get("unit_group", [])),
            unit_tags=[tuple(t) for t in doc["unit_tags"]]
            if "unit_tags" in doc
            else None,
            monomial_ideal=[tuple(v) for v in doc.get("monomial_ideal", [])],
            degree_bound=doc.get("degree_bound", 8),
        )
    raise ValidationError(f"unknown monoid kind {kind!r}")


def parse_aset(doc, registry=None):
    if isinstance(doc, str):
        doc = json.loads(doc)
    _check_fields(doc, {"kind", "name", "base", "carrier", "action"}, "aset")
    if doc.get("kind") != "aset":
        raise ValidationError("expected an aset document")
    base = doc["base"]
    if isinstance(base, str):
        if registry is None or base not in registry:
            raise ValidationError(f"unknown base monoid {base!r}")
        base = registry[base]
    else:
        base = parse_monoid(base)
    carrier = list(doc["carrier"])
    if carrier[0] != "0":
        raise ValidationError("carrier must start with the basepoint '0'")
    if len(set(carrier)) != len(carrier):
        repeated = next(c for i, c in enumerate(carrier) if c in carrier[:i])
        raise ValidationError(f"carrier point {repeated!r} is repeated")
    gen_maps = [doc["action"][g] for g in generator_names(base)]
    x = ak.build_action_from_gen_maps(base, carrier, gen_maps, name=doc.get("name", "X"))
    report = ak.validate_aset(x)
    if not report.ok:
        raise ValidationError(f"invalid aset: {report}")
    return x


def aset_to_doc(x):
    doc = {
        "kind": "aset",
        "name": x.name,
        "base": monoid_to_doc(x.base),
        "carrier": list(x.carrier),
    }
    doc["action"] = {
        g: list(row) for g, row in zip(generator_names(x.base), x.gen_tables())
    }
    return doc


def parse_dacomplex(doc, registry=None):
    from . import homological as hm

    if isinstance(doc, str):
        doc = json.loads(doc)
    _check_fields(doc, {"kind", "name", "levels", "r", "s"}, "dacomplex")
    if doc.get("kind") != "dacomplex":
        raise ValidationError("expected a dacomplex document")
    levels = [parse_aset(l, registry) for l in doc["levels"]]
    base = levels[0].base
    rs, ss = [], []
    for i, (rmap, smap) in enumerate(zip(doc["r"], doc["s"])):
        rs.append(ak.ASetMorphism(levels[i + 1], levels[i], rmap))
        ss.append(ak.ASetMorphism(levels[i + 1], levels[i], smap))
    comp = hm.DaComplex(base, levels, rs, ss)
    report = hm.validate_dacomplex(comp)
    if not report.ok:
        raise ValidationError(f"invalid complex: {report}")
    return comp


def parse_simplicial(doc, registry=None):
    from . import homological as hm

    if isinstance(doc, str):
        doc = json.loads(doc)
    _check_fields(
        doc, {"kind", "name", "levels", "faces", "degeneracies"}, "simplicial"
    )
    if doc.get("kind") != "simplicial":
        raise ValidationError("expected a simplicial document")
    levels = [parse_aset(l, registry) for l in doc["levels"]]
    base = levels[0].base
    faces = []
    for n, row in enumerate(doc["faces"], start=1):
        faces.append(
            [ak.ASetMorphism(levels[n], levels[n - 1], mapping) for mapping in row]
        )
    degeneracies = []
    for n, row in enumerate(doc["degeneracies"]):
        degeneracies.append(
            [ak.ASetMorphism(levels[n], levels[n + 1], mapping) for mapping in row]
        )
    sset = hm.TruncSimplicialASet(base, levels, faces, degeneracies)
    report = hm.validate_simplicial(sset)
    if not report.ok:
        raise ValidationError(f"invalid simplicial object: {report}")
    return sset


def simplicial_to_doc(sset, name="S"):
    return {
        "kind": "simplicial",
        "name": name,
        "levels": [aset_to_doc(l) for l in sset.levels],
        "faces": [[f.mapping for f in row] for row in sset.faces],
        "degeneracies": [[f.mapping for f in row] for row in sset.degeneracies],
    }


def parse_scheme(doc):
    from .geometry import GluedScheme

    if isinstance(doc, str):
        doc = json.loads(doc)
    _check_fields(
        doc,
        {"kind", "name", "lattice_rank", "unit_group", "charts", "glue"},
        "scheme",
    )
    if doc.get("kind") != "scheme":
        raise ValidationError("expected a scheme document")
    rank = doc["lattice_rank"]
    charts = []
    for i, cdoc in enumerate(doc["charts"]):
        _check_fields(
            cdoc, {"name", "generators", "unit_tags", "degree_bound"}, "chart"
        )
        charts.append(
            AffineMonoid(
                cdoc.get("name", f"U{i}"),
                rank,
                [tuple(g) for g in cdoc["generators"]],
                unit_orders=list(doc.get("unit_group", [])),
                unit_tags=[tuple(t) for t in cdoc["unit_tags"]]
                if "unit_tags" in cdoc
                else None,
                degree_bound=cdoc.get("degree_bound", 8),
            )
        )
    return GluedScheme(
        rank,
        charts,
        unit_orders=list(doc.get("unit_group", [])),
        glue=doc.get("glue", "fan"),
        name=doc.get("name", "X"),
    )


def scheme_to_doc(scheme):
    doc = {
        "kind": "scheme",
        "name": scheme.name,
        "lattice_rank": scheme.lattice_rank,
        "charts": [],
        "glue": scheme.glue,
    }
    if scheme.unit_orders:
        doc["unit_group"] = list(scheme.unit_orders)
    for c in scheme.charts:
        cdoc = {
            "name": c.name,
            "generators": [list(g) for g in c.generators],
            "degree_bound": c.degree_bound,
        }
        if c.unit_tags is not None:
            cdoc["unit_tags"] = [list(t) for t in c.unit_tags]
        doc["charts"].append(cdoc)
    return doc


def load_document(path, registry=None, kinds=None):
    """Parse the document at ``path``.  With ``kinds``, a document of any
    other kind is a ValidationError naming the expected and the actual
    kind."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kinds is not None and kind not in kinds:
        raise ValidationError(
            f"{path}: expected a {' or '.join(kinds)} document, got kind {kind!r}"
        )
    if kind in ("finite-table", "presentation", "monogenic", "affine"):
        return parse_monoid(doc)
    if kind == "aset":
        return parse_aset(doc, registry)
    if kind == "dacomplex":
        return parse_dacomplex(doc, registry)
    if kind == "simplicial":
        return parse_simplicial(doc, registry)
    if kind == "scheme":
        return parse_scheme(doc)
    raise ValidationError(f"unknown document kind {kind!r}")
