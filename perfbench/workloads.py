"""The benchmark's workloads: input generation and per-case checks.

Each workload turns ``(seed, case index)`` into one input, runs it through
the library and checks the result with explicit comparisons against an
answer that does not come from the code path under test.  ``run`` returns
``(canonical result, failure or None, known defect or None)``; the
canonical result feeds the run's digest.

Inputs are drawn in shuffled blocks that hold every input kind once, so
two seeds see the same mix and differ only in the draws inside each kind
(``homology`` instead walks a seeded order of criterion 8's cases).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

from generators import box_points, chart_cases, criterion8_cases, torsion_complex

HERE = os.path.dirname(os.path.abspath(__file__))

_REF = [[(7 * i + 3 * j) % 19 - 9 for j in range(12)] for i in range(12)]


# A shared host (the bounds were set on a 2-vCPU VM) changes speed by 20-50%
# over seconds to minutes, so case and set-up times are also reported in
# units of a fixed reference work timed between the cases ("ref").  Never change these
# functions: normalized figures of two commits compare only while they are
# the same.

def arithmetic_reference():
    """Integer matrix products: tracks the speed of in-process algebra."""
    m = _REF
    for _ in range(3):
        m = [[sum(a * b for a, b in zip(row, col)) % 1000003 for col in zip(*_REF)]
             for row in m]
    return {tuple(r): sum(r) for r in m}


def allocation_reference():
    """Dict building and sorting: tracks interpreter start-up and imports."""
    d = {}
    for i in range(3000):
        d[(i * 7919) % 10007] = (i, str(i))
    return sorted(d.items(), key=lambda kv: kv[1][1])


class Check:
    """Collects the first failed comparison of a case."""

    def __init__(self):
        self.failure = None

    def equal(self, what, got, want):
        if self.failure is None and got != want:
            self.failure = f"{what}: got {got!r}, want {want!r}"

    def true(self, what, cond):
        if self.failure is None and not cond:
            self.failure = f"{what}: check failed"


class Workload:
    name = ""
    backend = "pure"
    digest_cases = 100  # cases in the digest and in the traced window
    kinds = 1  # input kinds per shuffled block
    reference = staticmethod(arithmetic_reference)

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root

    def setup(self):
        """Static inputs; counted in ``setup_s``."""

    def rng(self, i):
        return random.Random(f"{self.seed}:{self.name}:{i}")

    def kind(self, i):
        block = random.Random(f"{self.seed}:{self.name}:block:{i // self.kinds}")
        return block.sample(range(self.kinds), self.kinds)[i % self.kinds]

    def make(self, i):
        raise NotImplementedError

    def describe(self, inp):
        """(label, key) of an input: the label's share of the cases and the
        share of repeated keys are reported beside the metrics."""
        return type(self).__name__.lower(), repr(inp)

    def run(self, inp, traced=False):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# homology


class Homology(Workload):
    """Criterion 8's homology cases plus known-answer torsion complexes.

    Seven of every eight cases are (theta, k) cases of criterion 8, drawn
    without replacement in a seeded order, so the carriers come in
    criterion 8's proportions (all 2, 9, 64 and 625 tables of carriers
    2-5, the 121 and 338 class representatives of carriers 6-7) and an
    input repeats only once all 3477 have run.  Every eighth case is a
    torsion complex."""

    name = "homology"
    digest_cases = 512
    torsion_every = 8

    def setup(self):
        from monoidkit import asets, torreal

        self.ak, self.tr = asets, torreal
        self.cases = criterion8_cases()
        random.Random(f"{self.seed}:{self.name}:order").shuffle(self.cases)

    def make(self, i):
        rng = self.rng(i)
        block, pos = divmod(i, self.torsion_every)
        if pos == self.torsion_every - 1:
            return ("torsion", torsion_complex(rng, large=rng.random() < 0.5))
        j = (self.torsion_every - 1) * block + pos
        theta, k = self.cases[j % len(self.cases)]
        return ("theta", theta, k)

    def describe(self, inp):
        if inp[0] == "torsion":
            return "torsion", repr(inp[1].diffs)
        return f"carrier{len(inp[1])}", repr(inp[1:])

    def run(self, inp, traced=False):
        tr, chk = self.tr, Check()
        if inp[0] == "torsion":
            cx = inp[1]
            chain = tr.IntegerChainComplex(list(cx.ranks), cx.diffs)
            groups = [tr.smith_homology(chain, n) for n in (1, 2, 3)]
            got = [(h.betti, tuple(h.torsion)) for h in groups]
            for n, g in zip((1, 2, 3), got):
                chk.equal(f"H_{n}", g, cx.homology[n])
            return ["torsion", cx.ranks, got], chk.failure, None
        _, theta, k = inp
        x = self.ak.aset_from_theta(theta)
        image = set()
        for p in range(len(theta)):
            for _ in range(k):
                p = theta[p]
            image.add(p)
        rank = len(theta) - len(image)  # closed form, computed here
        rep = tr.tor1_monogenic(x, k)
        chk.equal("tor1 formula rank", rep.formula_rank, rank)
        chk.equal("tor1 graph rank", rep.graph_rank, rank)
        if len(theta) <= 5:
            chain, _ = tr.tor_complex(x, k, trunc=4)
        else:
            chain = tr.tor_complex_direct(x, k, trunc=4)
        groups = [tr.smith_homology(chain, n) for n in (1, 2, 3)]
        got = [(h.betti, tuple(h.torsion)) for h in groups]
        chk.equal("H_1", got[0], (rank, ()))
        chk.equal("H_2", got[1], (0, ()))
        chk.equal("H_3", got[2], (0, ()))
        return ["theta", theta, k, got], chk.failure, None


class HomologyCompiled(Homology):
    """The same inputs through the compiled kernels."""

    name = "homology"  # same seed stream, so the digests must agree
    backend = "compiled"


# ---------------------------------------------------------------------------
# finite-table monoids


class Finite(Workload):
    """Corpus finite-table monoids (size <= 5) with A-sets of carrier <= 5."""

    name = "finite"
    digest_cases = 400

    def setup(self):
        from monoidkit import asets, documents, homological, monoids, projk, spectra

        self.ak, self.hm, self.mk, self.pk, self.sp = asets, homological, monoids, projk, spectra
        folder = os.path.join(self.root, "corpus", "monoids")
        self.monoids = []
        for fname in sorted(os.listdir(folder)):
            with open(os.path.join(folder, fname), encoding="utf-8") as fh:
                doc = json.load(fh)
            if doc.get("kind") != "finite-table":
                continue
            m = documents.parse_monoid(doc)
            if len(m.elements) > 5:
                continue
            classes = [x for c in range(1, 6) for x in asets.enumerate_asets(m, c)]
            ideals = [i for i in spectra.all_ideals(m) if i.is_proper]
            self.monoids.append((m, classes, ideals))
        self.kinds = len(self.monoids)

    def make(self, i):
        rng = self.rng(i)
        mi = self.kind(i)
        _, classes, ideals = self.monoids[mi]
        xi, yi = rng.randrange(len(classes)), rng.randrange(len(classes))
        n = len(classes[xi].carrier)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 2))]
        return mi, xi, yi, pairs, rng.randrange(len(ideals))

    def describe(self, inp):
        return self.monoids[inp[0]][0].name, repr(inp)

    def _exact_resolution(self, chk, label, res, x):
        hm, ak = self.hm, self.ak
        q0, _ = hm.coequalizer(*res.boundary(1))
        chk.true(f"{label}: H0 = X", ak.is_isomorphic(q0, x))
        for n in range(1, res.top_degree):
            chk.equal(f"{label}: |H_{n}|", len(hm.homology(res, n).carrier), 1)

    def _full_degree1_trivial(self, p1, r1, s1):
        """Degree-1 homology of the full-pullback flavor via the generic
        quotient: the fiber congruence of (r, s) has a trivial joint kernel."""
        fibers = {}
        for p in range(len(p1.carrier)):
            fibers.setdefault((r1(p), s1(p)), []).append(p)
        pairs = [(ms[0], q) for ms in fibers.values() for q in ms[1:]]
        q, proj = self.ak.quotient_aset(p1, pairs)
        induced = {}
        for p in range(len(p1.carrier)):
            if induced.setdefault(proj(p), (r1(p), s1(p))) != (r1(p), s1(p)):
                return False
        return [c for c in range(len(q.carrier)) if induced[c] == (0, 0)] == [0]

    def run(self, inp, traced=False):
        ak, hm, pk, sp = self.ak, self.hm, self.pk, self.sp
        mi, xi, yi, pairs, ii = inp
        m, classes, ideals = self.monoids[mi]
        x, y, ideal = classes[xi], classes[yi], ideals[ii]
        chk = Check()

        small, _ = hm.projective_resolution(x, length_cap=2, minimized=True)
        self._exact_resolution(chk, "minimized", small, x)
        big, _ = hm.projective_resolution(x, length_cap=1, minimized=False)
        q1, _ = hm.coequalizer(*big.boundary(1))
        chk.true("full pullback: H0 = X", ak.is_isomorphic(q1, x))
        if big.top_degree >= 1:
            chk.true("full pullback: H1 trivial",
                     self._full_degree1_trivial(big.levels[1], big.r[0], big.s[0]))
        red, _ = hm.reduced_resolution(x, length_cap=2)
        chk.true("reduced flavor is reduced", red.is_reduced())
        self._exact_resolution(chk, "reduced", red, x)

        q, proj = ak.quotient_aset(x, pairs)
        naive = ak.congruence_closure_naive(x, pairs).classes()
        fibers = {}
        for p in range(len(x.carrier)):
            fibers.setdefault(proj(p), []).append(p)
        chk.equal("quotient classes", sorted(fibers.values()), naive)

        t = ak.tensor(x, y)
        chk.true("X (x) Y = Y (x) X", ak.is_isomorphic(t, ak.tensor(y, x)))
        chk.true("X (x) A = X", ak.is_isomorphic(ak.tensor(x, ak.aset_from_monoid(m)), x))

        comps = sp.primary_decomposition(m, ideal)
        inter = set(m.indices())
        for c in comps:
            inter &= c.elements
            chk.true("component is primary", sp.is_primary(m, c))
        chk.equal("intersection of components", inter, set(ideal.elements))
        ass = sp.associated_primes(m, ideal)
        chk.equal("associated primes", {p.elements for p in ass},
                  {sp.radical(m, c).elements for c in comps})

        k0 = pk.k0(m).invariants()
        idems = [e for e in self.mk.idempotents(m) if e != 0]
        chk.equal("K0 free rank", (k0.free_rank, k0.torsion), (len(idems), ()))
        k1 = pk.k1(m).invariants()
        chk.equal("K1 against brute-force Aut", k1, pk.k1_bruteforce(m, 2))

        result = [m.name, xi, yi, pairs, ii, len(q.carrier), len(t.carrier),
                  small.top_degree, red.top_degree,
                  sorted(sorted(c.elements) for c in comps), str(k0), str(k1)]
        return result, chk.failure, None


# ---------------------------------------------------------------------------
# lattice charts and glued schemes


class Lattice(Workload):
    """Images of base charts with known answers, plus P^n and glued lines."""

    name = "lattice"
    digest_cases = 102
    charts = chart_cases()
    schemes = ("P1", "P2", "P3", "lines2", "lines3", "lines4")
    kinds = len(charts) + len(schemes)

    def setup(self):
        from monoidkit import abgroup, geometry, monoids

        self.gm, self.AffineMonoid, self.AbelianGroup = geometry, monoids.AffineMonoid, abgroup.AbelianGroup

    def make(self, i):
        rng, kind = self.rng(i), self.kind(i)
        if kind >= len(self.charts):
            return ("scheme", self.schemes[kind - len(self.charts)])
        case = self.charts[kind]
        pts = box_points(case.gens, case.rank)
        return ("chart", case, rng.sample(pts, min(3, len(pts))), case.degree_bound())

    def describe(self, inp):
        if inp[0] == "scheme":
            return inp[1], inp[1]
        case = inp[1]
        return case.base.name, repr((case.base.name, case.transform, case.scale, inp[2]))

    def _scheme(self, label):
        gm, G, chk = self.gm, self.AbelianGroup, Check()
        if label.startswith("P"):
            scheme = gm.projective_space(int(label[1:]))
            got = [str(gm.pic(scheme)), str(gm.class_group(scheme).invariants())]
            chk.equal("Pic(P^n)", got[0], "Z")
            chk.equal("Cl(P^n)", got[1], "Z")
        else:
            n = int(label[5:])
            got = [str(gm.class_group(gm.glued_lines(n)).invariants())]
            chk.equal("Cl(glued lines)", got[0], str(G(n - 1)))
        return ["scheme", label, got], chk.failure, None

    def run(self, inp, traced=False):
        if inp[0] == "scheme":
            return self._scheme(inp[1])
        _, case, pts, bound = inp
        gm, chk = self.gm, Check()
        base = case.base
        aff = self.AffineMonoid(base.name, case.rank, case.gens, degree_bound=bound)
        chk.equal("is_normal", gm.is_normal(aff), base.normal)
        nor = gm.normalize_affine(aff)
        chk.equal("normalization", sorted(nor.generators), case.hilbert)
        sn = gm.seminormalize_cancellative(aff)
        members = []
        for j, v in enumerate(pts):
            want = case.in_seminormalization(v)
            got = gm.seminormal_membership(aff, v)
            chk.equal(f"seminormal_membership{v}", got, want)
            chk.equal(f"seminormalization contains {v}", sn.contains(v), want)
            if j < 2:
                chk.equal(f"powers oracle {v}", gm.seminormal_membership_powers(aff, v, kmax=base.kmax), want)
            members.append(got)
        cl = gm.class_group(gm.affine_scheme(nor)).invariants()
        want = self.AbelianGroup(*base.class_group)
        defect = None
        if cl != want and case.sublattice and cl == self.AbelianGroup(*case.floored_class_group()):
            defect = f"class_group {cl} != {want} on sublattice chart {case.gens}"
        else:
            chk.equal("class group", str(cl), str(want))
        result = ["chart", base.name, case.gens, pts, sorted(nor.generators),
                  members, str(cl)]
        return result, chk.failure, defect


# ---------------------------------------------------------------------------
# the command line


class Cli(Workload):
    """One fresh ``python -m monoidkit.cli`` process per golden case."""

    name = "cli"
    digest_cases = 16
    reference = staticmethod(allocation_reference)

    def setup(self):
        folder = os.path.join(self.root, "corpus", "cases")
        self.cases = []
        for fname in sorted(os.listdir(folder)):
            if not fname.endswith(".case.json"):
                continue
            with open(os.path.join(folder, fname), encoding="utf-8") as fh:
                case = json.load(fh)
            argv = [
                os.path.join(folder, a[2:]) if a.startswith("./") else a
                for a in case["argv"]
            ]
            self.cases.append((fname, argv, case["expect_stdout"].encode(),
                               case.get("expect_exit", 0)))
        self.kinds = len(self.cases)
        self.child_traces = []

    def make(self, i):
        return self.kind(i)

    def describe(self, inp):
        return "corpus case", self.cases[inp][0]

    def run(self, inp, traced=False):
        fname, argv, want_out, want_code = self.cases[inp]
        if traced:
            out_path = os.path.join(self.trace_dir, f"cli-seed{self.seed}-{len(self.child_traces)}.spans.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_driver.py"), out_path]
        else:
            cmd = [sys.executable, "-m", "monoidkit.cli"]
        start = time.perf_counter()
        proc = subprocess.run(cmd + argv, capture_output=True, cwd=self.root, check=False)
        if traced:
            self.child_traces.append((out_path, time.perf_counter() - start))
        chk = Check()
        chk.equal(f"{fname} exit code", proc.returncode, want_code)
        chk.equal(f"{fname} stdout", proc.stdout, want_out)
        result = [fname, proc.returncode, proc.stdout.decode(errors="replace")]
        return result, chk.failure, None


WORKLOADS = {
    "homology": Homology,
    "homology-compiled": HomologyCompiled,
    "finite": Finite,
    "lattice": Lattice,
    "cli": Cli,
}
