"""Bounded conformance fixtures: test oracles kept out of the library.

The solvable-group checkers are contrapositive bug detectors: whenever a
reality witness is actually FOUND and verified, the structural consequence
(x^2 = e, squares of lifts, center rigidity) is asserted exactly.  They
never claim non-existence of witnesses over infinite groups.  Each
``SolvableInstance`` carries finite candidate pools, scanned by
``_bounded_witness``.

``validate_presentation`` spot-checks a central-series presentation on
samples.  ``reduce_translation`` and ``reference_lift`` are the earlier
translation solve and (e, u) central-series lift, kept as references for
the level-by-level witness solve; ``reference_negation_search`` is the
earlier sl2 negation search, with its diagonal conjugates built by SL(2)
products.  ``conjugacy_classes`` and ``rational_classes`` read the finite
class table as lists of classes.  ``extract_block_certificate`` restricts a
linear conjugator to the image block of the eigenvalue-1 splitting, and
``kron`` flattens matrix equations like g X = Y g into the linear systems
that the affine tests eliminate.  ``count_calls`` records the calls of one
function, ``bench_module`` loads a module of ``bench/``, and ``traced_run``
runs one benchmark workload traced, once per test session.
"""

from __future__ import annotations

import functools
import importlib.util
import pathlib
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Optional, Sequence

from conjcert.affine import EigenOneSplitting
from conjcert.errors import (
    ConjcertError,
    FixedPointError,
    PresentationError,
    SingularMatrixError,
    TheoremViolation,
    UsageError,
)
from conjcert.fields import QQ
from conjcert.groups import Certificate, FiniteGroup, Inverse, element_order
from conjcert.heisenberg import GSpElement, HeisenbergElement, gsp_act
from conjcert.linalg import Matrix, Vector, has_fixed_point, kernel_basis, solve_linear
from conjcert.semidirect import (
    CentralSeriesLevel,
    CentralSeriesPresentation,
    SemidirectProduct,
    vector_presentation,
)
from conjcert.sl2 import DEFAULT_T_GRID, SL2Element, antidiagonal_witness, rho


# ---------------------------------------------------------------------------
# Solvable-group conformance fixtures
# ---------------------------------------------------------------------------

@dataclass
class SolvableInstance:
    """An A |x N fixture with finite candidate pools for bounded searches;
    N is described by ``group.presentation``."""

    name: str
    group: SemidirectProduct
    acting_sample: list          # sample of A
    n_sample: list               # sample of N
    candidates: list             # finite pool of candidate conjugators in G

    def element(self, a, n):
        return self.group.element(a, n)


@dataclass(frozen=True)
class RotationMarker:
    """S^1 sampled at quarter turns: the marker block R(t) determines the
    element; it acts on the plane through R(2t) = marker^2."""

    marker: Matrix

    def __mul__(self, other: "RotationMarker") -> "RotationMarker":
        return RotationMarker(self.marker * other.marker)

    def inverse(self) -> "RotationMarker":
        return RotationMarker(self.marker.inverse())

    def identity(self) -> "RotationMarker":
        return RotationMarker(self.marker.identity())

    @property
    def plane_action(self) -> Matrix:
        return self.marker * self.marker


def rotation_instance() -> SolvableInstance:
    """The double-speed rotation example: the quarter-turn marker group
    acting on Q^2 through the squared rotation, so the half-turn element
    has order two yet acts trivially."""
    quarter = RotationMarker(Matrix.from_rows(QQ, [[0, -1], [1, 0]]))
    markers = [quarter.identity(), quarter, quarter * quarter,
               quarter * quarter * quarter]
    group = SemidirectProduct(vector_presentation(QQ, 2, lambda a: a.plane_action),
                              quarter.identity())
    grid = [Vector.of(QQ, [a, b])
            for a in (-2, -1, 0, 1, 2) for b in (-2, -1, 0, 1, 2)]
    candidates = [group.element(m, v) for m in markers for v in grid]
    return SolvableInstance("rotation", group, markers,
                            [Vector.of(QQ, [3, -7]), Vector.of(QQ, [1, 0]),
                             Vector.zero(QQ, 2)],
                            candidates)


def _h3_presentation() -> CentralSeriesPresentation:
    """H_3 > Z(H_3) > {e} over Q, with quotients Q^2 and the center line;
    the library presents only H_5."""
    zero = HeisenbergElement.of(QQ, [0, 0], 0)
    levels = [
        CentralSeriesLevel(
            dim=2,
            project=lambda n: n.v,
            section=lambda vec: HeisenbergElement(vec, QQ.zero()),
            act=lambda g: g.g,
        ),
        CentralSeriesLevel(
            dim=1,
            project=lambda n: Vector(QQ, (n.t,)),
            section=lambda vec: HeisenbergElement(zero.v, vec[0]),
            act=lambda g: Matrix(QQ, 1, 1, (g.mu,)),
        ),
    ]
    return CentralSeriesPresentation(QQ, multiply=lambda a, b: a * b,
                                     inverse=lambda a: a.inverse(), identity=zero,
                                     action=gsp_act, levels=levels)


def torus_on_heisenberg_instance() -> SolvableInstance:
    """diag(s, 1/s) inside Sp(2) = SL(2) acting on the 3-dimensional
    Heisenberg group (the similitude factor is 1, so the center is fixed)."""
    def torus(s):
        return GSpElement.of(Matrix.from_rows(QQ, [[s, 0], [0, Fraction(1, 1) / Fraction(s)]]))

    acting = [torus(1), torus(-1), torus(2), torus(Fraction(1, 2)), torus(3)]
    group = SemidirectProduct(_h3_presentation(), acting[0].identity())
    n_sample = [
        HeisenbergElement.of(QQ, [1, 2], Fraction(1, 2)),
        HeisenbergElement.of(QQ, [0, 0], 1),
        HeisenbergElement.of(QQ, [-3, 5], 0),
    ]
    center_grid = [HeisenbergElement.of(QQ, [0, 0], t) for t in (-2, -1, 0, 1, 2)]
    base_grid = [HeisenbergElement.of(QQ, [a, b], 0)
                 for a in (-1, 0, 1) for b in (-1, 0, 1)]
    candidates = [group.element(a, z * w)
                  for a in acting for z in center_grid for w in base_grid]
    return SolvableInstance("torus-on-H3", group, acting, n_sample, candidates)


def minus_identity_two_level_instance() -> SolvableInstance:
    """-I on Q^4 presented with the two-level chain Q^4 > 0+Q^2 > 0; the
    action is fixed-point-free on both quotients and squares to e."""
    minus = -Matrix.identity_of(QQ, 4)
    ident = Matrix.identity_of(QQ, 4)
    levels = [
        CentralSeriesLevel(
            dim=2,
            project=lambda n: Vector(QQ, (n[0], n[1])),
            section=lambda v: Vector(QQ, (v[0], v[1], Fraction(0), Fraction(0))),
            act=lambda h: Matrix(QQ, 2, 2, (h[0, 0], h[0, 1], h[1, 0], h[1, 1])),
        ),
        CentralSeriesLevel(
            dim=2,
            project=lambda n: Vector(QQ, (n[2], n[3])),
            section=lambda v: Vector(QQ, (Fraction(0), Fraction(0), v[0], v[1])),
            act=lambda h: Matrix(QQ, 2, 2, (h[2, 2], h[2, 3], h[3, 2], h[3, 3])),
        ),
    ]
    pres = CentralSeriesPresentation(
        QQ,
        multiply=lambda a, b: a + b,
        inverse=lambda a: -a,
        identity=Vector.zero(QQ, 4),
        action=lambda h, n: h.apply(n),
        levels=levels,
    )
    group = SemidirectProduct(pres, ident)
    grid = [Vector.of(QQ, [a, b, c, d])
            for a in (-1, 0, 1) for b in (-1, 0, 1)
            for c in (-1, 0, 1) for d in (-1, 0, 1)]
    candidates = [group.element(h, v) for h in (ident, minus) for v in grid[:20]]
    return SolvableInstance("sign-flip-Q4", group, [ident, minus],
                            [Vector.of(QQ, [3, -7, 2, 5]), Vector.zero(QQ, 4)],
                            candidates)


def _bounded_witness(instance: SolvableInstance, subject) -> Optional[Certificate]:
    target = subject.inverse()
    for g in instance.candidates:
        if g * subject * g.inverse() == target:
            return Certificate.make(subject, g, Inverse())
    return None


def check_square_law(instance: SolvableInstance) -> dict:
    """Theorem conformance, contrapositively: every reality witness found
    for x (or x n) in the bounded pools implies x^2 = e exactly."""
    G = instance.group
    found = 0
    checked = 0
    for a in instance.acting_sample:
        for n in [G.presentation.identity] + list(instance.n_sample):
            subject = G.element(a, n)
            cert = _bounded_witness(instance, subject)
            checked += 1
            if cert is None:
                continue
            found += 1
            if a * a != a.identity():
                raise TheoremViolation(
                    f"{instance.name}: witness found for {subject!r} "
                    f"but the acting part does not square to e")
    return {"instance": instance.name, "subjects": checked, "witnessed": found}


def check_strong_reality(instance: SolvableInstance, x, n) -> Certificate:
    """Under x^2 = e and fixed-point-free quotient actions, the element
    (x, n) is its own inverse; asserted by exact multiplication."""
    if x * x != x.identity():
        raise UsageError("x must be an involution")
    for j, lvl in enumerate(instance.group.presentation.levels):
        if has_fixed_point(lvl.act(x)):
            raise UsageError(f"action of x on level {j} has a fixed point")
    subject = instance.group.element(x, n)
    if subject * subject != instance.group.identity():
        raise TheoremViolation(
            f"{instance.name}: ({x!r}, {n!r}) fails to square to the identity")
    return Certificate.make(subject, subject, Inverse())


def check_center_rigidity(instance: SolvableInstance, central_sample: Sequence,
                          is_central: Callable) -> dict:
    """With A acting trivially on Z(N), no (x, n) with central n != e is
    real in A Z(N): the conjugacy class is a singleton and n = n^-1 forces
    2 t = 0, impossible in characteristic zero."""
    G = instance.group
    N = G.presentation
    if N.field.characteristic != 0:
        raise UsageError("center rigidity needs characteristic zero "
                         "(torsion breaks the 2t = 0 argument)")
    for a in instance.acting_sample:
        for z in central_sample:
            if N.action(a, z) != z:
                raise UsageError(f"action of {a!r} is not trivial on the center")
    az_candidates = [g for g in instance.candidates if is_central(g.n)]
    refuted = 0
    for a in instance.acting_sample:
        for n in central_sample:
            if n == N.identity:
                continue
            subject = G.element(a, n)
            # inside A Z(N) the conjugacy class of (a, n) is a singleton
            for g in az_candidates:
                if g * subject * g.inverse() != subject:
                    raise TheoremViolation(
                        f"{instance.name}: conjugation inside A Z(N) moved {subject!r}")
            # ... so reality would force n = n^-1, i.e. 2t = 0
            if subject == subject.inverse():
                raise TheoremViolation(
                    f"{instance.name}: nontrivial central element {n!r} is "
                    f"self-inverse over characteristic zero")
            refuted += 1
    return {"instance": instance.name, "refuted": refuted}


# ---------------------------------------------------------------------------
# Presentation and finite-class oracles
# ---------------------------------------------------------------------------

def validate_presentation(pres: CentralSeriesPresentation, h_samples: Sequence = (),
                          vector_samples: Optional[dict] = None):
    """Spot-check the presentation invariants on samples.

    ``vector_samples`` maps a level index to quotient vectors used to
    probe project/section round-trips and the quotient homomorphism."""
    vector_samples = vector_samples or {}
    for j, lvl in enumerate(pres.levels):
        vecs = vector_samples.get(j, [Vector.unit(pres.field, lvl.dim, i)
                                      for i in range(lvl.dim)])
        for v in vecs:
            if lvl.project(lvl.section(v)) != v:
                raise PresentationError(f"level {j}: project(section(v)) != v")
        for v in vecs:
            for w in vecs:
                lifted = pres.multiply(lvl.section(v), lvl.section(w))
                if lvl.project(lifted) != v + w:
                    raise PresentationError(f"level {j}: project is not additive")
        for h in h_samples:
            ident = h * h.inverse()
            if lvl.act(ident) != Matrix.identity_of(pres.field, lvl.dim):
                raise PresentationError(f"level {j}: act(e) != I")
            for h2 in h_samples:
                if lvl.act(h * h2) != lvl.act(h) * lvl.act(h2):
                    raise PresentationError(f"level {j}: act not multiplicative")


def reduce_translation(x: Matrix, b: Vector) -> Vector:
    """A w with (I,w) (x,b) (I,w)^-1 = (x,0), i.e. (x - I) w = b.

    Solvable exactly when b lies in im(x - I); free coordinates are set to
    zero, so w is deterministic, and unique when x has no nonzero fixed
    point.  Otherwise raises ``FixedPointError`` carrying ker(x - I)."""
    x._require_square("reduce_translation")
    if x.rows != b.dim:
        raise UsageError("translation dimension does not match x")
    shifted = x - Matrix.identity_of(x.field, x.rows)
    w = solve_linear(shifted, b)
    if w is None:
        raise FixedPointError("translation lies outside im(x - I); no conjugator "
                              "to (x, 0)", kernel=kernel_basis(shifted))
    return w


def _level_solvers(x, pres: CentralSeriesPresentation) -> tuple:
    """(I - a)^-1 a for each level's action a of x: one elimination of
    I - a per level, and I - a is singular exactly when a fixes a nonzero
    vector, which fails fast with the offending level."""
    solvers = []
    for j, lvl in enumerate(pres.levels):
        a = lvl.act(x)
        ident = Matrix.identity_of(pres.field, lvl.dim)
        try:
            solvers.append((ident - a).inverse() * a)
        except SingularMatrixError:
            raise FixedPointError(
                f"action of x on level {j} quotient has a nonzero fixed point",
                kernel=kernel_basis(a - ident), level=j) from None
    return tuple(solvers)


def reference_lift(x, n, pres: CentralSeriesPresentation):
    """The earlier (e, u) lift, a reference for the level-by-level witness
    solve: u in N with (e,u) (x,e) (e,u)^-1 = (x,n), by descending the series.

    From (h1,n1)(h2,n2) = (h1 h2, act(h2^-1, n1) . n2):
    (e,u) (x,e) (e,u)^-1 = (x, c) with c = act(x^-1, u) . u^-1, and
    (x,c)^-1 (x,n) = (e, c^-1 . n), so the lift never leaves N.  At each
    level the quotient equation (act^-1 - I) w = project(residual) is solved
    in the inverse-free form w = (I - act)^-1 act project(residual), the
    solution lifted through the section and multiplied into u, and the
    residual c^-1 . n must then vanish in that level's quotient; after the
    last level c is compared with n exactly.  Every level action of x must
    be fixed-point-free.  With h x h^-1 = relation(x), the witness is
    (e,u) (h,e) (e,u)^-1 = (h, act(h^-1, u) . u^-1)."""
    x_inverse = x.inverse()
    u = conjugate = pres.identity
    residual = n
    for j, (lvl, solver) in enumerate(zip(pres.levels, _level_solvers(x, pres))):
        u = pres.multiply(lvl.section(solver.apply(lvl.project(residual))), u)
        conjugate = pres.multiply(pres.action(x_inverse, u), pres.inverse(u))
        residual = pres.multiply(pres.inverse(conjugate), n)
        if not lvl.project(residual).is_zero():
            raise PresentationError(
                f"residual fails to descend past level {j}: "
                f"project_{j} = {lvl.project(residual)!r}")
    if conjugate != n:
        raise PresentationError("lifted conjugator failed exact verification")
    return u


def count_calls(monkeypatch, owner, name, wrap=lambda f: f) -> list:
    """Record the (args, kwargs) of each call of owner.name for the rest of
    the test; ``wrap`` re-wraps the recording function (``staticmethod`` for
    a static method)."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrap(recorded))
    return calls


def bench_module(name: str):
    """bench/<name>.py loaded as a fresh module, for the tests that read the
    benchmark's workloads or its tracer's metric map."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def traced_run(workload: str) -> subprocess.CompletedProcess:
    """``bench/run.py --workload <workload> --seconds 0 --trace 1`` run once
    and kept, so the tests that read one traced workload share one run."""
    root = pathlib.Path(__file__).resolve().parent.parent
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seconds", "0", "--trace", "1"],
                          cwd=root, capture_output=True, timeout=300, check=False)


def reference_negation_search(v: Vector, n: int) -> Optional[SL2Element]:
    """The earlier negation search, a reference for
    ``sl2.negation_witness_search``: the first h with rho(h) v = -v among
    -I, the antidiagonals A(t) = [[0,t],[-1/t,0]] over DEFAULT_T_GRID, and
    their conjugates d A(t) d^-1 by d = diag(s, 1/s) for s in 1, 2, 1/2, 3,
    each built by SL(2) products and tried once."""
    candidates = [SL2Element.of(-1, 0, 0, -1), *map(antidiagonal_witness, DEFAULT_T_GRID)]
    for s in (1, 2, Fraction(1, 2), 3):
        d = SL2Element.diagonal(s)
        candidates += [d * antidiagonal_witness(t) * d.inverse() for t in DEFAULT_T_GRID]
    seen = set()
    for h in candidates:
        if h not in seen:
            seen.add(h)
            if rho(h, n).apply(v) == -v:
                return h
    return None


def conjugacy_classes(G: FiniteGroup) -> list[tuple]:
    """Partition into conjugacy classes, ordered by least member index."""
    return [tuple(G.elements[i] for i in cls) for cls in G.class_table()[0]]


def rational_classes(G: FiniteGroup) -> list[tuple]:
    """Conjugacy classes merged along g ~ g^k for all k coprime to Ord(g):
    each class joins the least-indexed class among those of its generating powers."""
    classes, class_of, _ = G.class_table()
    merged: dict[int, list] = {}
    for cls in classes:
        g = G.elements[cls[0]]
        m = element_order(g, bound=len(G) + 1).value
        roots, power = [class_of[cls[0]]], g
        for k in range(2, m):
            power = power * g
            if gcd(k, m) == 1:
                roots.append(class_of[G.index(power)])
        merged.setdefault(min(roots), []).extend(cls)
    return [tuple(G.elements[i] for i in sorted(merged[root])) for root in sorted(merged)]


# ---------------------------------------------------------------------------
# Linear-algebra fixtures
# ---------------------------------------------------------------------------

def extract_block_certificate(g: Matrix, x: Matrix, k: int,
                              splitting: EigenOneSplitting) -> Matrix:
    """Restrict a conjugator g x g^-1 = x^k to the image block.

    In the adapted basis the block of g mapping the kernel summand into the
    image summand must vanish (the image action has no eigenvalue 1); a
    violation is reported entry by entry since it would contradict the
    restriction argument."""
    if g * x * g.inverse() != x ** k:
        raise UsageError("g does not conjugate x to x^k")
    d = splitting.kernel_dim
    n = x.rows
    adapted = splitting.inverse_basis * g * splitting.change_of_basis
    offending = [(i, j, adapted[i, j])
                 for i in range(d, n) for j in range(d)
                 if adapted[i, j] != x.field.zero()]
    if offending:
        raise ConjcertError(f"mixing block failed to vanish at {offending}")
    block = Matrix(x.field, n - d, n - d,
                   tuple(adapted[i, j] for i in range(d, n) for j in range(d, n)))
    try:
        block_inv = block.inverse()
    except SingularMatrixError:
        raise ConjcertError("restricted block is singular") from None
    if block * splitting.restricted * block_inv != splitting.restricted ** k:
        raise ConjcertError("restricted block fails the conjugation relation")
    return block


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product, used to flatten matrix equations like gX = Yg."""
    if A.field != B.field:
        raise UsageError("kron over mixed fields")
    zero = A.field.zero()
    out = []
    for ia in range(A.rows):
        a_row = A.row(ia)
        for ib in range(B.rows):
            b_row = B.row(ib)
            for x in a_row:
                out += [x * y if x and y else zero for y in b_row]
    return Matrix(A.field, A.rows * B.rows, A.cols * B.cols, tuple(out))
