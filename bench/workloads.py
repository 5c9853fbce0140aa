"""Seeded scenario generators for the benchmark workloads.

Each generator turns a seed into a list of conjcert scenarios plus, for every
element, the verdicts it must receive and the certificate relations a
positive verdict must carry.  Expectations come from this module's own exact
arithmetic (tuples mod 3, ``Fraction`` matrices) or from the structure the
element was built with, never from conjcert, so the benchmark checks the
program against an independent oracle.

Inputs that decide the cost of a workload (the group, the linear parts, the
degree and route schedule) are fixed; the seed draws the translations, the
subjects within each conjugacy class and the Heisenberg coordinates.  Every
seed therefore asks for the same amount of work, which keeps run-to-run
spread low, while the checked answers still change with the seed.

Every generator ends with a coverage guard: if a seed fails to reach the
routes the workload exists for, ``CoverageError`` is raised.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

SCHEMA_VERSION = 1


class CoverageError(RuntimeError):
    """A seeded workload no longer reaches the routes it was chosen for."""


class Element:
    """One subject: the verdicts it must get and the certificate relations
    its positive verdicts need ("inverse" or ("power", k))."""

    __slots__ = ("tag", "verdicts", "required", "min_certs")

    def __init__(self, tag, verdicts, required=(), min_certs=0):
        self.tag = tag
        self.verdicts = verdicts
        self.required = frozenset(required)
        self.min_certs = min_certs


def _coprime_powers(m):
    return {("power", k) for k in range(1, m) if gcd(k, m) == 1}


def _q(x):
    return str(Fraction(x))


def _small_rational(rng, nonzero=False):
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if value or not nonzero:
            return value


def _guard(name, wanted, seen):
    missing = sorted(set(wanted) - set(seen))
    if missing:
        raise CoverageError(f"{name}: seed reaches no element for {missing}")


# ---------------------------------------------------------------------------
# finite_gl23: GL(2,3) x| F_3^2, brute-force oracle
# ---------------------------------------------------------------------------

P3 = 3
GL23_GENERATORS = ([[1, 1], [0, 1]], [[0, 2], [1, 0]], [[2, 0], [0, 1]])
FINITE_SAMPLE_SHARE = 3  # one subject in three from every conjugacy class


def _aff_mul(g, h):
    (a, b, c, d), (x, y) = g
    (e, f, k, l), (u, w) = h
    return (((a * e + b * k) % P3, (a * f + b * l) % P3,
             (c * e + d * k) % P3, (c * f + d * l) % P3),
            ((a * u + b * w + x) % P3, (c * u + d * w + y) % P3))


def _aff_inv(g):
    (a, b, c, d), (x, y) = g
    det_inv = pow((a * d - b * c) % P3, P3 - 2, P3)
    ia, ib, ic, id_ = (d * det_inv % P3, -b * det_inv % P3,
                       -c * det_inv % P3, a * det_inv % P3)
    return ((ia, ib, ic, id_), ((-(ia * x + ib * y)) % P3, (-(ic * x + id_ * y)) % P3))


def _aff_order(g):
    identity = ((1, 0, 0, 1), (0, 0))
    acc, m = g, 1
    while acc != identity:
        acc, m = _aff_mul(acc, g), m + 1
    return m


def _aff_pow(g, k):
    acc = ((1, 0, 0, 1), (0, 0))
    for _ in range(k):
        acc = _aff_mul(acc, g)
    return acc


def _gl23_group():
    gens = [((r[0][0], r[0][1], r[1][0], r[1][1]), (0, 0)) for r in GL23_GENERATORS]
    gens += [((1, 0, 0, 1), (1, 0)), ((1, 0, 0, 1), (0, 1))]
    seen = {((1, 0, 0, 1), (0, 0))}
    frontier = list(seen)
    while frontier:
        new = []
        for cur in frontier:
            for gen in gens:
                cand = _aff_mul(cur, gen)
                if cand not in seen:
                    seen.add(cand)
                    new.append(cand)
        frontier = new
    return sorted(seen)


def _conjugacy_classes(group):
    inverses = {h: _aff_inv(h) for h in group}
    classes, placed = [], set()
    for g in group:
        if g in placed:
            continue
        orbit = {_aff_mul(_aff_mul(h, g), inverses[h]) for h in group}
        placed |= orbit
        classes.append(sorted(orbit))
    return classes


def _encode_affine(g):
    (a, b, c, d), (x, y) = g
    return {"linear": [[str(a), str(b)], [str(c), str(d)]],
            "translation": [str(x), str(y)]}


def finite_gl23(seed):
    rng = random.Random(seed)
    group = _gl23_group()
    if len(group) != 432:
        raise CoverageError(f"finite_gl23: closure has {len(group)} elements, expected 432")
    subjects, expected = [], []
    for cls in _conjugacy_classes(group):
        members = set(cls)
        g = cls[0]
        m = _aff_order(g)
        real = _aff_inv(g) in members
        rational = all(_aff_pow(g, k) in members
                       for k in range(1, m) if gcd(k, m) == 1)
        required = ({"inverse"} if real else set()) | (_coprime_powers(m) if rational else set())
        verdicts = {"real": "real" if real else "not_real",
                    "rational": "rational" if rational else "not_rational"}
        take = -(-len(cls) // FINITE_SAMPLE_SHARE)
        for s in rng.sample(cls, take):
            subjects.append(s)
            expected.append(Element("real" if real else "not_real", verdicts, required))
    order = list(range(len(subjects)))
    rng.shuffle(order)
    scenario = {
        "schema_version": SCHEMA_VERSION,
        "kind": "finite",
        "params": {"p": P3, "linear_generators": [[[str(v) for v in row] for row in gen]
                                                  for gen in GL23_GENERATORS]},
        "elements": [_encode_affine(subjects[i]) for i in order],
    }
    expected = [expected[i] for i in order]
    _guard("finite_gl23", {"real", "not_real"}, {e.tag for e in expected})
    return [scenario], [expected]


# ---------------------------------------------------------------------------
# sl2v_sweep: SL(2,Q) x| V_n over a degree schedule
# ---------------------------------------------------------------------------

SL2V_DEGREES = tuple(range(2, 13)) + (15, 16, 24)
_FRAME_R = (Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 3))
_ODD_R = (Fraction(1), Fraction(-1)) + _FRAME_R
SL2V_ROUTES = ("odd_central", "odd_frame", "central_found", "central_forced",
               "central_unknown", "middle_obstruction", "row_solve")

_REAL = {"real": "real", "rational": "rational"}
_NOT_REAL = {"real": "not_real", "rational": "not_rational"}
_UNKNOWN = {"real": "unknown", "rational": "unknown"}


def _sl2v_element(r, v):
    return {"x": [_q(r), "0", "0", _q(1 / r)], "v": [_q(c) for c in v]}


def _negatable_vector(rng, n):
    """v with rho([[0,1],[-1,0]]) v = -v.  For even n that antidiagonal maps
    coefficient i to position n - i with sign (-1)^i under either
    substitution order, so v_(n-i) = (-1)^(i+1) v_i; the middle coordinate
    must vanish when n/2 is even."""
    m = n // 2
    v = [Fraction(0)] * (n + 1)
    for i in range(m):
        v[i] = _small_rational(rng, nonzero=True)
        v[n - i] = (-1) ** (i + 1) * v[i]
    if m % 2:
        v[m] = _small_rational(rng)
    return v


def _sl2v_schedule(n):
    """Fixed (r, route) list for degree n; r rotates as the degree grows."""
    half = n // 2
    if n % 2:
        r = _ODD_R[(half - 1) % len(_ODD_R)]
        return [(r, "odd_central" if r == 1 else "odd_frame")]
    frame_r = _FRAME_R[half % len(_FRAME_R)]
    central_r = Fraction(1) if half % 2 else Fraction(-1)
    if n % 4 == 2:
        return [(frame_r, "row_solve"), (central_r, "central_found")]
    central_route = "central_forced" if (n // 4) % 2 else "central_unknown"
    return [(frame_r, "middle_obstruction"), (frame_r, "row_solve"),
            (central_r, central_route)]


def _sl2v_vector(rng, n, route):
    m = n // 2
    if route == "central_found":
        return _negatable_vector(rng, n)
    if route == "central_forced":
        v = [Fraction(0)] * (n + 1)
        v[rng.choice((0, n))] = _small_rational(rng, nonzero=True)
        return v
    v = [_small_rational(rng) for _ in range(n + 1)]
    if route == "central_unknown":
        # a nonzero x^n coefficient with no y^n partner defeats every
        # antidiagonal, and a second entry rules out the forced route
        v[0] = _small_rational(rng, nonzero=True)
        v[1] = _small_rational(rng, nonzero=True)
        v[n] = Fraction(0)
    elif route == "middle_obstruction":
        v[m] = _small_rational(rng, nonzero=True)
    elif route == "row_solve" and n % 4 == 0:
        v[m] = Fraction(0)
    if not any(v):
        v[0] = Fraction(1)
    return v


def _sl2v_expected(r, route):
    if route in ("central_forced", "middle_obstruction"):
        return Element(route, _NOT_REAL)
    if route == "central_unknown":
        return Element(route, _UNKNOWN)
    if route == "odd_frame" and r == -1:
        # (-I, v) on odd degree squares to the identity: order 2
        return Element(route, _REAL, {"inverse", ("power", 1)})
    # every other real route has infinite order, where rational means real
    return Element(route, _REAL, {"inverse"})


def sl2v_sweep(seed):
    rng = random.Random(seed)
    scenarios, expected = [], []
    for n in SL2V_DEGREES:
        elements, wanted = [], []
        for r, route in _sl2v_schedule(n):
            elements.append(_sl2v_element(r, _sl2v_vector(rng, n, route)))
            wanted.append(_sl2v_expected(r, route))
        scenarios.append({"schema_version": SCHEMA_VERSION, "kind": "sl2v",
                          "params": {"n": n, "t": "1"}, "elements": elements})
        expected.append(wanted)
    _guard("sl2v_sweep", SL2V_ROUTES, {e.tag for es in expected for e in es})
    return scenarios, expected


# ---------------------------------------------------------------------------
# affine_kron: GL(n,Q) x| Q^n with finite-order linear parts
# ---------------------------------------------------------------------------

# monic cyclotomic polynomials as (c_0, ..., c_(d-1)) of x^d + ... + c_0
_PHI = {1: (-1,), 2: (1,), 3: (1, 1), 4: (1, 0), 5: (1, 1, 1, 1),
        7: (1, 1, 1, 1, 1, 1), 12: (1, 0, -1, 0)}

# (name, order, cyclotomic blocks, elements per branch)
AFFINE_LINEAR_PARTS = (
    ("o5_d5", 5, (5, 1), {"zero_kernel": 2, "infinite_order": 1}),
    ("o12_d6", 12, (12, 1, 2), {"zero_kernel": 2, "infinite_order": 1}),
    ("o7_d6", 7, (7,), {"no_fixed_point": 2}),
    ("o12_d8", 12, (12, 3, 4), {"no_fixed_point": 2}),
)
AFFINE_BRANCHES = ("no_fixed_point", "zero_kernel", "infinite_order")


def _mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _mat_vec(a, v):
    return [sum(a[i][t] * v[t] for t in range(len(v))) for i in range(len(a))]


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _block_diagonal(orders):
    blocks = []
    for d in orders:
        c = _PHI[d]
        k = len(c)
        blocks.append([[Fraction(1 if i == j + 1 else 0) - (c[i] if j == k - 1 else 0)
                        for j in range(k)] for i in range(k)])
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, e in enumerate(row):
                out[at + i][at + j] = e
        at += len(b)
    return out, [i for i, d in zip(_block_offsets(orders), orders) if d == 1]


def _block_offsets(orders):
    offsets, at = [], 0
    for d in orders:
        offsets.append(at)
        at += len(_PHI[d])
    return offsets


def _unipotent_frame(n):
    """Fixed unit upper-triangular change of basis and its exact inverse, so
    the linear parts are dense integer matrices rather than block diagonal."""
    p = [[Fraction(1 if i == j else ((i + 2 * j) % 3 - 1 if j > i else 0))
          for j in range(n)] for i in range(n)]
    inv = _identity(n)
    for col in range(n - 1, -1, -1):  # back substitution, unit diagonal
        for row in range(col):
            factor = p[row][col]
            if factor:
                inv[row] = [a - factor * b for a, b in zip(inv[row], inv[col])]
    return p, inv


def _linear_part(order, blocks):
    x, fixed_coords = _block_diagonal(blocks)
    n = len(x)
    p, p_inv = _unipotent_frame(n)
    if _mat_mul(p, p_inv) != _identity(n):
        raise CoverageError("affine_kron: change of basis is not invertible")
    conj = _mat_mul(_mat_mul(p, x), p_inv)
    power = _identity(n)
    for k in range(1, order + 1):
        power = _mat_mul(power, conj)
        if (power == _identity(n)) != (k == order):
            raise CoverageError(f"affine_kron: linear part does not have order {order}")
    fixed = [[p[i][j] for i in range(n)] for j in fixed_coords]  # columns P e_j
    return conj, fixed


def _affine_translation(rng, x, fixed, branch):
    n = len(x)
    u = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
    if branch == "no_fixed_point":
        v = u
    else:
        shifted = [[x[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
        v = _mat_vec(shifted, u)
        if branch == "infinite_order":
            c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
            v = [a + c * b for a, b in zip(v, fixed[rng.randrange(len(fixed))])]
    if not any(v):
        v[0] = Fraction(1)  # a zero translation would be a different branch
    return v


def affine_kron(seed):
    rng = random.Random(seed)
    scenarios, expected = [], []
    for name, order, blocks, branches in AFFINE_LINEAR_PARTS:
        x, fixed = _linear_part(order, blocks)
        elements, wanted = [], []
        for branch in AFFINE_BRANCHES:
            for _ in range(branches.get(branch, 0)):
                if (branch == "no_fixed_point") != (not fixed):
                    raise CoverageError(f"affine_kron: {name} cannot reach {branch}")
                v = _affine_translation(rng, x, fixed, branch)
                elements.append({"v": [_q(c) for c in v]})
                if branch == "infinite_order":
                    wanted.append(Element(branch, {"rational": "infinite_order"}))
                else:
                    wanted.append(Element(branch, {"rational": "rational"},
                                          _coprime_powers(order)))
        scenarios.append({"schema_version": SCHEMA_VERSION, "kind": "affine",
                          "params": {"x": [[_q(e) for e in row] for row in x],
                                     "order": order},
                          "elements": elements})
        expected.append(wanted)
    _guard("affine_kron", AFFINE_BRANCHES, {e.tag for es in expected for e in es})
    return scenarios, expected


# ---------------------------------------------------------------------------
# lift_verify: GSp(4) on H_5 (central-series lift) and C* on the complex
# Heisenberg group over Q(i)
# ---------------------------------------------------------------------------

HEISENBERG_ELEMENTS = 220
# (tag, x sign, count): tags name the case of complex_heisenberg_reality
SOLVABLE_CASES = (
    ("minus_ab_2c", -1, 80),      # real, one certificate per lambda
    ("minus_obstructed", -1, 50),  # a b != 2 c: not real
    ("plus_noncentral", 1, 70),    # real, one explicit witness
    ("plus_central", 1, 14),       # central n != e: not real
    ("plus_identity", 1, 6),       # n = e: real
)


def _qqi(re, im):
    re, im = Fraction(re), Fraction(im)
    sign = "-" if im < 0 else "+"
    return f"{re}{sign}{abs(im)} i"


def _gaussian(rng, nonzero=False):
    while True:
        z = (_small_rational(rng), _small_rational(rng) if rng.random() < 0.5 else Fraction(0))
        if any(z) or not nonzero:
            return z


def _solvable_element(rng, tag, sign):
    zero = (Fraction(0), Fraction(0))
    if tag == "plus_identity":
        a = b = c = zero
    elif tag == "plus_central":
        a = b = zero
        c = _gaussian(rng, nonzero=True)
    else:
        a, b = _gaussian(rng), _gaussian(rng)
        if tag == "plus_noncentral" and not any(a + b):
            a = _gaussian(rng, nonzero=True)
        half_ab = ((a[0] * b[0] - a[1] * b[1]) / 2, (a[0] * b[1] + a[1] * b[0]) / 2)
        c = half_ab if tag != "plus_noncentral" else _gaussian(rng)
        if tag == "minus_obstructed":
            delta = _gaussian(rng, nonzero=True)
            c = (c[0] + delta[0], c[1] + delta[1])
    return {"a": _qqi(*a), "b": _qqi(*b), "c": _qqi(*c), "x": sign}


def lift_verify(seed):
    rng = random.Random(seed)
    heisenberg = [{"v": [_q(_small_rational(rng)) for _ in range(4)],
                   "t": _q(_small_rational(rng))} for _ in range(HEISENBERG_ELEMENTS)]
    solvable, solvable_expected = [], []
    for tag, sign, count in SOLVABLE_CASES:
        real = tag in ("minus_ab_2c", "plus_noncentral", "plus_identity")
        for _ in range(count):
            solvable.append(_solvable_element(rng, tag, sign))
            solvable_expected.append(Element(
                tag, {"real": "real" if real else "not_real"},
                {"inverse"} if real else (),
                min_certs=2 if tag == "minus_ab_2c" else 0))
    order = list(range(len(solvable)))
    rng.shuffle(order)
    scenarios = [
        {"schema_version": SCHEMA_VERSION, "kind": "heisenberg", "params": {},
         "elements": heisenberg},
        {"schema_version": SCHEMA_VERSION, "kind": "solvable", "params": {},
         "elements": [solvable[i] for i in order]},
    ]
    expected = [[Element("lift", {"real": "real"}, {"inverse"})] * len(heisenberg),
                [solvable_expected[i] for i in order]]
    _guard("lift_verify", [t for t, _, _ in SOLVABLE_CASES],
           {e.tag for e in expected[1]})
    return scenarios, expected


WORKLOADS = {
    "finite_gl23": finite_gl23,
    "sl2v_sweep": sl2v_sweep,
    "affine_kron": affine_kron,
    "lift_verify": lift_verify,
}
