import copy
import pathlib
import pickle
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conjcert.errors import UsageError
from conjcert.fields import GF, QQ, QQI, FpElement, GaussianRational, is_prime


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)
gaussians = st.builds(GaussianRational, rationals, rationals)
f7 = st.integers(min_value=0, max_value=6).map(lambda v: FpElement(v, 7))


def test_prime_check():
    assert is_prime(2) and is_prime(3) and is_prime(97)
    assert not is_prime(1) and not is_prime(9) and not is_prime(91)
    with pytest.raises(UsageError):
        GF(6)


def test_rational_parse_format_roundtrip():
    for text in ["3", "-4/7", "0", "22/7"]:
        value = QQ.parse(text)
        assert QQ.parse(QQ.format(value)) == value
    with pytest.raises(UsageError):
        QQ.parse("0.5")
    with pytest.raises(UsageError):
        QQ.parse("1/0")


def test_gaussian_parse_format_roundtrip():
    samples = [
        GaussianRational.of("1/2", "-3/4"),
        GaussianRational.of(0, 1),
        GaussianRational.of(-3, 0),
        GaussianRational.of("2/5", "7"),
    ]
    for z in samples:
        assert QQI.parse(QQI.format(z)) == z
    assert QQI.parse("1/2+3/4 i") == GaussianRational.of("1/2", "3/4")
    assert QQI.parse("1/2-3/4 i") == GaussianRational.of("1/2", "-3/4")
    assert QQI.parse("-5/3") == GaussianRational.of("-5/3", 0)


# -- token grammars ---------------------------------------------------------------

# The grammars of the parsers that matched a token with these patterns and then
# read it again with Fraction(str) or int(): the one-match parsers must accept
# exactly the same strings, with the same values.
OLD_RATIONAL = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")
OLD_INTEGER = re.compile(r"[+-]?[0-9]+")
NEAR_TOKENS = (st.text("0123456789+-/ ._e\u0663\uff13", max_size=12)
               | st.from_regex(r"\s*[+-]?[0-9]{1,12}(/[0-9]{1,6})?\s*", fullmatch=True))


@given(NEAR_TOKENS)
@example("1_0")
@example("\u0663")  # Arabic-Indic three
@example("\uff13")  # fullwidth three
@example("0.5")
@example("1/0")
@example("1/04")
@example(" -007/2 ")
def test_one_match_parsers_accept_the_old_grammar(token):
    for field, pattern in ((QQ, OLD_RATIONAL), (GF(7), OLD_INTEGER)):
        if pattern.fullmatch(token.strip()):
            value = field.parse(token)
            if field is QQ:
                assert type(value) is Fraction and value == Fraction(token)
            else:
                assert value == FpElement(int(Fraction(token)) % 7, 7)
        else:
            with pytest.raises(UsageError):
                field.parse(token)


@pytest.mark.parametrize("token, re_part, im_part", [
    ("3", "3", "0"), (" -5/3 ", "-5/3", "0"), ("+1/2", "1/2", "0"), ("-007/2", "-7/2", "0"),
    ("1/2+3/4 i", "1/2", "3/4"), ("1/2-3/4 i", "1/2", "-3/4"), ("2/4+6/8 i", "1/2", "3/4"),
    ("1 + 2 i", "1", "2"), ("1+2i", "1", "2"), ("+1+i", "1", "1"), ("1-i", "1", "-1"),
    ("-1-i", "-1", "-1"), ("1+0 i", "1", "0"), ("i", "0", "1"), ("+i", "0", "1"),
    ("-i", "0", "-1"), ("3 i", "0", "3"), ("3i", "0", "3"), ("-3/4 i", "0", "-3/4"),
])
def test_gaussian_grammar_accepts(token, re_part, im_part):
    z = QQI.parse(token)
    assert z == GaussianRational.of(Fraction(re_part), Fraction(im_part))
    assert QQI.parse(QQI.format(z)) == z


@pytest.mark.parametrize("token", [
    "1+-1 i", "1++2 i", "2+-3 i", "1-+2 i", "+-i", "--1", "- i", "- 3 i", "1 2 i",
    "1+2", "i i", "ii", "1+2 i i", "1/2/3 i", "1+/2 i", "1.5+2 i", "1+2 j", "1+1/04 i",
    "1/0+i", "1+1_0 i", "\u0663 i", "1+\uff13 i", "",
])
def test_gaussian_grammar_refuses(token):
    with pytest.raises(UsageError):
        QQI.parse(token)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c
    if a:
        assert a * (1 / a) == 1
    assert Fraction(a).denominator > 0  # canonical form


@given(gaussians, gaussians, gaussians)
def test_gaussian_field_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a
    if a:
        assert a * a.inverse() == QQI.one()
        assert (a * b) / a == b


@given(f7, f7, f7)
def test_prime_field_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c
    if a:
        assert a * a.inverse() == GF(7).one()


def test_prime_field_int_interop():
    x = GF(5).coerce(3)
    assert x + 4 == FpElement(2, 5)
    assert 2 * x == FpElement(1, 5)
    assert x - 4 == FpElement(4, 5)
    assert 1 / x == FpElement(2, 5)
    with pytest.raises(UsageError):
        x + GF(7).one()


def test_gaussian_int_interop():
    z = GaussianRational.of(1, 2)
    assert z + 1 == GaussianRational.of(2, 2)
    assert 2 * z == GaussianRational.of(2, 4)
    assert (1 - z) == GaussianRational.of(0, -2)
    assert z * z.conjugate() == GaussianRational.of(5, 0)
    assert GaussianRational.of(5, 0) == Fraction(5)


def test_field_constants():
    assert QQ.zero() == 0 and QQ.one() == 1
    assert QQI.i() * QQI.i() == GaussianRational.of(-1, 0)
    assert GF(3).coerce(-1) == FpElement(2, 3)
    assert GF(3).characteristic == 3 and QQ.characteristic == 0


# -- Q(i) against a (Fraction, Fraction) reference --------------------------------

def pair(z):
    return z.re, z.im


def ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_inverse(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return x[0] / norm, -x[1] / norm


def ref_str(x):
    sign = "+" if x[1] >= 0 else "-"
    return f"{x[0]}{sign}{abs(x[1])} i"


pairs = st.tuples(rationals, rationals | st.just(Fraction(0)))
operands = rationals | st.integers(min_value=-50, max_value=50)


@given(pairs, pairs)
def test_gaussian_matches_fraction_pair_reference(x, y):
    z, w = GaussianRational(*x), GaussianRational(*y)
    assert pair(z) == x
    assert pair(z + w) == ref_add(x, y)
    assert pair(z - w) == ref_sub(x, y)
    assert pair(z * w) == ref_mul(x, y)
    assert pair(-z) == (-x[0], -x[1])
    assert pair(z.conjugate()) == (x[0], -x[1])
    assert (z == w) == (x == y) and (z != w) == (x != y)
    assert bool(z) == any(x)
    if any(y):
        assert pair(z / w) == ref_mul(x, ref_inverse(y))
        assert pair(w.inverse()) == ref_inverse(y)
    else:
        with pytest.raises(ZeroDivisionError):
            z / w
        with pytest.raises(ZeroDivisionError):
            w.inverse()


@given(pairs, operands)
def test_gaussian_mixes_with_int_and_fraction(x, q):
    z, r = GaussianRational(*x), (Fraction(q), Fraction(0))
    assert pair(z + q) == pair(q + z) == ref_add(x, r)
    assert pair(z - q) == ref_sub(x, r) and pair(q - z) == ref_sub(r, x)
    assert pair(z * q) == pair(q * z) == ref_mul(x, r)
    if q:
        assert pair(z / q) == ref_mul(x, ref_inverse(r))
    if any(x):
        assert pair(q / z) == ref_mul(r, ref_inverse(x))
    assert (z == q) == (x == r)


@given(pairs)
def test_gaussian_hash_str_and_parse(x):
    z = GaussianRational(*x)
    assert str(z) == ref_str(x)
    assert QQI.parse(str(z)) == z
    assert hash(z) == hash(GaussianRational(*x))
    if not x[1]:
        assert z == x[0] and hash(z) == hash(z.re) == hash(x[0])
        assert {z: 1}[x[0]] == 1


def test_gaussian_is_immutable():
    z = GaussianRational.of("1/2", 3)
    for name in ("re", "im", "_a", "_d", "extra"):
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
        with pytest.raises(AttributeError):
            delattr(z, name)
    assert pair(z) == (Fraction(1, 2), Fraction(3))
    assert copy.deepcopy(z) == z and pickle.loads(pickle.dumps(z)) == z


def test_tracer_counts_every_gaussian_operator():
    """bench/tracer.py counts fields.qqi_ops by wrapping the operators found in
    vars(GaussianRational); an operator that the class inherits instead of
    defining would escape the count.  Runs in a fresh interpreter because
    installing the tracer rebinds conjcert for good, and with -B so that
    bench/ gets no bytecode files."""
    root = pathlib.Path(__file__).resolve().parent.parent
    code = textwrap.dedent("""
        import sys
        sys.path[:0] = ["src", "bench"]
        import tracer
        from conjcert.fields import GaussianRational
        ops = [name for name in tracer._OPERATORS if hasattr(GaussianRational, name)]
        assert {"__add__", "__mul__", "__truediv__", "__neg__"} <= set(ops), ops
        missing = [name for name in ops if name not in vars(GaussianRational)]
        assert not missing, missing
        tracer.Tracer().install()
    """)
    proc = subprocess.run([sys.executable, "-B", "-c", code], cwd=root,
                          capture_output=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
