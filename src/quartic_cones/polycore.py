"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a dictionary mapping monomials to nonzero Fraction
coefficients.  A monomial is a sorted tuple of (variable, exponent) pairs
with all exponents positive, so equal polynomials always have identical
term dictionaries.  Term order, where one is needed (leading terms,
printing, division), is graded lexicographic with variables compared
alphabetically.

The public constructor ``Poly(terms, variables)`` validates what it is
given: it wraps every coefficient as a Fraction, drops zeros and adds the
variables of the terms to the scope.  Ring operations whose results are
clean by construction (sums, negation, products, scalar division,
derivatives, substitution, exact quotients) build them through the
trusted ``Poly._make``, which checks and copies nothing.

Products pack exponents only for the duration of one multiplication
(Monagan and Pearce 2007).  Each variable of the sorted scope gets a bit
field wide enough for the sum of the operands' total degrees, so every
monomial becomes one int and a monomial product is one int addition that
never carries.  Coefficients become integer numerators over one common
denominator per operand, so the inner loop is integer arithmetic; each
output key is decoded once to its monomial, and each output coefficient
is one normalised Fraction.  When an operand has at most one term, the
products of distinct monomials are distinct and nothing is collected, so
the terms are multiplied directly without packing.

Long division has one loop, ``_divide``, which ``exact_divide`` and the
Euclidean ``univariate_gcd`` share.  A univariate polynomial is a Poly
whose terms involve one variable; there is no dense coefficient-list
form, and ``rational_roots`` reads its integer coefficients straight
from the terms.

All values are immutable after construction and safe to share between
threads.  There is no floating point anywhere in this module.

Besides the polynomial ring the module provides the elimination toolkit
used by the rest of the package: cofactor and fraction-free (Bareiss)
determinants of polynomial matrices, Sylvester resultants, the resultant
of three ternary forms with rational coefficients as one determinant of
the hybrid Sylvester-Bezout matrix (Macaulay's classical quotient stays
as its reference), perfect-square detection, and exact linear algebra
over the rationals: the determinant and the rank (the same Bareiss
elimination, on rows scaled to integers; the determinant is the kernel
of every resultant certificate), rref for nullspace and inverse,
matrix-vector products, and the congruence s^T m s that moves a
quadratic form to new coordinates.  These matrix helpers are the
package's only rational linear-algebra layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

Mono = Tuple[Tuple[str, int], ...]

Scalar = (int, Fraction)


class PolyError(Exception):
    """Base class for errors raised by the polynomial kernel."""


class ScopeError(PolyError):
    """A variable is not in scope for the requested operation."""


class NotDivisibleError(PolyError):
    """Exact division failed; carries the nonzero remainder witness."""

    def __init__(self, remainder: "Poly"):
        super().__init__(f"not divisible, remainder {remainder}")
        self.remainder = remainder


class DegreeError(PolyError):
    """An input does not have the degree required by the operation."""


class HomogeneityError(PolyError):
    """An input is not (weighted) homogeneous as required."""


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    exps: Dict[str, int] = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def _packed_terms(terms: Mapping[Mono, Fraction], shifts: Mapping[str, int]):
    """(d, [(key, n), ...]): each monomial packed into one int, each coefficient n/d.

    A variable's exponent sits at its bit offset in ``shifts``, and d is
    the lcm of the denominators.
    """
    d = lcm(*(c.denominator for c in terms.values()))
    return d, [(sum(e << shifts[name] for name, e in m), c.numerator * (d // c.denominator))
               for m, c in terms.items()]


def _mono_div(a: Mono, b: Mono) -> Optional[Mono]:
    """a / b, or None when b does not divide a."""
    exps = dict(a)
    for name, e in b:
        r = exps.get(name, 0) - e
        if r < 0:
            return None
        if r == 0:
            exps.pop(name, None)
        else:
            exps[name] = r
    return tuple(sorted(exps.items()))


def _mono_key(m: Mono, varlist: Sequence[str]) -> Tuple:
    exps = dict(m)
    return (sum(exps.values()), *[exps.get(v, 0) for v in varlist])


class Poly:
    """Sparse exact-rational multivariate polynomial.

    ``terms`` maps monomials to nonzero coefficients; the zero polynomial
    has an empty term map.  ``variables`` is the scope: every variable
    appearing in a term plus any explicitly declared ones (a parser may
    declare variables that end up unused).  Scope participates in scope
    checks only; equality and hashing are purely semantic.
    """

    __slots__ = ("terms", "variables")

    def __init__(self, terms: Mapping[Mono, Fraction] | None = None,
                 variables: Iterable[str] = ()):
        clean: Dict[Mono, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = Fraction(coeff)
                if c != 0:
                    clean[mono] = c
        scope = set(variables)
        for mono in clean:
            for name, _ in mono:
                scope.add(name)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "variables", frozenset(scope))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # the setattr guard breaks pickle's default slot restore
        return (Poly, (self.terms, tuple(self.variables)))

    # -- constructors -------------------------------------------------

    @staticmethod
    def _make(terms: Dict[Mono, Fraction], variables: frozenset) -> "Poly":
        """Trusted constructor for results that are clean by construction.

        ``terms`` must map canonical monomials to nonzero Fractions and
        ``variables`` must be a frozenset covering every variable in them;
        nothing is copied or checked.
        """
        p = object.__new__(Poly)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "variables", variables)
        return p

    @staticmethod
    def zero() -> "Poly":
        return Poly({})

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(): Fraction(c)})

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly({((name, 1),): Fraction(1)})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise PolyError(f"not a constant polynomial: {self}")
        return self.terms[()]

    def degree_in(self, var: str) -> int:
        if not self.terms:
            return -1
        return max((dict(m).get(var, 0) for m in self.terms), default=0)

    def weighted_degrees(self, weights: Mapping[str, int]) -> set:
        degs = set()
        for m in self.terms:
            degs.add(sum(weights.get(name, 0) * e for name, e in m))
        return degs

    def homogeneous_degree(self, weights: Mapping[str, int] | None = None) -> int:
        if weights is None:
            weights = {v: 1 for v in self.variables}
        degs = self.weighted_degrees(weights)
        if len(degs) != 1:
            raise HomogeneityError(f"not homogeneous for weights {dict(weights)}")
        return degs.pop()

    # -- ring operations -----------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, Scalar):
            return Poly.const(other)
        return NotImplemented

    def __add__(self, other):
        q = Poly._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in q.terms.items():
            s = out[mono] + coeff if mono in out else coeff
            if s:
                out[mono] = s
            else:
                del out[mono]
        return Poly._make(out, self.variables | q.variables)

    __radd__ = __add__

    def __neg__(self):
        return Poly._make({m: -c for m, c in self.terms.items()}, self.variables)

    def __sub__(self, other):
        q = Poly._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        q = Poly._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        variables = self.variables | q.variables
        if len(self.terms) <= 1 or len(q.terms) <= 1:
            # distinct monomials give distinct products: nothing to collect
            return Poly._make({_mono_mul(m1, m2): c1 * c2
                               for m1, c1 in self.terms.items()
                               for m2, c2 in q.terms.items()}, variables)
        # packed exponents: a field of this width holds any exponent of the
        # product, so adding two keys multiplies their monomials
        width = (max(map(_mono_degree, self.terms))
                 + max(map(_mono_degree, q.terms))).bit_length()
        fields = [(name, i * width) for i, name in enumerate(sorted(variables))]
        shifts = dict(fields)
        d1, a = _packed_terms(self.terms, shifts)
        d2, b = _packed_terms(q.terms, shifts)
        acc: Dict[int, int] = {}
        for k1, n1 in a:
            for k2, n2 in b:
                k = k1 + k2
                acc[k] = acc.get(k, 0) + n1 * n2
        d = d1 * d2
        mask = (1 << width) - 1
        return Poly._make({tuple((name, e) for name, s in fields if (e := k >> s & mask)):
                           Fraction(n, d) for k, n in acc.items() if n}, variables)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Scalar):
            c = Fraction(other)
            if c == 0:
                raise ZeroDivisionError("division of Poly by zero scalar")
            return Poly._make({m: v / c for m, v in self.terms.items()}, self.variables)
        return NotImplemented

    def __floordiv__(self, other):
        """Exact quotient: ``exact_divide`` by a Poly, ``self / other`` by a scalar."""
        if isinstance(other, Poly):
            return exact_divide(self, other)
        return self / other

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise PolyError("exponent must be a non-negative integer")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        q = Poly._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        return self.terms == q.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self) -> list:
        """Terms in canonical (graded-lex descending) order."""
        varlist = sorted(self.variables)
        return sorted(self.terms.items(),
                      key=lambda mc: _mono_key(mc[0], varlist), reverse=True)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"

    # -- calculus and substitution --------------------------------------

    def partial(self, var: str) -> "Poly":
        """Exact formal derivative with respect to ``var``."""
        if var not in self.variables:
            raise ScopeError(f"variable {var!r} not in scope {sorted(self.variables)}")
        out: Dict[Mono, Fraction] = {}
        for mono, coeff in self.terms.items():
            exps = dict(mono)
            e = exps.pop(var, 0)
            if e:
                if e > 1:
                    exps[var] = e - 1
                # distinct monomials keep distinct derivatives: no collisions
                out[tuple(sorted(exps.items()))] = coeff * e
        return Poly._make(out, self.variables)

    def subs(self, bindings: Mapping[str, "Poly | Fraction | int"]) -> "Poly":
        """Substitute polynomials (or scalars) for variables, exactly."""
        for var in bindings:
            if var not in self.variables:
                raise ScopeError(f"variable {var!r} not in scope {sorted(self.variables)}")
        coerced = {v: (p if isinstance(p, Poly) else Poly.const(p))
                   for v, p in bindings.items()}
        result = Poly.zero()
        power_cache: Dict[Tuple[str, int], Poly] = {}
        for mono, coeff in self.terms.items():
            term = Poly.const(coeff)
            for name, e in mono:
                if name in coerced:
                    key = (name, e)
                    if key not in power_cache:
                        power_cache[key] = coerced[name] ** e
                    term = term * power_cache[key]
                else:
                    term = term * Poly({((name, e),): Fraction(1)})
            result = result + term
        keep = self.variables - set(bindings)
        return Poly._make(result.terms, result.variables | keep)

    def eval_at(self, bindings: Mapping[str, Fraction | int]) -> Fraction:
        """Full evaluation; every variable appearing in a term must be bound."""
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            value = coeff
            for name, e in mono:
                if name not in bindings:
                    raise ScopeError(f"no value supplied for variable {name!r}")
                value *= Fraction(bindings[name]) ** e
            total += value
        return total


def format_poly(p: Poly) -> str:
    """Canonical text form: graded-lex descending terms, normalized signs.

    The output obeys the expression grammar in polyio, so parsing it back
    recovers the polynomial exactly.
    """
    if p.is_zero():
        return "0"
    pieces = []
    for mono, coeff in p.sorted_terms():
        factors = [name if e == 1 else f"{name}^{e}" for name, e in mono]
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


def _subtract_terms(rem: Dict[Mono, Fraction], terms) -> None:
    """rem -= terms, in place: ``terms`` are (monomial, nonzero coefficient) pairs."""
    for mono, v in terms:
        if s := rem.get(mono, 0) - v:
            rem[mono] = s
        else:
            del rem[mono]


def _divide(p: Poly, d: Poly) -> Tuple[Poly, Poly]:
    """(quotient, remainder) of long division of p by a nonzero d under graded-lex.

    The remainder is one dict, updated in place: each quotient term
    removes the remainder's leading term and subtracts its product with
    the rest of d term by term, and each monomial's graded-lex key is
    computed once.  The division stops at the first remainder whose
    leading term LT(d) does not divide.  Leading monomials are
    multiplicative, so d divides p exactly when that remainder is zero;
    for p and d in one variable it is the remainder of Euclidean division.
    """
    variables = p.variables | d.variables
    varlist = sorted(variables)
    keys: Dict[Mono, Tuple] = {}  # remainders repeat monomials: order each one once
    key = lambda m: keys.get(m) or keys.setdefault(m, _mono_key(m, varlist))
    lead_d = max(d.terms, key=key)
    cd = d.terms[lead_d]
    tail = [(m, c) for m, c in d.terms.items() if m != lead_d]
    quotient: Dict[Mono, Fraction] = {}
    rem = dict(p.terms)
    while rem:
        lead_r = max(rem, key=key)
        m = _mono_div(lead_r, lead_d)
        if m is None:
            break
        c = quotient[m] = rem.pop(lead_r) / cd
        _subtract_terms(rem, [(_mono_mul(m, mono), c * v) for mono, v in tail])
    return Poly._make(quotient, variables), Poly._make(rem, variables)


def exact_divide(p: Poly, d: Poly) -> Poly:
    """Return q with q*d == p exactly, or raise NotDivisibleError.

    A monomial divisor divides term by term.  Otherwise, or when some
    term is not divisible, ``_divide`` runs, and its nonzero remainder is
    the witness.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if len(d.terms) == 1:
        (lead_d, cd), = d.terms.items()
        quotient = {_mono_div(m, lead_d): c / cd for m, c in p.terms.items()}
        if None not in quotient:
            return Poly._make(quotient, p.variables | d.variables)
    quotient, rem = _divide(p, d)
    if rem:
        raise NotDivisibleError(rem)
    return quotient


# ---------------------------------------------------------------------------
# Polynomial matrices and determinants


class PolyMatrix:
    """Square grid of Poly entries."""

    def __init__(self, entries: Sequence[Sequence[Poly]]):
        rows = tuple(tuple(e if isinstance(e, Poly) else Poly.const(e) for e in row)
                     for row in entries)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise PolyError("PolyMatrix must be square")
        self.entries = rows
        self.n = n

    def det(self) -> Poly:
        """Exact determinant.

        Cofactor expansion and fraction-free elimination are both
        implemented; they are cross-checked here for small matrices
        (cofactor cost explodes beyond that) and in the randomized
        test suite.
        """
        d = self.det_bareiss()
        if self.n <= 4:
            if d != self.det_cofactor():
                raise PolyError("determinant cross-check failed")
        return d

    def det_cofactor(self) -> Poly:
        return _det_cofactor(self.entries)

    def det_bareiss(self) -> Poly:
        rank, d = _bareiss([list(row) for row in self.entries])
        if rank < self.n:
            return Poly.zero()
        return d if self.n else Poly.const(1)


def _det_cofactor(rows) -> Poly:
    n = len(rows)
    if n == 0:
        return Poly.const(1)
    if n == 1:
        return rows[0][0]
    total = Poly.zero()
    for j in range(n):
        a = rows[0][j]
        if a.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        piece = a * _det_cofactor(minor)
        total = total + (piece if j % 2 == 0 else -piece)
    return total


def _bareiss(m):
    """Fraction-free (Bareiss 1968) echelon form of m, in place; ints or Polys.

    A column's pivot is its first nonzero entry at or below the current
    row, swapped up with a sign flip; a column without one is skipped.
    Entries stay minors of m, so each ``//`` by the previous pivot is
    exact.  Returns (rank, ±last pivot), which is det m when m is square
    and of full rank.
    """
    n_rows = len(m)
    sign, prev, r = 1, 1, 0
    for c in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        top = m[r]
        pivot = top[c]
        for i in range(r + 1, n_rows):
            row = m[i]
            a = row[c]
            m[i] = [0] * (c + 1) + [(pivot * b - a * t) // prev
                                    for b, t in zip(row[c + 1:], top[c + 1:])]
        prev = pivot
        r += 1
    return r, prev if sign == 1 else -prev


# ---------------------------------------------------------------------------
# Resultants


def resultant_bivariate(p: Poly, q: Poly, var: str) -> Poly:
    """Sylvester resultant of p and q with respect to ``var``.

    Both inputs must have positive degree in ``var``; the result is a
    polynomial in the remaining variables.
    """
    m = p.degree_in(var)
    n = q.degree_in(var)
    if m <= 0 or n <= 0:
        raise DegreeError(f"both inputs need positive degree in {var!r} (got {m}, {n})")
    # Sylvester row ``shift`` of a form of degree k holds its coefficient of
    # var^(shift + k - c) in column c, zero where that exponent is outside 0..k
    zero = Poly.zero()
    rows = [[by.get((shift + k - c,), zero) for c in range(m + n)]
            for by, k, count in ((coefficients_multi(p, (var,)), m, n),
                                 (coefficients_multi(q, (var,)), n, m))
            for shift in range(count)]
    return PolyMatrix(rows).det_bareiss()


def coefficients_multi(p: Poly, variables: Sequence[str]) -> Dict[Tuple[int, ...], Poly]:
    """Group terms by their exponents on ``variables``; values collect the rest."""
    out: Dict[Tuple[int, ...], Dict[Mono, Fraction]] = {}
    vs = tuple(variables)
    for mono, coeff in p.terms.items():
        exps = dict(mono)
        key = tuple(exps.pop(v, 0) for v in vs)
        rest = tuple(sorted(exps.items()))
        # (key, rest) determines the monomial, so nothing collides or cancels
        out.setdefault(key, {})[rest] = coeff
    return {k: Poly(v) for k, v in out.items()}


def _monomials_of_degree(variables: Sequence[str], degree: int) -> list:
    """All exponent tuples over ``variables`` summing to ``degree``, grlex-descending."""
    n = len(variables)
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, n)
    return out


def _shifted_row(form: Poly, shift: Sequence[int], vs: Sequence[str],
                 index: Mapping[Tuple[int, ...], int]) -> list:
    """Coefficients of x^shift * form, as Fractions, in the columns of ``index``.

    Each term's exponent tuple over ``vs`` is moved by ``shift`` into its
    column.  A product monomial without a column raises HomogeneityError;
    a term in a variable outside ``vs`` raises PolyError.
    """
    row = [Fraction(0)] * len(index)
    for mono, coeff in form.terms.items():
        exps = dict(mono)
        col = index.get(tuple(e + exps.pop(v, 0) for e, v in zip(shift, vs)))
        if col is None:
            raise HomogeneityError(f"form is not homogeneous of its degree in {vs}")
        if exps:
            raise PolyError("Macaulay matrix entries must be rational constants")
        row[col] = coeff
    return row


def macaulay_quotient(forms: Sequence[Poly], variables: Sequence[str],
                      degrees: Sequence[int]):
    """Classical Macaulay construction for n forms in n variables.

    Returns (quotient, det_minor) as Fractions: the resultant candidate
    det(M)/det(M') and the minor that was divided out.  When det(M') is
    zero the pair (None, Fraction(0)) is returned.  No code in the
    package calls it: ``macaulay_resultant_ternary`` computes the
    resultant by the hybrid determinant, and this quotient is the
    independent construction that the tests compare it with.

    Row r of Macaulay's matrix M holds the coefficients of x^shift * f_i
    for the r-th monomial of the critical degree sum(d_i) - n + 1
    (grlex-descending), where f_i is the first form whose degree the
    monomial's exponent reaches.  The monomials that reach two or more
    degrees index the rows and columns of the minor M', and
    det M = Res * det M' (Macaulay 1903).  Both determinants come from
    the integer kernel of ``det_fraction`` (the minor first, so a
    degenerate minor costs one elimination).  The forms must have
    rational coefficients; a coefficient involving another variable
    raises PolyError.
    """
    vs = tuple(variables)
    n = len(vs)
    if len(forms) != n or len(degrees) != n:
        raise PolyError("need as many forms and degrees as variables")
    monos = _monomials_of_degree(vs, sum(degrees) - n + 1)
    index = {m: i for i, m in enumerate(monos)}
    rows, keep = [], []
    for r, expt in enumerate(monos):
        reached = [i for i in range(n) if expt[i] >= degrees[i]]
        i = reached[0]
        shift = list(expt)
        shift[i] -= degrees[i]
        rows.append(_shifted_row(forms[i], shift, vs, index))
        if len(reached) > 1:
            keep.append(r)
    minor_value = det_fraction([[rows[r][c] for c in keep] for r in keep])
    if minor_value == 0:
        return None, minor_value
    return det_fraction(rows) / minor_value, minor_value


def critical_degree_rows(forms: Sequence[Poly], variables: Sequence[str],
                         degrees: Sequence[int]) -> Tuple[list, int]:
    """(rows, columns): the forms' multiplication map into degree sum(d_i) - n + 1.

    A row holds x^e * f_i for a form f_i and a monomial x^e of the
    complementary degree, in the critical degree's grlex-descending monomials.
    """
    vs = tuple(variables)
    crit = sum(degrees) - len(vs) + 1
    index = {m: i for i, m in enumerate(_monomials_of_degree(vs, crit))}
    rows = [_shifted_row(f, expt, vs, index)
            for f, d in zip(forms, degrees) for expt in _monomials_of_degree(vs, crit - d)]
    return rows, len(index)


def ideal_spans_critical_degree(forms: Sequence[Poly], variables: Sequence[str],
                                degrees: Sequence[int]) -> bool:
    """Exact decision: do the forms have NO common projective zero?

    By the Macaulay bound, n homogeneous forms in n variables without a
    common zero generate everything in the critical degree
    sum(d_i) - n + 1, while a common zero forces the multiplication map
    (``critical_degree_rows``) into a proper subspace.  The rank test is
    field-stable, so rational linear algebra decides the question over
    the complex numbers.  No code in the package calls it; the tests
    compare it with the zero set of ``macaulay_resultant_ternary``.
    """
    rows, columns = critical_degree_rows(forms, variables, degrees)
    return matrix_rank(rows) == columns


# The variables of macaulay_resultant_ternary's forms.
TERNARY_VARIABLES = ("x", "y", "z")


def _bezoutian_rows(forms, d, index):
    """The Bezout rows of the hybrid matrix of three ternary forms of degree d.

    The Bezoutian is det(delta_ij), where delta_ij is the divided
    difference (f_i(y_<j, x_>=j) - f_i(y_<=j, x_>j)) / (x_j - y_j), read
    term by term from (u^k - v^k) / (u - v) = sum u^a v^(k-1-a).  Each form
    is scaled to integers by the lcm of its denominators, and a monomial in
    x and y is packed into one int (x's exponents, y's, then the
    y-degree), so a monomial product is one addition.  Only the part of
    y-degree d - 1 is read, so products of y-degree d or more are dropped.
    The row of y^m (grlex-descending) holds the coefficient of y^m x^c in
    column ``index[c]``, divided by the product of the scales.
    """
    w = (3 * d).bit_length()  # a field holds any exponent of the degree 3d - 3 Bezoutian
    top = 6 * w
    xs = [1 << i * w for i in range(3)]
    ys = [u << 3 * w | 1 << top for u in xs]  # y_i, and one more in the y-degree
    scale, delta = 1, []
    for f in forms:
        s, terms = _packed_terms(f.terms, {v: i * w for i, v in enumerate(TERNARY_VARIABLES)})
        scale *= s
        entries = [{}, {}, {}]
        for key, n in terms:
            # key runs through y_<j^a * x_>=j^a: delta_ij's terms are
            # y_<j^a * x_j^k * y_j^(a_j-1-k) * x_>j^a for k < a_j
            for j, (u, v) in enumerate(zip(xs, ys)):
                a = key >> j * w & (1 << w) - 1
                key -= a * u
                for k in range(a):
                    entries[j][key + k * u + (a - 1 - k) * v] = n
                key += a * v
        delta.append(entries)

    def times(left, right, out, sign=1):
        for k1, c1 in left.items():
            for k2, c2 in right.items():
                if (k := k1 + k2) >> top < d:
                    out[k] = out.get(k, 0) + sign * c1 * c2
        return out

    first, second, third = delta
    bezoutian = {}
    for j, p, q in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # expansion along the first row
        minor = times(second[q], third[p], times(second[p], third[q], {}), -1)
        times(first[j], minor, bezoutian)
    return [[Fraction(bezoutian.get(sum(e * u for e, u in zip(c + m, xs + ys)), 0), scale)
             for c in index] for m in _monomials_of_degree(TERNARY_VARIABLES, d - 1)]


def macaulay_resultant_ternary(f1: Poly, f2: Poly, f3: Poly) -> Fraction:
    """Resultant of three ternary forms of one common degree d.

    Zero exactly when the forms share a projective zero over the complex
    numbers.  It is the determinant of the hybrid Sylvester-Bezout matrix
    (Jouanolou 1997; Dickenstein and D'Andrea 2001), d(2d - 1) square,
    whose columns are the monomials of degree 2d - 2 and whose rows are
    x^e * f_i for each form and each monomial x^e of degree d - 2, then
    ``_bezoutian_rows``.  That determinant has no extraneous factor: it
    is Res up to a sign fixed by d, so the result is multiplied by the
    same determinant for x^d, y^d, z^d, which is that sign and makes
    Res(x^d, y^d, z^d) = 1.  No minor, frame or retry is involved.
    """
    forms = [f1, f2, f3]
    vs = TERNARY_VARIABLES
    degs = []
    for f in forms:
        extra = f.variables - set(vs)
        if any(f.degree_in(v) > 0 for v in extra):
            raise PolyError(f"coefficients must be rational; stray variables {sorted(extra)}")
        if f:
            degs.append(f.homogeneous_degree({v: 1 for v in vs}))
    if len(degs) < 3:
        # A zero form shares a projective zero with the other two always
        # (two ternary forms of positive degree meet in P2).
        return Fraction(0)
    if len(set(degs)) != 1:
        raise HomogeneityError(f"forms must share one degree, got {degs}")
    d = degs[0]
    if d < 1:
        raise DegreeError("forms must have positive degree")
    index = {m: i for i, m in enumerate(_monomials_of_degree(vs, 2 * d - 2))}
    return prod(det_fraction([_shifted_row(f, e, vs, index)
                              for f in fs for e in _monomials_of_degree(vs, d - 2)]
                             + _bezoutian_rows(fs, d, index))
                for fs in (forms, [Poly.var(v) ** d for v in vs]))


# ---------------------------------------------------------------------------
# Perfect squares and rational roots of rationals


def rational_sqrt(c: Fraction) -> Optional[Fraction]:
    """Exact nonnegative square root of c, or None when c is not a square."""
    c = Fraction(c)
    if c < 0:
        return None
    n, d = c.numerator, c.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def is_perfect_square(p: Poly) -> Optional[Poly]:
    """Return q with q*q == p when p is a square of a polynomial, else None.

    Leading-term square-root extraction under graded-lex.  The remainder
    p - q*q is one dict: each new root term t subtracts 2*q*t + t*t from
    it in place, and the loop gives up when the remainder's leading term
    does not fall or is not divisible by the root's.  The final
    verification is one squaring, so a returned witness is always exact.
    """
    if p.is_zero():
        return Poly.zero()
    varlist = sorted(p.variables)
    key = lambda m: _mono_key(m, varlist)
    lead_m = max(p.terms, key=key)
    if any(e % 2 for _, e in lead_m):
        return None
    root_c = rational_sqrt(p.terms[lead_m])
    if root_c is None:
        return None
    half = tuple((name, e // 2) for name, e in lead_m)
    root = {half: root_c}
    rem = dict(p.terms)
    del rem[lead_m]
    prev_key = key(lead_m)
    while rem:
        m = max(rem, key=key)
        if key(m) >= prev_key:
            return None
        prev_key = key(m)
        t_mono = _mono_div(m, half)
        if t_mono is None:
            return None
        c = rem[m] / (2 * root_c)
        products = [(_mono_mul(r, t_mono), 2 * rc * c) for r, rc in root.items()]
        products.append((_mono_mul(t_mono, t_mono), c * c))
        _subtract_terms(rem, products)
        root[t_mono] = c
    q = Poly._make(root, p.variables)
    if q * q != p:  # pragma: no cover - construction guarantees this
        return None
    return q


# ---------------------------------------------------------------------------
# Univariate polynomials: Polys whose terms involve one variable


def _univariate(p: Poly, var: str) -> Poly:
    """p itself, or ScopeError when a variable other than ``var`` occurs in its terms."""
    extra = {name for m in p.terms for name, _ in m} - {var}
    if extra:
        raise ScopeError(f"polynomial is not univariate in {var!r}: {sorted(extra)}")
    return p


def univariate_gcd(p: Poly, q: Poly, var: str) -> Poly:
    """Monic gcd of two univariate polynomials over the rationals.

    Euclid's algorithm on the remainders of ``_divide``.
    """
    a, b = _univariate(p, var), _univariate(q, var)
    while b:
        # a nonzero constant divides a: the remainder is zero
        a, b = b, Poly.zero() if b.is_constant() else _divide(a, b)[1]
    return a / a.terms[max(a.terms, key=_mono_degree)] if a else a


# Largest trial divisor ``_int_divisors`` tries before it gives up.
TRIAL_DIVISION_BOUND = 1_000_000


def _int_divisors(n: int) -> Optional[list]:
    """All positive divisors of |n|, or None when factoring passes ``TRIAL_DIVISION_BOUND``."""
    n = abs(n)
    if n == 0:
        return None
    factors = {}
    m = n
    f = 2
    while f * f <= m:
        if f > TRIAL_DIVISION_BOUND:
            return None
        while m % f == 0:
            factors[f] = factors.get(f, 0) + 1
            m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    divisors = [1]
    for prime, mult in factors.items():
        divisors = [d * prime ** k for d in divisors for k in range(mult + 1)]
    return sorted(divisors)


def rational_roots(p: Poly, var: str) -> Optional[list]:
    """All rational roots (with multiplicity) of a univariate polynomial.

    Uses the rational-root theorem after clearing denominators and
    dividing out the content.  Returns None when the integer
    factorizations needed exceed the trial-division bound; callers treat
    that as "roots not determined".
    """
    if not _univariate(p, var):
        raise PolyError("zero polynomial has every root")
    # integer coefficients over the lcm of the denominators, lowest degree first
    ints = [0] * (p.degree_in(var) + 1)
    for e, n in _packed_terms(p.terms, {var: 0})[1]:
        ints[e] = n
    content = gcd(*ints)
    ints = [c // content for c in ints]
    roots = []
    while ints and ints[0] == 0:
        roots.append(Fraction(0))
        ints = ints[1:]
    if len(ints) <= 1:
        return roots
    num_divs = _int_divisors(ints[0])
    den_divs = _int_divisors(ints[-1])
    if num_divs is None or den_divs is None:
        return None
    candidates = set()
    for a in num_divs:
        for b in den_divs:
            candidates.add(Fraction(a, b))
            candidates.add(Fraction(-a, b))
    current = list(ints)
    for r in sorted(candidates):
        while len(current) > 1 and _dense_eval(current, r) == 0:
            roots.append(r)
            current = _dense_deflate(current, r)
    return roots


def _dense_eval(coeffs: Sequence, x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _dense_deflate(coeffs: Sequence, root: Fraction) -> list:
    out = [Fraction(0)] * (len(coeffs) - 1)
    carry = Fraction(0)
    for i in range(len(coeffs) - 1, 0, -1):
        carry = Fraction(coeffs[i]) + carry * root
        out[i - 1] = carry
    return out


# ---------------------------------------------------------------------------
# Exact linear algebra over the rationals (dense, small matrices)


def _integer_rows(rows: Sequence[Sequence[Fraction]]):
    """(m, scale): each row times the lcm of its denominators, and the product of those lcms.

    The entries are ints or Fractions, whose numerators and denominators
    are read as they are.
    """
    m = []
    scale = 1
    for row in rows:
        row_scale = lcm(*(v.denominator for v in row))
        m.append([v.numerator * (row_scale // v.denominator) for v in row])
        scale *= row_scale
    return m, scale


def det_fraction(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square rational matrix.

    Each row is scaled to integers (``_integer_rows``) and the integer
    matrix is reduced by ``_bareiss``, the elimination that
    ``PolyMatrix.det_bareiss`` runs on polynomials.  The result is the
    integer determinant over the product of the row scales.
    """
    m, scale = _integer_rows(rows)
    rank, d = _bareiss(m)
    return Fraction(d, scale) if rank == len(m) else Fraction(0)


def rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def matrix_rank(rows) -> int:
    """Rank of a rational matrix: ``_bareiss`` on its rows scaled to integers."""
    return _bareiss(_integer_rows(rows)[0])[0]


def nullspace(rows: Sequence[Sequence[Fraction]]) -> list:
    """Canonical basis of the right kernel, by back-substitution from rref."""
    if not rows:
        return []
    reduced, pivots = rref(rows)
    n_cols = len(rows[0])
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def inverse(rows: Sequence[Sequence[Fraction]]) -> list:
    """Inverse of a square rational matrix, read off the rref of [A | I]."""
    n = len(rows)
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    reduced, pivots = rref(augmented)
    if pivots != list(range(n)):
        raise PolyError("matrix is not invertible")
    return [row[n:] for row in reduced]


def mat_vec(rows: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> list:
    return [sum(a * v for a, v in zip(row, vec)) for row in rows]


def congruence(m: Sequence[Sequence[Fraction]], s: Sequence[Sequence[Fraction]]) -> list:
    """s^T m s for square m and s: the quadratic form m in the coordinates x = s y."""
    n = len(s)
    ms = [[sum(m[i][k] * s[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(s[k][i] * ms[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def clear_denominators(vec: Sequence[Fraction]) -> list:
    """Scale to primitive ints, first nonzero entry positive.

    The entries are ints or Fractions; the result is a list of ints.
    """
    scale = lcm(*(v.denominator for v in vec))
    ints = [v.numerator * (scale // v.denominator) for v in vec]
    g = gcd(*ints)
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return [v // g for v in ints] if g not in (0, 1) else ints
