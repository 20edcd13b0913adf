"""Exact arithmetic in small finite fields GF(p^n).

Elements are dense coefficient vectors over GF(p), reduced modulo a fixed
monic irreducible polynomial in the generator ``t``.  Everything here is
desk scale (n <= 8), so schoolbook polynomial arithmetic is used throughout,
with no log/antilog tables; that makes it an independent check on the array
kernels (linalg), which gather from such tables.  They code an element as an
int64 below q = p^n, so q is bounded by 2^63 - 1.  The default modulus is
the lexicographically smallest monic irreducible, found with Rabin's test.
"""

from __future__ import annotations

import functools
import itertools
import re

from typing import Sequence

__all__ = [
    "GF",
    "FieldSpec",
    "FieldElement",
    "FieldMismatch",
    "MAX_EXTENSION_DEGREE",
    "MAX_CHARACTERISTIC",
    "MAX_FIELD_ORDER",
    "parse_field_literal",
    "is_prime",
]

MAX_EXTENSION_DEGREE = 8
# above every prime a command accepts: group primes are at most the largest
# group order (512), and a gl-check grid p^m holds at most 4096 cells
MAX_CHARACTERISTIC = 4096
# field elements are int64 codes 0 .. q - 1
MAX_FIELD_ORDER = 2**63 - 1


class FieldMismatch(ValueError):
    """Raised when two operands live over different field specs."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient lists are low-degree first

def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    # mod is monic
    r = list(a)
    dm = len(mod) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for i, c in enumerate(mod):
                r[shift + i] = (r[shift + i] - lead * c) % p
        r.pop()
    return _trim(r)


def _poly_sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _poly_powmod(base: list[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    result = [1]
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), mod, p)
        base = _poly_mod(_poly_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """gcd of a and b over GF(p); monic unless b is zero."""
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Rabin's test for a monic f of degree n over GF(p).

    f is irreducible iff f divides x^(p^n) - x and gcd(f, x^(p^(n/d)) - x)
    = 1 for every prime d dividing n.  The powers x^(p^k) mod f come from
    k Frobenius steps of square-and-multiply, so the cost is polynomial in
    n and log p.
    """
    n = len(coeffs) - 1
    if n < 1 or coeffs[-1] != 1:
        return False
    f = list(coeffs)
    x = _poly_mod([0, 1], f, p)
    frobenius = [x]  # frobenius[k] = x^(p^k) mod f
    for _ in range(n):
        frobenius.append(_poly_powmod(frobenius[-1], p, f, p))
    if _poly_sub(frobenius[n], x, p):
        return False
    for d in range(2, n + 1):
        if n % d == 0 and is_prime(d):
            if len(_poly_gcd(f, _poly_sub(frobenius[n // d], x, p), p)) != 1:
                return False
    return True


@functools.cache
def _smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over GF(p).

    Candidates are ordered by their low-degree-first coefficient vectors, so
    the choice is reproducible across runs and platforms.
    """
    # itertools.product varies the last digit fastest, so putting the constant
    # coefficient first makes it the most significant comparison digit.  For
    # n >= 2 every candidate with constant coefficient 0 is divisible by t, so
    # that leading block of p^(n-1) candidates is skipped
    first = range(1 if n >= 2 else 0, p)
    for low_first in itertools.product(first, *[range(p)] * (n - 1)):
        coeffs = list(low_first) + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible polynomial of degree {n} over GF({p})")


class FieldSpec:
    """A concrete finite field GF(p^n) with a pinned modulus.

    Two specs compare equal iff they have the same characteristic, degree and
    modulus; mixing elements across unequal specs raises FieldMismatch.
    """

    __slots__ = ("p", "n", "q", "modulus")

    def __init__(self, p: int, n: int = 1, modulus: Sequence[int] | str | None = None):
        # trial division would not end on a huge p, so bound it first
        if p > MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic {p} exceeds the supported maximum {MAX_CHARACTERISTIC}")
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if not 1 <= n <= MAX_EXTENSION_DEGREE:
            raise ValueError(f"extension degree must be in 1..{MAX_EXTENSION_DEGREE}, got {n}")
        if p**n > MAX_FIELD_ORDER:
            raise ValueError(f"field order {p}^{n} exceeds the supported maximum 2^63 - 1")
        self.p = p
        self.n = n
        self.q = p**n
        if modulus is None:
            self.modulus = _smallest_irreducible(p, n)
        else:
            if isinstance(modulus, str):
                modulus = parse_polynomial_literal(modulus, p)
            mod = tuple(c % p for c in modulus)
            if len(mod) != n + 1:
                raise ValueError(f"modulus must have degree {n} (got {len(mod) - 1})")
            if mod[-1] != 1:
                raise ValueError("modulus must be monic")
            if not _is_irreducible(mod, p):
                raise ValueError(f"modulus {list(mod)} is reducible over GF({p})")
            self.modulus = mod

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    def __repr__(self) -> str:
        if self.n == 1:
            return f"GF({self.p})"
        return f"GF({self.q}; {format_modulus(self)})"

    # -- element constructors ------------------------------------------------

    def one(self) -> FieldElement:
        return FieldElement(self, (1,) + (0,) * (self.n - 1))

    def element(self, value: int | FieldElement) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise FieldMismatch(f"element of {value.spec!r} used in {self!r}")
            return value
        return FieldElement(self, (value % self.p,) + (0,) * (self.n - 1))

    def from_coeffs(self, coeffs: Sequence[int]) -> FieldElement:
        reduced = _poly_mod([c % self.p for c in coeffs], self.modulus, self.p)
        reduced += [0] * (self.n - len(reduced))
        return FieldElement(self, tuple(reduced))

    # -- integer codes (base-p packed coefficients) --------------------------

    def code_of(self, a: FieldElement) -> int:
        if a.spec != self:
            raise FieldMismatch(f"element of {a.spec!r} used in {self!r}")
        code = 0
        for c in reversed(a.coeffs):
            code = code * self.p + c
        return code

    def element_from_code(self, code: int) -> FieldElement:
        if not 0 <= code < self.q:
            raise ValueError(f"code {code} out of range for {self!r}")
        coeffs = []
        for _ in range(self.n):
            coeffs.append(code % self.p)
            code //= self.p
        return FieldElement(self, tuple(coeffs))

    def parse(self, text: str) -> FieldElement:
        return parse_field_literal(self, text)


def GF(p: int, n: int = 1, modulus: Sequence[int] | None = None) -> FieldSpec:
    return FieldSpec(p, n, modulus)


class FieldElement:
    """An element of a fixed GF(p^n), stored as a coefficient tuple."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple[int, ...]):
        self.spec = spec
        self.coeffs = coeffs

    def _coerce(self, other: int | FieldElement) -> FieldElement:
        if isinstance(other, int):
            return self.spec.element(other)
        if not isinstance(other, FieldElement):
            return NotImplemented  # type: ignore[return-value]
        if other.spec != self.spec:
            raise FieldMismatch(f"cannot combine {self.spec!r} with {other.spec!r}")
        return other

    def __add__(self, other: int | FieldElement) -> FieldElement:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.spec.p
        return FieldElement(self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> FieldElement:
        p = self.spec.p
        return FieldElement(self.spec, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other: int | FieldElement) -> FieldElement:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: int) -> FieldElement:
        return (-self) + other

    def __mul__(self, other: int | FieldElement) -> FieldElement:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        spec = self.spec
        prod = _poly_mul(_trim(list(self.coeffs)), _trim(list(o.coeffs)), spec.p)
        return spec.from_coeffs(prod)

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        if self.is_zero():
            raise ZeroDivisionError(f"zero is not invertible in {self.spec!r}")
        return self ** (self.spec.q - 2)

    def __truediv__(self, other: int | FieldElement) -> FieldElement:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: int) -> FieldElement:
        return self.spec.element(other) / self

    def __pow__(self, exponent: int) -> FieldElement:
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.spec.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = self.spec.element(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # equal to its residue 0..p-1 when in the prime subfield, as __eq__ says
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.spec, self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self) -> str:
        return format_field_literal(self)

    def __repr__(self) -> str:
        return f"{self.spec!r}:{self}"


# ---------------------------------------------------------------------------
# literal grammar: decimal residues for prime fields, polynomials in t
# (e.g. "2*t+1", "t^2+2") for extensions; spaces are optional

def _format_polynomial(coeffs: Sequence[int]) -> str:
    """Low-degree-first coefficients as a polynomial in t, top degree first."""
    terms = []
    for deg in range(len(coeffs) - 1, -1, -1):
        c = coeffs[deg]
        if c == 0:
            continue
        if deg == 0:
            terms.append(str(c))
        elif deg == 1:
            terms.append("t" if c == 1 else f"{c}*t")
        else:
            terms.append(f"t^{deg}" if c == 1 else f"{c}*t^{deg}")
    return "+".join(terms) if terms else "0"


def format_field_literal(a: FieldElement) -> str:
    return _format_polynomial(a.coeffs)


def format_modulus(spec: FieldSpec) -> str:
    return _format_polynomial(spec.modulus)


def split_terms(text: str) -> list[tuple[int, str]]:
    """Split a sum of signed terms into (sign, term) pairs, the one splitter
    of field and kG literals.  A sign inside parentheses belongs to its
    term, and consecutive signs multiply, so 't+-1' is t - 1 and 't--1' is
    t + 1."""
    s = text.strip()
    if not s:
        raise ValueError("empty literal")
    out = []
    depth = 0
    pending = 1
    cur: list[str] = []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        if depth == 0 and ch in "+-":
            chunk = "".join(cur).strip()
            if chunk:
                out.append((pending, chunk))
                pending = 1
            pending *= 1 if ch == "+" else -1
            cur = []
            continue
        cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    chunk = "".join(cur).strip()
    if not chunk:
        raise ValueError(f"dangling operator in {text!r}")
    out.append((pending, chunk))
    return out


# compiled on the first literal parsed, by re's cache, not on import
_TERM = r"(?:(\d+)\*?)?(t)(?:\^(\d+))?|(\d+)"


def _polynomial_terms(text: str, p: int) -> list[tuple[int, int]]:
    """Parse a polynomial in t over GF(p) into (degree, coefficient mod p) terms."""
    out = []
    for sign, term in split_terms(text.replace(" ", "")):
        mt = re.fullmatch(_TERM, term)
        if not mt:
            raise ValueError(f"malformed term {term!r} in field literal {text!r}")
        if mt.group(4) is not None:
            out.append((0, sign * int(mt.group(4)) % p))
        else:
            coef = int(mt.group(1)) if mt.group(1) else 1
            out.append((int(mt.group(3)) if mt.group(3) else 1, sign * coef % p))
    return out


def parse_polynomial_literal(text: str, p: int) -> list[int]:
    """Parse a polynomial in t over GF(p), low-degree-first coefficients.

    A modulus is parsed this way, so a degree above MAX_EXTENSION_DEGREE is
    rejected before the coefficient list is allocated.
    """
    terms = _polynomial_terms(text, p)
    top = max(deg for deg, _ in terms)
    if top > MAX_EXTENSION_DEGREE:
        raise ValueError(f"polynomial degree {top} exceeds {MAX_EXTENSION_DEGREE} in {text!r}")
    coeffs = [0] * (top + 1)
    for deg, coef in terms:
        coeffs[deg] = (coeffs[deg] + coef) % p
    return coeffs


def parse_field_literal(spec: FieldSpec, text: str) -> FieldElement:
    """Parse an element literal; each t^d is reduced modulo the modulus by
    _poly_powmod and added into the coefficients, with no FieldElement
    arithmetic."""
    coeffs = [0] * spec.n
    for deg, coef in _polynomial_terms(text, spec.p):
        for i, c in enumerate(_poly_powmod([0, 1], deg, spec.modulus, spec.p)):
            coeffs[i] = (coeffs[i] + coef * c) % spec.p
    return FieldElement(spec, tuple(coeffs))
