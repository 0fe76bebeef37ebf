"""Monomials, homogeneous polynomials, ideal descriptions, and their text grammar.

Monomial order
    Graded lexicographic with x1 taking precedence over x2 over x3 and so on.
    Within a degree, monomials heavier in earlier variables come first, so the
    degree-2 monomials in two variables enumerate as x1^2, x1*x2, x2^2. All
    bases, reports and pretty-printed polynomials use this order.

Ideal text grammar
    variables    x1, x2, ..., xN
    term         optional rational coefficient (``3``, ``-1/2``) joined by ``*``
                 with variable powers ``xi^e``
    polynomial   terms separated by ``+`` / ``-``
    ideal        generators separated by commas or newlines
    comments     ``#`` to end of line; whitespace is insignificant

Parsing rejects non-homogeneous polynomials and reports syntax errors with
line and column numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Iterable, Iterator, Mapping, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class ParseError(ValueError):
    """Syntax error in ideal/polynomial text, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class NonHomogeneousError(ParseError):
    """A polynomial mixes terms of different degrees."""


@total_ordering
@dataclass(frozen=True)
class Monomial:
    """Monomial as a vector of non-negative exponents, one per variable."""

    exps: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.exps):
            raise ValueError("exponents must be non-negative")

    @property
    def nvars(self) -> int:
        return len(self.exps)

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def key(self) -> tuple:
        # Graded lex: lower degree first, then earlier-variable-heavy first.
        return (self.degree, tuple(-e for e in self.exps))

    def __lt__(self, other: "Monomial") -> bool:
        return self.key() < other.key()

    def __mul__(self, other: "Monomial") -> "Monomial":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def divides(self, other: "Monomial") -> bool:
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def __repr__(self) -> str:
        return f"Monomial({format_monomial(self)!r})"


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, degree: int) -> tuple[Monomial, ...]:
    """All monomials of the given total degree, in graded-lex order."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be non-negative")

    def gen(prefix: tuple[int, ...], remaining: int, k: int) -> Iterator[tuple[int, ...]]:
        if k == 1:
            yield prefix + (remaining,)
            return
        for e in range(remaining, -1, -1):
            yield from gen(prefix + (e,), remaining - e, k - 1)

    return tuple(Monomial(t) for t in gen((), degree, nvars))


def in_monomial_ideal(m: Monomial, gens: Iterable[Monomial]) -> bool:
    """Membership in a monomial ideal: some generator divides `m`."""
    return any(g.divides(m) for g in gens)


def minimalize_monomial_gens(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Drop duplicate and divisibility-redundant generators."""
    unique = sorted(set(gens))
    kept = [g for g in unique if not any(h.divides(g) for h in unique if h != g)]
    return tuple(kept)


@dataclass(frozen=True, slots=True, init=False)
class HomogPoly:
    """Homogeneous polynomial with rational coefficients.

    Only nonzero coefficients are stored. The zero polynomial keeps a nominal
    degree so that sums and products stay well-typed.
    """

    nvars: int
    degree: int
    coeffs: dict[Monomial, Fraction]

    def __init__(self, nvars: int, degree: int, coeffs: Mapping[Monomial, Fraction] | Iterable = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        store: dict[Monomial, Fraction] = {}
        for m, c in items:
            c = c if isinstance(c, Fraction) else Fraction(c)
            if m.nvars != nvars:
                raise ValueError("monomial variable count does not match")
            if m.degree != degree:
                raise ValueError(f"monomial of degree {m.degree} in a degree-{degree} polynomial")
            if c:
                if m in store:
                    c += store[m]
                    if not c:
                        del store[m]
                        continue
                store[m] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", store)

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "HomogPoly":
        return cls(nvars, degree, ())

    @classmethod
    def from_monomial(cls, m: Monomial, coeff: Fraction = ONE) -> "HomogPoly":
        return cls(m.nvars, m.degree, [(m, coeff)])

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, m: Monomial) -> Fraction:
        return self.coeffs.get(m, ZERO)

    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        """(monomial, coefficient) pairs in graded-lex order."""
        return tuple(sorted(self.coeffs.items(), key=lambda mc: mc[0].key()))

    def support(self) -> tuple[Monomial, ...]:
        return tuple(m for m, _ in self.terms())

    def _check_compatible(self, other: "HomogPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        if self.degree != other.degree:
            raise ValueError("degrees differ")

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        self._check_compatible(other)
        merged = dict(self.coeffs)
        for m, c in other.coeffs.items():
            merged[m] = merged.get(m, ZERO) + c
        return HomogPoly(self.nvars, self.degree, merged)

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def __neg__(self) -> "HomogPoly":
        return HomogPoly(self.nvars, self.degree, [(m, -c) for m, c in self.coeffs.items()])

    def __mul__(self, other):
        if isinstance(other, HomogPoly):
            if self.nvars != other.nvars:
                raise ValueError("variable counts differ")
            out: dict[Monomial, Fraction] = {}
            for m1, c1 in self.coeffs.items():
                for m2, c2 in other.coeffs.items():
                    m = m1 * m2
                    out[m] = out.get(m, ZERO) + c1 * c2
            return HomogPoly(self.nvars, self.degree + other.degree, out)
        return HomogPoly(
            self.nvars, self.degree, [(m, c * Fraction(other)) for m, c in self.coeffs.items()]
        )

    def __rmul__(self, other) -> "HomogPoly":
        return self * other

    def __pow__(self, k: int) -> "HomogPoly":
        if k < 0:
            raise ValueError("negative power")
        out = HomogPoly(self.nvars, 0, [(Monomial((0,) * self.nvars), ONE)])
        for _ in range(k):
            out = out * self
        return out

    def __hash__(self) -> int:
        # `coeffs` is a dict, so the generated field hash would fail.
        return hash((self.nvars, self.degree, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        return f"HomogPoly({format_poly(self)!r})"


def variable(nvars: int, index: int) -> HomogPoly:
    """The linear form x_{index+1} (zero-based index)."""
    exps = [0] * nvars
    exps[index] = 1
    return HomogPoly.from_monomial(Monomial(tuple(exps)))


def linear_form(coeffs: Sequence) -> HomogPoly:
    """Linear form with the given coefficient vector."""
    n = len(coeffs)
    terms = []
    for i, c in enumerate(coeffs):
        exps = [0] * n
        exps[i] = 1
        terms.append((Monomial(tuple(exps)), Fraction(c)))
    return HomogPoly(n, 1, terms)


class IdealKind(Enum):
    MONOMIAL = "monomial"
    MONOMIAL_PLUS_ONE_BINOMIAL = "monomial_plus_one_binomial"
    GENERAL = "general"


@dataclass(frozen=True)
class IdealSpec:
    """Homogeneous ideal given by generators, with a classified shape."""

    nvars: int
    generators: tuple[HomogPoly, ...]
    kind: IdealKind

    def binomial_parts(self) -> tuple[tuple[Monomial, ...], Monomial, Monomial]:
        """For the monomial-plus-one-binomial shape: (J monomials, f1, f2)."""
        if self.kind is not IdealKind.MONOMIAL_PLUS_ONE_BINOMIAL:
            raise ValueError("ideal is not of monomial-plus-one-binomial shape")
        singles = []
        pair = None
        for g in self.generators:
            sup = g.support()
            if len(sup) == 1:
                singles.append(sup[0])
            else:
                pair = sup
        if pair is None:
            raise ValueError("ideal has no binomial generator")
        return tuple(singles), pair[0], pair[1]


def make_ideal(nvars: int, gens: Iterable[HomogPoly]) -> IdealSpec:
    """Build an IdealSpec, normalizing generators and classifying the shape.

    Single-term generators are rescaled to coefficient 1. A two-term
    generator whose coefficients are equal is rescaled to the pair (1, 1);
    with unequal coefficients the ideal is classified as general instead.
    """
    kept = []
    for g in gens:
        if g.nvars != nvars:
            raise ValueError("generator variable count does not match")
        if g.is_zero():
            continue
        if len(g.coeffs) == 1:
            (m, c), = g.coeffs.items()
            kept.append(g if c == 1 else HomogPoly.from_monomial(m))
        else:
            kept.append(g)

    if all(len(g.coeffs) == 1 for g in kept):
        return IdealSpec(nvars, tuple(kept), IdealKind.MONOMIAL)

    two_term = [i for i, g in enumerate(kept) if len(g.coeffs) == 2]
    rest_single = all(len(g.coeffs) == 1 for i, g in enumerate(kept) if i not in two_term)
    if len(two_term) == 1 and rest_single:
        i = two_term[0]
        g = kept[i]
        (m1, c1), (m2, c2) = g.terms()
        singles_deg2 = all(
            kept[j].degree == 2 for j in range(len(kept)) if j != i
        )
        if c1 == c2 and g.degree == 2 and singles_deg2:
            kept[i] = HomogPoly(nvars, 2, [(m1, ONE), (m2, ONE)])
            return IdealSpec(nvars, tuple(kept), IdealKind.MONOMIAL_PLUS_ONE_BINOMIAL)

    return IdealSpec(nvars, tuple(kept), IdealKind.GENERAL)


def monomial_ideal(nvars: int, monomials: Iterable[Monomial]) -> IdealSpec:
    """IdealSpec generated by the given monomials."""
    return make_ideal(nvars, [HomogPoly.from_monomial(m) for m in monomials])


# ---------------------------------------------------------------------------
# formatting


def format_monomial(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m.exps):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def _format_coeff_mono(c: Fraction, m: Monomial) -> str:
    if m.degree == 0:
        return str(c)
    mono = format_monomial(m)
    if c == 1:
        return mono
    if c == -1:
        return f"-{mono}"
    return f"{c}*{mono}"


def format_poly(p: HomogPoly) -> str:
    terms = p.terms()
    if not terms:
        return "0"
    pieces = []
    for idx, (m, c) in enumerate(terms):
        if idx == 0:
            pieces.append(_format_coeff_mono(c, m))
        elif c < 0:
            pieces.append(f"- {_format_coeff_mono(-c, m)}")
        else:
            pieces.append(f"+ {_format_coeff_mono(c, m)}")
    return " ".join(pieces)


def format_ideal(spec: IdealSpec) -> str:
    return ", ".join(format_poly(g) for g in spec.generators)


# ---------------------------------------------------------------------------
# parsing


@dataclass(frozen=True)
class _Token:
    kind: str  # int, var, ^, *, /, +, -, sep
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            toks.append(_Token("sep", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch == ",":
            toks.append(_Token("sep", ",", line, col))
            i += 1
            col += 1
            continue
        if ch in "+-*/^":
            toks.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            start, c0 = i, col
            while i < n and text[i].isdigit():
                i += 1
                col += 1
            toks.append(_Token("int", text[start:i], line, c0))
            continue
        if ch == "x":
            start, c0 = i, col
            i += 1
            col += 1
            d0 = i
            while i < n and text[i].isdigit():
                i += 1
                col += 1
            if i == d0:
                raise ParseError("expected a variable like x1", line, c0)
            toks.append(_Token("var", text[start:i], line, c0))
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return toks


class _PolyParser:
    def __init__(self, toks: list[_Token], nvars: int):
        self.toks = toks
        self.nvars = nvars
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.toks[-1]
            raise ParseError("unexpected end of input", last.line, last.col + len(last.text))
        self.pos += 1
        return tok

    def parse_poly(self) -> HomogPoly:
        if not self.toks:
            raise ParseError("empty polynomial", 1, 1)
        coeffs: dict[Monomial, Fraction] = {}
        degree: int | None = None
        first = True
        while self.peek() is not None:
            tok = self.peek()
            sign = ONE
            if tok.kind in "+-":
                self.take()
                sign = ONE if tok.kind == "+" else -ONE
            elif not first:
                raise ParseError(f"expected '+' or '-', found {tok.text!r}", tok.line, tok.col)
            start = self.peek()
            if start is None:
                last = self.toks[-1]
                raise ParseError("dangling sign", last.line, last.col)
            coeff, mono = self.parse_term()
            coeff *= sign
            if degree is None:
                degree = mono.degree
            elif mono.degree != degree:
                raise NonHomogeneousError(
                    f"term of degree {mono.degree} in a polynomial of degree {degree}",
                    start.line,
                    start.col,
                )
            if coeff:
                coeffs[mono] = coeffs.get(mono, ZERO) + coeff
                if not coeffs[mono]:
                    del coeffs[mono]
            first = False
        return HomogPoly(self.nvars, degree, coeffs)

    def parse_term(self) -> tuple[Fraction, Monomial]:
        coeff = ONE
        exps = [0] * self.nvars
        need_factor = True  # at the start and after every '*'
        while True:
            tok = self.peek()
            if tok is None or tok.kind in "+-":
                break
            coeff, exps = self.parse_factor(coeff, exps)
            need_factor = False
            nxt = self.peek()
            if nxt is not None and nxt.kind == "*":
                self.take()
                need_factor = True
                continue
            break
        if need_factor:
            tok = self.peek() or self.toks[-1]
            raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)
        return coeff, Monomial(tuple(exps))

    def parse_factor(self, coeff: Fraction, exps: list[int]) -> tuple[Fraction, list[int]]:
        tok = self.take()
        if tok.kind == "int":
            num = int(tok.text)
            nxt = self.peek()
            if nxt is not None and nxt.kind == "/":
                self.take()
                den_tok = self.take()
                if den_tok.kind != "int":
                    raise ParseError("expected an integer denominator", den_tok.line, den_tok.col)
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError("zero denominator", den_tok.line, den_tok.col)
                return coeff * Fraction(num, den), exps
            return coeff * num, exps
        if tok.kind == "var":
            idx = int(tok.text[1:])
            if not (1 <= idx <= self.nvars):
                raise ParseError(
                    f"unknown variable {tok.text} (expected x1..x{self.nvars})", tok.line, tok.col
                )
            power = 1
            nxt = self.peek()
            if nxt is not None and nxt.kind == "^":
                self.take()
                e_tok = self.take()
                if e_tok.kind != "int":
                    raise ParseError("expected an integer exponent", e_tok.line, e_tok.col)
                power = int(e_tok.text)
            exps = list(exps)
            exps[idx - 1] += power
            return coeff, exps
        raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)


def parse_poly(text: str, nvars: int) -> HomogPoly:
    """Parse a single homogeneous polynomial."""
    toks = _tokenize(text)
    segments = _split_segments(toks)
    if len(segments) != 1:
        if not segments:
            raise ParseError("empty polynomial", 1, 1)
        extra = segments[1][0]
        raise ParseError("expected a single polynomial", extra.line, extra.col)
    return _PolyParser(segments[0], nvars).parse_poly()


def _split_segments(toks: list[_Token]) -> list[list[_Token]]:
    segments: list[list[_Token]] = []
    current: list[_Token] = []
    for tok in toks:
        if tok.kind == "sep":
            if current:
                segments.append(current)
                current = []
        else:
            current.append(tok)
    if current:
        segments.append(current)
    return segments


def parse_ideal(text: str, nvars: int) -> IdealSpec:
    """Parse a comma/newline separated generator list into an IdealSpec."""
    toks = _tokenize(text)
    gens = [_PolyParser(seg, nvars).parse_poly() for seg in _split_segments(toks)]
    return make_ideal(nvars, gens)
