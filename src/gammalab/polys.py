"""
Exact integer polynomials in s and t, palindromicity, and gamma-basis expansion.

All coefficients are Python ints, so arithmetic is arbitrary precision and
exact; no floating point appears anywhere in this module (or this package).

A bivariate polynomial P of darga m is *palindromic* when its coefficient
grid is symmetric with respect to both diagonals: coeff(p, q) = coeff(q, p)
and coeff(p, q) = coeff(m-p, m-q).  Such polynomials are exactly the span of
the gamma basis

    (st)^i (s+t)^j (1+st)^(m-j-2i),    i, j >= 0,  2i+j <= m,

and expanding in that basis is what `gamma_expand_bivariate` does.  The
univariate analogue uses the basis q^j (1+q)^(m-2j).
"""
from __future__ import annotations

from math import comb
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ExpansionError

Monomial = tuple[int, int]


class BivarPoly:
    """A polynomial in s and t stored as a sparse map (s_degree, t_degree) -> int.

    Instances are immutable by convention: every operation returns a new
    polynomial and zero coefficients are never stored.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] | None = None):
        c: dict[Monomial, int] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
            for (p, q), v in items:
                if p < 0 or q < 0:
                    raise ValueError(f"negative degree in monomial s^{p} t^{q}")
                if v:
                    key = (p, q)
                    nv = c.get(key, 0) + v
                    if nv:
                        c[key] = nv
                    elif key in c:
                        del c[key]
        self._c = c

    # -- construction helpers ------------------------------------------------

    @classmethod
    def const(cls, v: int) -> "BivarPoly":
        return cls({(0, 0): v})

    @classmethod
    def monomial(cls, c: int, s_deg: int, t_deg: int) -> "BivarPoly":
        return cls({(s_deg, t_deg): c})

    @classmethod
    def from_nonzero(cls, c: dict[Monomial, int]) -> "BivarPoly":
        """The polynomial of ``c``, taken as it is and not copied: the caller
        guarantees no zero coefficient and no negative degree, and keeps no
        reference to ``c``."""
        out = cls.__new__(cls)
        out._c = c
        return out

    # -- inspection ----------------------------------------------------------

    def coeff(self, s_deg: int, t_deg: int) -> int:
        return self._c.get((s_deg, t_deg), 0)

    def items(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._c.items())

    def terms(self) -> list[tuple[Monomial, int]]:
        """Nonzero terms sorted by (total degree, s-degree); the canonical order."""
        return sorted(self._c.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]))

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __len__(self) -> int:
        return len(self._c)

    def evaluate_at_one(self) -> int:
        """The value at s = t = 1, i.e. the sum of all coefficients."""
        return sum(self._c.values())

    # -- arithmetic ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BivarPoly):
            return self._c == other._c
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __neg__(self) -> "BivarPoly":
        return BivarPoly.from_nonzero({k: -v for k, v in self._c.items()})

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        if not isinstance(other, BivarPoly):
            return NotImplemented
        c = dict(self._c)
        for k, v in other._c.items():
            nv = c.get(k, 0) + v
            if nv:
                c[k] = nv
            elif k in c:
                del c[k]
        return BivarPoly.from_nonzero(c)

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + (-other)

    def __mul__(self, other: "BivarPoly | int") -> "BivarPoly":
        if isinstance(other, int):
            c = {k: v * other for k, v in self._c.items()} if other else {}
            return BivarPoly.from_nonzero(c)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        c: dict[Monomial, int] = {}
        for (p1, q1), v1 in self._c.items():
            for (p2, q2), v2 in other._c.items():
                key = (p1 + p2, q1 + q2)
                nv = c.get(key, 0) + v1 * v2
                if nv:
                    c[key] = nv
                elif key in c:
                    del c[key]
        return BivarPoly.from_nonzero(c)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "BivarPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- rendering -----------------------------------------------------------

    def text(self) -> str:
        """Canonical text form, e.g. ``1 + 10*s*t + s*t^2 + s^2*t``.

        Terms are sorted by (total degree, s-degree); bit-exact across runs.
        """
        if not self._c:
            return "0"
        chunks: list[str] = []
        for (p, q), v in self.terms():
            body = _term_body(v, p, q)
            if not chunks:
                chunks.append(body if v > 0 else "-" + body)
            else:
                chunks.append(("+ " if v > 0 else "- ") + body)
        return " ".join(chunks)

    def json_terms(self) -> list[dict[str, int]]:
        return [{"s": p, "t": q, "c": v} for (p, q), v in self.terms()]

    def __repr__(self) -> str:
        return f"BivarPoly({self.text()})"


def _term_body(v: int, p: int, q: int) -> str:
    a = abs(v)
    factors: list[str] = []
    if a != 1 or (p == 0 and q == 0):
        factors.append(str(a))
    if p == 1:
        factors.append("s")
    elif p > 1:
        factors.append(f"s^{p}")
    if q == 1:
        factors.append("t")
    elif q > 1:
        factors.append(f"t^{q}")
    return "*".join(factors)


class Packing:
    """Kronecker substitution: a polynomial in s and t as one int.

    s^p t^q sits at bit ``width * (p*stride + q)``, so packing evaluates P at
    t = 2**width, s = 2**(width*stride).  That is a ring map: the sum or
    product of packed ints is the packed sum or product, and CPython's int
    multiply does the convolution.  ``unpack`` reads signed digits, so it
    recovers every P whose t-degree is below ``stride`` and whose
    coefficients satisfy |c| < 2**(width-1); only the polynomial unpacked has
    to fit, not the operands on the way to it.  When every coefficient is
    nonnegative and they sum below 2**width - 1, ``size`` is that sum.

    >>> pack = Packing(8, 3)
    >>> packed = pack.pack({(0, 1): 2, (2, 0): -5})
    >>> pack.unpack(packed * packed).text(), pack.size(pack.pack({(0, 1): 2, (2, 0): 5}))
    ('4*t^2 - 20*s^2*t + 25*s^4', 7)
    """

    __slots__ = ("width", "stride", "_mask")

    def __init__(self, width: int, stride: int):
        if width < 2 or stride < 1:  # one bit has no positive signed digit
            raise ValueError(f"no packing of width {width} and stride {stride}")
        self.width, self.stride = width, stride
        self._mask = (1 << width) - 1

    def shift(self, p: int, q: int) -> int:
        """The bit offset of s^p t^q: a packed P times s^p t^q is ``P << shift``."""
        return self.width * (p * self.stride + q)

    def pack(self, poly: "BivarPoly | Mapping[Monomial, int]") -> int:
        w = self.width  # each term shifts within its row, and each row once
        rows: dict[int, int] = {}
        for (p, q), c in poly.items():
            rows[p] = rows.get(p, 0) + (c << w * q)
        row = w * self.stride
        return sum(r << row * p for p, r in rows.items())

    def unpack(self, packed: int) -> "BivarPoly":
        w, mask, row_bits = self.width, self._mask, self.width * self.stride
        sign, row_mask, row_sign = 1 << (w - 1), (1 << row_bits) - 1, 1 << (row_bits - 1)
        c: dict[Monomial, int] = {}
        p = 0
        while packed:
            row = packed & row_mask
            packed >>= row_bits
            if row & row_sign:  # a negative row, or digit, borrowed one from the next
                row -= 1 << row_bits
                packed += 1
            q = 0
            while row:
                v = row & mask
                row >>= w
                if v:
                    if v & sign:
                        v -= 1 << w
                        row += 1
                    c[p, q] = v
                q += 1
            p += 1
        return BivarPoly.from_nonzero(c)

    def size(self, packed: int) -> int:
        """The digit sum: ``packed`` mod 2**width - 1."""
        return packed % self._mask

    def from_slots(self, slots: Sequence[int]) -> "BivarPoly":
        """The polynomial of a flat list of slot coefficients (slot p*stride + q)."""
        return BivarPoly((divmod(k, self.stride), v) for k, v in enumerate(slots) if v)


ZERO = BivarPoly()
ONE = BivarPoly.const(1)
ST = BivarPoly.monomial(1, 1, 1)
S_PLUS_T = BivarPoly({(1, 0): 1, (0, 1): 1})
ONE_PLUS_ST = BivarPoly({(0, 0): 1, (1, 1): 1})


# ---------------------------------------------------------------------------
# palindromicity and the bivariate gamma basis
# ---------------------------------------------------------------------------

def is_palindromic_bivariate(P: BivarPoly, m: int) -> bool:
    """Both grid symmetries of darga m: coeff(p,q)=coeff(q,p)=coeff(m-p,m-q).

    The zero polynomial is palindromic of every nonnegative darga.
    """
    return _symmetry_violation(P, m) is None


def _symmetry_violation(P: BivarPoly, m: int) -> str | None:
    """A message naming the first grid symmetry of darga m that P breaks, or None."""
    if m < 0:
        raise ValueError("darga must be nonnegative")
    for (p, q), v in P.items():
        if P.coeff(q, p) != v:
            return (f"coefficient {v} of s^{p}*t^{q} does not match s^{q}*t^{p}: "
                    "polynomial is not symmetric in s and t")
        if p > m or q > m or P.coeff(m - p, m - q) != v:
            return (f"coefficient {v} of s^{p}*t^{q} has no mirror at s^{m - p}*t^{m - q}: "
                    f"polynomial is not palindromic of darga {m}")
    return None


def gamma_basis_bivariate(i: int, j: int, m: int) -> BivarPoly:
    """The basis element (st)^i (s+t)^j (1+st)^(m-j-2i)."""
    if i < 0 or j < 0 or 2 * i + j > m:
        raise ValueError(f"(i={i}, j={j}) out of range for darga {m}")
    return ST ** i * S_PLUS_T ** j * ONE_PLUS_ST ** (m - j - 2 * i)


class BivarGammaExpansion(NamedTuple):
    """Coefficients of a darga-m palindromic polynomial in the gamma basis."""
    darga: int
    gammas: tuple[tuple[Monomial, int], ...]  # ((i, j), coefficient), sorted

    def as_dict(self) -> dict[Monomial, int]:
        return dict(self.gammas)

    def is_positive(self) -> bool:
        return all(c >= 0 for _, c in self.gammas)

    def reconstruct(self) -> BivarPoly:
        total = ZERO
        for (i, j), c in self.gammas:
            total = total + gamma_basis_bivariate(i, j, self.darga) * c
        return total

    def json_form(self) -> dict:
        return {
            "darga": self.darga,
            "gamma": [{"i": i, "j": j, "c": c} for (i, j), c in self.gammas],
        }


def gamma_expand_bivariate(P: BivarPoly, m: int) -> BivarGammaExpansion:
    """Expand a palindromic polynomial of darga m in the bivariate gamma basis.

    Raises ExpansionError, naming the violated symmetry, when P is not in the
    span.  The expansion is exact and unique.
    """
    violation = _symmetry_violation(P, m)
    if violation is not None:
        raise ExpansionError(violation)
    # Rewrite in y = st and e = s+t.  Pairs s^p t^q + s^q t^p (p < q) equal
    # y^p * (s^d + t^d) with d = q-p, and the power sums s^d + t^d follow the
    # recurrence h_d = e*h_{d-1} - y*h_{d-2}.
    h: list[dict[Monomial, int]] = [{(0, 0): 2}, {(0, 1): 1}]
    for d in range(2, m + 1):
        nxt: dict[Monomial, int] = {}
        for (a, b), v in h[d - 1].items():
            nxt[(a, b + 1)] = nxt.get((a, b + 1), 0) + v
        for (a, b), v in h[d - 2].items():
            nxt[(a + 1, b)] = nxt.get((a + 1, b), 0) - v
        h.append(nxt)
    grid: dict[Monomial, int] = {}  # (y_degree, e_degree) -> int
    for (p, q), v in P.items():
        if p < q:
            for (a, b), w in h[q - p].items():
                key = (p + a, b)
                grid[key] = grid.get(key, 0) + v * w
        elif p == q:
            grid[(p, 0)] = grid.get((p, 0), 0) + v
    # For each e-power j, peel the univariate y-polynomial in the darga m-j
    # univariate gamma basis.
    by_e: dict[int, dict[int, int]] = {}
    for (a, b), v in grid.items():
        if v:
            by_e.setdefault(b, {})[a] = v
    gammas: dict[Monomial, int] = {}
    for j, coeffs in by_e.items():
        for i, c in _peel_univariate(coeffs, m - j).items():
            gammas[(i, j)] = c
    ordered = tuple(sorted(gammas.items()))
    return BivarGammaExpansion(m, ordered)


def _peel_univariate(coeffs: dict[int, int], m: int) -> dict[int, int]:
    """Greedy expansion of a palindromic {degree: coeff} map in q^i (1+q)^(m-2i)."""
    rem = {k: v for k, v in coeffs.items() if v}
    out: dict[int, int] = {}
    for i in range(m // 2 + 1):
        c = rem.get(i, 0)
        if c:
            out[i] = c
            e = m - 2 * i
            for k in range(e + 1):
                key = i + k
                nv = rem.get(key, 0) - c * comb(e, k)
                if nv:
                    rem[key] = nv
                elif key in rem:
                    del rem[key]
    if rem:
        k = min(rem)
        raise ExpansionError(
            f"residual coefficient {rem[k]} at degree {k}: "
            f"polynomial is not palindromic of darga {m}"
        )
    return out


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

class UniPoly:
    """A univariate polynomial in q with exact integer coefficients.

    It is kept as the `BivarPoly` in s alone, whose arithmetic and text it
    borrows, so the two types share one implementation.
    """

    __slots__ = ("_p",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] | None = None):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs or ()
        self._p = BivarPoly(((k, 0), v) for k, v in items)

    @classmethod
    def _of(cls, p: BivarPoly) -> "UniPoly":
        out = cls()
        out._p = p
        return out

    def coeff(self, k: int) -> int:
        return self._p.coeff(k, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        return ((k, v) for (k, _), v in self._p.items())

    def terms(self) -> list[tuple[int, int]]:
        return sorted(self.items())

    def is_zero(self) -> bool:
        return self._p.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UniPoly):
            return self._p == other._p
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._p)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly._of(self._p + other._p)

    def __mul__(self, other: "UniPoly | int") -> "UniPoly":
        return UniPoly._of(self._p * (other._p if isinstance(other, UniPoly) else other))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "UniPoly":
        return UniPoly._of(self._p ** e)

    def text(self) -> str:
        return self._p.text().replace("s", "q")

    def __repr__(self) -> str:
        return f"UniPoly({self.text()})"


def is_palindromic_univariate(f: UniPoly, m: int) -> bool:
    if m < 0:
        raise ValueError("darga must be nonnegative")
    return all(0 <= k <= m and f.coeff(m - k) == v for k, v in f.items())


def gamma_basis_univariate(j: int, m: int) -> UniPoly:
    """The basis element q^j (1+q)^(m-2j)."""
    if j < 0 or 2 * j > m:
        raise ValueError(f"j={j} out of range for darga {m}")
    return UniPoly({j: 1}) * UniPoly({0: 1, 1: 1}) ** (m - 2 * j)


class UniGammaExpansion(NamedTuple):
    darga: int
    gammas: tuple[tuple[int, int], ...]  # (j, coefficient), sorted

    def as_dict(self) -> dict[int, int]:
        return dict(self.gammas)

    def is_positive(self) -> bool:
        return all(c >= 0 for _, c in self.gammas)

    def reconstruct(self) -> UniPoly:
        total = UniPoly()
        for j, c in self.gammas:
            total = total + gamma_basis_univariate(j, self.darga) * c
        return total


def gamma_expand_univariate(f: UniPoly, m: int) -> UniGammaExpansion:
    """Expand a palindromic univariate polynomial in the basis q^j (1+q)^(m-2j)."""
    if not is_palindromic_univariate(f, m):
        raise ExpansionError(f"polynomial {f.text()} is not palindromic of darga {m}")
    out = _peel_univariate({k: v for k, v in f.items()}, m)
    return UniGammaExpansion(m, tuple(sorted(out.items())))
