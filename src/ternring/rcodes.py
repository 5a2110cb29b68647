"""Linear codes over the 27-element ring, their Gray images, and shifts.

A linear code C of length n decomposes as e1*C1 + e2*C2 + e3*C3 where
the C_i are ternary codes (the Gray-coordinate blocks) and the e_i are
the orthogonal idempotents.  This module provides:

* vectors over the ring and the blockwise Gray map on them,
* the shift operators on ring vectors (cyclic, constacyclic, sectioned,
  and their twisted variants), and gray_shift, the one Gray-space form
  of all of them: a rotation of each Gray block on bit-sliced masks
  (the user API and the test oracle stay on the ring side),
* RCode: component-triple codes with Gray image, Lee distance, duals,
  cardinality, self-orthogonality, and combined generators; membership
  and self-orthogonality are divisibility tests on the components'
  generators, with no matrix built,
* transport between cyclic and constacyclic codes for odd length,
* GrayModule: a generic submodule engine over Gray coordinates, held as
  bit-sliced masks, used for closures under Gray-space shifts and
  brute-force checks; only ``basis``, ``dual`` and ``lee_distance``
  unpack its basis into an int8 array.
"""

from __future__ import annotations

import itertools

from . import gf3linalg
from .errors import (
    BadFactorization,
    BudgetExceeded,
    EvenLength,
    LengthMismatch,
    MixedModuli,
    NotAUnit,
    ZeroCode,
)
from .gf3linalg import np
from .poly import ModulusSign, Z3Poly, gcd, modulus
from .ring import ONE, RingElement, ZERO, from_gray, scalar
from .ternary import TernaryPolyCode

__all__ = [
    "RVector",
    "as_rvector",
    "gray_vector",
    "ungray_vector",
    "ring_inner_product",
    "cyclic_shift",
    "negacyclic_shift",
    "constacyclic_shift",
    "section_shift",
    "constacyclic_section_shift",
    "skew_cyclic_shift",
    "skew_constacyclic_shift",
    "skew_section_shift",
    "skew_constacyclic_section_shift",
    "gray_shift",
    "RCode",
    "decompose_generator",
    "transport_vector",
    "constacyclic_transport",
    "classify_constacyclic",
    "GrayModule",
]

RVector = tuple[RingElement, ...]

# Entries of the largest Gray image (k x 3n int8) that gray_image()
# builds.  At the budget, `code gray` of the full code of length 3333
# (99,980,000 entries) takes 0.9 s (1.3 s with --json) and peaks at
# 220 MB on a 2-vCPU x86_64 machine.
MAX_GRAY_ENTRIES = 10**8


def as_rvector(entries) -> RVector:
    """Normalize an iterable of ring elements / ints to a vector."""
    out = []
    for e in entries:
        if isinstance(e, RingElement):
            out.append(e)
        elif isinstance(e, int):
            out.append(scalar(e))
        else:
            raise TypeError(f"cannot place {e!r} in a ring vector")
    return tuple(out)


# -- Gray map on vectors -------------------------------------------------


def gray_vector(vec) -> np.ndarray:
    """Blockwise Gray image: all first coordinates, then all second,
    then all third (length 3n)."""
    vec = as_rvector(vec)
    ones, twos = _gray_masks(vec)
    return gf3linalg._unpack_masks([ones], [twos], 3 * len(vec))[0]


def ungray_vector(arr) -> RVector:
    """Inverse of gray_vector."""
    arr = np.asarray(arr, dtype=np.int64) % 3
    if arr.ndim != 1 or arr.shape[0] % 3:
        raise LengthMismatch("Gray vector length must be a multiple of 3")
    return _ungray_masks(*gf3linalg._row_masks(arr.tolist()), arr.shape[0] // 3)


def _projection_masks(vec) -> tuple[list[int], list[int]]:
    """The (ones, twos) masks of the Gray images of e1*c, e2*c, e3*c for
    a ring vector c: the Gray coordinates of e_b are the b-th unit vector,
    so the image of e_b*c is block b of that of c, the others zero."""
    n = len(vec)
    ones, twos = [], []
    for b in range(3):
        a1, a2 = gf3linalg._row_masks([e.gray[b] for e in vec])
        ones.append(a1 << (b * n))
        twos.append(a2 << (b * n))
    return ones, twos


def _gray_masks(vec) -> tuple[int, int]:
    """The (ones, twos) masks of the Gray image of a ring vector: the sum
    of its projections' masks, whose blocks are disjoint."""
    ones, twos = _projection_masks(vec)
    return sum(ones), sum(twos)


def _ungray_masks(ones: int, twos: int, n: int) -> RVector:
    """The ring vector of length n whose Gray image has the given masks,
    the inverse of ``_gray_masks``."""
    entries = gf3linalg._row_entries(ones, twos, 3 * n)
    return tuple(map(from_gray, zip(entries[:n], entries[n : 2 * n], entries[2 * n :])))


def ring_inner_product(a, b) -> RingElement:
    """Euclidean inner product sum(a_i * b_i) over the ring."""
    a, b = as_rvector(a), as_rvector(b)
    if len(a) != len(b):
        raise LengthMismatch("vectors must have equal length")
    acc = ZERO
    for x, y in zip(a, b):
        acc = acc + x * y
    return acc


# -- shift operators on ring vectors -------------------------------------


def _require_unit(lam: RingElement) -> RingElement:
    if not isinstance(lam, RingElement):
        lam = scalar(lam)
    if not lam.is_unit():
        raise NotAUnit(f"{lam} is not a unit")
    return lam


def constacyclic_shift(vec, lam) -> RVector:
    """(lam*c_{n-1}, c_0, ..., c_{n-2})."""
    vec = as_rvector(vec)
    lam = _require_unit(lam)
    return (lam * vec[-1],) + vec[:-1]


def cyclic_shift(vec) -> RVector:
    return constacyclic_shift(vec, ONE)


def negacyclic_shift(vec) -> RVector:
    return constacyclic_shift(vec, scalar(-1))


def _check_sections(n: int, s: int, l: int) -> None:
    if s < 1 or l < 1 or s * l != n:
        raise BadFactorization(f"length {n} is not {s} blocks of {l}")


def section_shift(vec, s: int, l: int) -> RVector:
    """Rotate the s blocks of l symbols by one block."""
    vec = as_rvector(vec)
    _check_sections(len(vec), s, l)
    return vec[-l:] + vec[:-l]


def constacyclic_section_shift(vec, lam, l: int) -> RVector:
    """Rotate blocks of l symbols, multiplying the wrapped block by lam."""
    vec = as_rvector(vec)
    lam = _require_unit(lam)
    if l < 1 or len(vec) % l:
        raise BadFactorization(f"length {len(vec)} is not a multiple of {l}")
    return tuple(lam * e for e in vec[-l:]) + vec[:-l]


def skew_cyclic_shift(vec) -> RVector:
    """(theta(c_{n-1}), theta(c_0), ..., theta(c_{n-2}))."""
    return skew_constacyclic_shift(vec, ONE)


def skew_constacyclic_shift(vec, lam) -> RVector:
    """(theta(lam*c_{n-1}), theta(c_0), ..., theta(c_{n-2}))."""
    vec = as_rvector(vec)
    lam = _require_unit(lam)
    return ((lam * vec[-1]).theta(),) + tuple(e.theta() for e in vec[:-1])


def skew_section_shift(vec, s: int, l: int) -> RVector:
    """Block rotation followed by the automorphism entrywise."""
    return tuple(e.theta() for e in section_shift(vec, s, l))


def skew_constacyclic_section_shift(vec, lam, l: int) -> RVector:
    """Block rotation with lam on the wrapped block, then the
    automorphism entrywise."""
    return tuple(e.theta() for e in constacyclic_section_shift(vec, lam, l))


# -- shift operators on Gray vectors --------------------------------------


def gray_shift(n: int, lam=ONE, l: int = 1, twist: bool = False) -> "GrayShift":
    """The Gray-space form of every shift above, as a map on GF(3) arrays
    of shape (..., 3n), and through ``on_masks`` on bit-sliced Gray rows.

    Each block of the Gray image is rotated by l positions, the l wrapped
    entries of block b are scaled by the b-th Gray coordinate of lam, and
    with twist the automorphism swaps the second and third blocks.  So
    gray_shift(n, lam, l, twist) composed with gray_vector equals
    gray_vector composed with constacyclic_section_shift(., lam, l), or
    with its skew form when twist is set; lam = 1 and l = 1 give the
    cyclic, constacyclic and sectioned special cases.  The map is one
    ``gf3linalg._block_rotation`` on masks (scaling by 2 = -1 swaps the
    planes of the wrapped bits); building it imports no numpy."""
    lam = _require_unit(lam)
    if l < 1 or n < 1 or n % l:
        raise BadFactorization(f"length {n} is not a multiple of {l}")
    doubled = tuple(t == 2 for t in lam.gray)
    return GrayShift(n, gf3linalg._block_rotation(n, l, doubled, twist))


class GrayShift:
    """A map built by ``gray_shift``: ``on_masks`` sends lists of (ones,
    twos) masks of Gray rows to the masks of their images, and a call
    sends GF(3) arrays of shape (..., 3n) to int8 arrays of their images
    by packing, ``on_masks`` and unpacking.  It is immutable, so one
    instance can serve every caller of the same shape."""

    __slots__ = ("n", "on_masks")

    def __init__(self, n: int, on_masks):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "on_masks", on_masks)

    def __setattr__(self, name, value):
        raise AttributeError("GrayShift is immutable")

    def __call__(self, rows) -> np.ndarray:
        rows = np.asarray(rows)
        width = 3 * self.n
        if rows.shape[-1] != width:
            raise LengthMismatch(
                f"expected Gray vectors of length {width}, got {rows.shape[-1]}"
            )
        flat = gf3linalg.as_gf3(rows.reshape(-1, width))
        images = self.on_masks(*gf3linalg._bitsliced_masks(flat))
        return gf3linalg._unpack_masks(*images, width).reshape(rows.shape)


# -- component-triple codes ----------------------------------------------

_KINDS = ("cyclic", "negacyclic", "constacyclic")


class RCode:
    """A linear code over the ring given by its three ternary component
    codes (first, second, third Gray coordinate)."""

    __slots__ = ("n", "kind", "lam", "components")

    def __init__(self, kind: str, components, lam: RingElement = ONE):
        if kind not in _KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        components = tuple(components)
        if len(components) != 3:
            raise ValueError("exactly three components required")
        n = components[0].n
        if any(c.n != n for c in components):
            raise LengthMismatch("components must share the code length")
        lam = _require_unit(lam)
        if kind == "cyclic":
            expected = (1, 1, 1)
            lam = ONE
        elif kind == "negacyclic":
            expected = (2, 2, 2)
            lam = scalar(-1)
        else:
            expected = lam.gray
        signs = tuple(c.sign.wrap for c in components)
        if signs != expected:
            raise MixedModuli(
                f"component moduli {signs} do not match the wrap constants {expected}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("RCode is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def cyclic(cls, n: int, generators) -> "RCode":
        comps = tuple(
            TernaryPolyCode(n, ModulusSign.PLUS, g) for g in generators
        )
        return cls("cyclic", comps)

    @classmethod
    def negacyclic(cls, n: int, generators) -> "RCode":
        comps = tuple(
            TernaryPolyCode(n, ModulusSign.MINUS, g) for g in generators
        )
        return cls("negacyclic", comps)

    @classmethod
    def constacyclic(cls, n: int, lam, generators) -> "RCode":
        lam = _require_unit(lam)
        signs = [ModulusSign.PLUS if t == 1 else ModulusSign.MINUS for t in lam.gray]
        comps = tuple(
            TernaryPolyCode(n, sign, g) for sign, g in zip(signs, generators)
        )
        return cls("constacyclic", comps, lam)

    @classmethod
    def from_sign(cls, n: int, sign: ModulusSign, generators) -> "RCode":
        if sign is ModulusSign.PLUS:
            return cls.cyclic(n, generators)
        return cls.negacyclic(n, generators)

    def __eq__(self, other):
        if not isinstance(other, RCode):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.lam is other.lam
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.kind, self.lam, self.components))

    def __repr__(self):
        gens = ", ".join(str(c.g) for c in self.components)
        return f"RCode({self.kind}, n={self.n}, generators=({gens}))"

    # -- structure -------------------------------------------------------

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(c.k for c in self.components)

    @property
    def cardinality_log3(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.cardinality_log3 == 0

    @property
    def sign(self) -> ModulusSign:
        """Common modulus sign; raises when the components are mixed."""
        signs = {c.sign for c in self.components}
        if len(signs) != 1:
            raise MixedModuli("components use different moduli")
        return next(iter(signs))

    def gray_image(self) -> np.ndarray:
        """Block-diagonal ternary generator matrix of the Gray image.
        Raises ``BudgetExceeded`` before any matrix is built when it would
        have more than ``MAX_GRAY_ENTRIES`` entries."""
        k = self.cardinality_log3
        if k * 3 * self.n > MAX_GRAY_ENTRIES:
            raise BudgetExceeded(
                f"the Gray image of a length-{self.n} code of dimension {k} has "
                f"{k * 3 * self.n} entries, above the budget of {MAX_GRAY_ENTRIES}"
            )
        ones, twos = [], []
        for b, c in enumerate(self.components):
            shifts = range(b * self.n, b * self.n + c.k)
            ones += [c.g.ones << s for s in shifts]
            twos += [c.g.twos << s for s in shifts]
        return gf3linalg._unpack_masks(ones, twos, 3 * self.n)

    def membership(self, vec) -> bool:
        """Whether each Gray block is a multiple of its component's g."""
        vec = as_rvector(vec)
        if len(vec) != self.n:
            raise LengthMismatch(f"expected a length-{self.n} vector")
        return all(
            c.g.divides(Z3Poly([e.gray[b] for e in vec]))
            for b, c in enumerate(self.components)
        )

    def codewords(self):
        """Iterator over all codewords as ring vectors (small codes), in
        the order of the product of the components' ``codewords()``: each
        component's words are spanned once as masks in its Gray block."""
        n = self.n
        spans = []
        for b, c in enumerate(self.components):
            shifts = range(b * n + c.k - 1, b * n - 1, -1)
            spans.append(
                gf3linalg._span_masks(
                    [c.g.ones << s for s in shifts], [c.g.twos << s for s in shifts]
                )
            )
        for (a1, a2), (b1, b2), (c1, c2) in itertools.product(*spans):
            yield _ungray_masks(a1 | b1 | c1, a2 | b2 | c2, n)

    # -- operations --------------------------------------------------------

    def lee_distance(self) -> int:
        """Minimum Lee weight of a nonzero codeword = min over nonzero
        components of their Hamming distances."""
        live = [c for c in self.components if c.k > 0]
        if not live:
            raise ZeroCode("the zero code has no nonzero codeword")
        return min(c.min_distance() for c in live)

    def dual(self) -> "RCode":
        comps = tuple(c.dual() for c in self.components)
        return RCode(self.kind, comps, self.lam)

    def contains_dual(self) -> bool:
        return all(c.contains_dual() for c in self.components)

    def failing_dual_components(self) -> tuple[int, ...]:
        """1-based indices of components violating the divisibility
        criterion."""
        return tuple(
            i + 1 for i, c in enumerate(self.components) if not c.contains_dual()
        )

    def is_self_orthogonal(self) -> bool:
        """All pairs of codewords have zero inner product, equivalently
        each ternary component lies in its dual, a divisibility of
        generators."""
        return all(c.dual().contains(c) for c in self.components)

    def combined_generator(self) -> tuple[RingElement, ...]:
        """Coefficients (ascending) of e1*f1 + e2*f2 + e3*f3; a single
        generator whose decomposition reproduces the code."""
        self.sign  # raises MixedModuli when mixed
        # a zero component's generator, the modulus, vanishes in the
        # quotient; the others' masks are the Gray blocks of the generator,
        # whose last nonzero coefficient is at the largest of their degrees
        n = self.n
        live = [(b * n, c.g) for b, c in enumerate(self.components) if not c.is_zero]
        ones = sum(g.ones << shift for shift, g in live)
        twos = sum(g.twos << shift for shift, g in live)
        length = max((g.degree + 1 for _, g in live), default=0)
        return _ungray_masks(ones, twos, n)[:length]


def decompose_generator(coeffs, n: int, sign: ModulusSign) -> RCode:
    """Code generated by a single ring polynomial: component i is the
    ternary code generated by gcd(f_i, modulus) where f_i collects the
    i-th Gray coordinate of each coefficient."""
    coeffs = as_rvector(coeffs)
    if len(coeffs) > n:
        raise LengthMismatch("generator longer than the code length")
    m = modulus(n, sign)
    gens = []
    for b in range(3):
        f = Z3Poly([e.gray[b] for e in coeffs])
        gens.append(gcd(f, m) if f else m)
    return RCode.from_sign(n, sign, gens)


# -- constacyclic transport ----------------------------------------------


def transport_vector(vec, lam) -> RVector:
    """(a_0, lam*a_1, lam^2*a_2, ...); since every unit squares to 1
    the multipliers alternate 1, lam, 1, lam, ..."""
    vec = as_rvector(vec)
    lam = _require_unit(lam)
    return tuple(e if i % 2 == 0 else lam * e for i, e in enumerate(vec))


def constacyclic_transport(code: RCode, lam) -> RCode:
    """Image of a cyclic code under the coordinatewise multiplier map;
    the result is closed under the lam-constacyclic shift.  Component i
    keeps its dimension, with generator g_i(t*x) normalized monic where
    t is the i-th Gray coordinate of lam."""
    lam = _require_unit(lam)
    if code.kind != "cyclic":
        raise ValueError("transport starts from a cyclic code")
    if code.n % 2 == 0:
        raise EvenLength("transport requires odd length")
    gens = []
    for t, comp in zip(lam.gray, code.components):
        g = comp.g
        if t == 1:
            gens.append(g)
        else:
            scaled = Z3Poly([c * pow(t, i, 3) for i, c in enumerate(g.coeffs)])
            gens.append(scaled.monic())
    return RCode.constacyclic(code.n, lam, gens)


def classify_constacyclic(lam) -> tuple[str, str, str]:
    """Per-component behavior of a lam-constacyclic code: component i is
    cyclic when the i-th Gray coordinate of lam is 1, negacyclic when
    it is 2."""
    lam = _require_unit(lam)
    return tuple("cyclic" if t == 1 else "negacyclic" for t in lam.gray)


# -- generic Gray-coordinate submodules ------------------------------------


class GrayModule:
    """A submodule of the ambient module of length-n ring vectors, stored
    as the GF(3) row space of the Gray images of its elements.

    The module holds the (ones, twos) masks of its reduced row echelon
    basis (see ``gf3linalg``) and nothing else.  ``rank``,
    ``block_ranks``, equality, hashing, membership, ``closure``,
    ``is_v_closed``, ``is_closed_under`` and ``basis_rvectors`` read the
    masks; ``basis``, the int8 RREF rows, is unpacked on its first read
    and kept, and only ``dual`` and ``lee_distance`` read it.  A subspace
    of Gray space is a submodule exactly when it is closed under the
    linear map induced by multiplication by v; spans produced by
    from_rvectors are closed by construction."""

    __slots__ = ("n", "_ones", "_twos", "_basis")

    def __init__(self, rows, n: int):
        ones, twos, pivots, _ = gf3linalg._reduced(np.reshape(rows, (-1, 3 * n)))
        self._hold(ones[: len(pivots)], twos[: len(pivots)], n)

    def _hold(self, ones: list[int], twos: list[int], n: int) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_ones", tuple(ones))
        object.__setattr__(self, "_twos", tuple(twos))
        object.__setattr__(self, "_basis", None)

    @classmethod
    def _from_masks(cls, ones: list[int], twos: list[int], n: int) -> "GrayModule":
        """The span of bit-sliced Gray rows."""
        empty = cls.__new__(cls)
        empty._hold((), (), n)
        return empty._extend(ones, twos)

    def _extend(self, ones: list[int], twos: list[int]) -> "GrayModule":
        """The span of this module and of bit-sliced Gray rows."""
        grown = GrayModule.__new__(GrayModule)
        grown._hold(
            *gf3linalg._extended(self._ones, self._twos, ones, twos, 3 * self.n), self.n
        )
        return grown

    def __setattr__(self, name, value):
        raise AttributeError("GrayModule is immutable")

    @classmethod
    def from_rvectors(cls, vectors, n: int | None = None) -> "GrayModule":
        """Submodule generated by ring vectors: the span of the Gray
        images of e1*g, e2*g, e3*g for each generator g (scaling by a
        ring element acts blockwise, so these projections generate the
        full orbit)."""
        vectors = [as_rvector(v) for v in vectors]
        if n is None:
            if not vectors:
                raise ValueError("need vectors or an explicit length")
            n = len(vectors[0])
        if any(len(v) != n for v in vectors):
            raise LengthMismatch("generator lengths differ")
        ones, twos = [], []
        for v in vectors:
            a1, a2 = _projection_masks(v)
            ones += a1
            twos += a2
        return cls._from_masks(ones, twos, n)

    def closure(self, maps) -> "GrayModule":
        """Smallest submodule containing this one and stable under each
        of the given ``gray_shift`` maps (every one sends submodules to
        submodules).  Each round extends the module by the images under
        the maps' ``on_masks`` of the basis rows that the previous round
        added (all of them at first; the maps are linear, so the images
        of the older rows are in the module already), through
        ``gf3linalg._extended``; it stops when the rank no longer grows.
        The added rows are those whose pivot, their lowest set bit, is
        new."""
        current, added = self, (self._ones, self._twos)
        while True:
            ones, twos = [], []
            for m in maps:
                a1, a2 = m.on_masks(*added)
                ones += a1
                twos += a2
            grown = current._extend(ones, twos)
            if grown.rank == current.rank:
                return current
            old = {a & -a for a in current._ones}
            added = [], []
            for a1, a2 in zip(grown._ones, grown._twos):
                if a1 & -a1 not in old:
                    added[0].append(a1)
                    added[1].append(a2)
            current = grown

    @property
    def basis(self) -> np.ndarray:
        """The int8 RREF basis rows, unpacked on the first read."""
        if self._basis is None:
            basis = gf3linalg._unpack_masks([*self._ones], [*self._twos], 3 * self.n)
            object.__setattr__(self, "_basis", basis)
        return self._basis

    @property
    def rank(self) -> int:
        return len(self._ones)

    @property
    def block_ranks(self) -> tuple[int, int, int]:
        """Ranks of the three Gray-coordinate blocks of the basis: the
        pivots that eliminating the masks over each block's columns finds
        (``gf3linalg._eliminate``)."""
        n = self.n
        return tuple(
            len(gf3linalg._eliminate([*self._ones], [*self._twos], range(s, s + n)))
            for s in (0, n, 2 * n)
        )

    def _spans(self, ones, twos) -> bool:
        """Whether every given bit-sliced Gray row lies in the module: each
        must vanish once reduced by the basis (``gf3linalg._residues``)."""
        return not gf3linalg._residues(self._ones, self._twos, ones, twos)[0]

    def contains_gray(self, row) -> bool:
        """Whether a Gray vector (3n integers, read mod 3) lies in the
        module."""
        entries = [int(c) % 3 for c in row]
        if len(entries) != 3 * self.n:
            raise LengthMismatch(f"expected a Gray vector of length {3 * self.n}")
        ones, twos = gf3linalg._row_masks(entries)
        return self._spans([ones], [twos])

    def contains(self, vec) -> bool:
        vec = as_rvector(vec)
        if len(vec) != self.n:
            raise LengthMismatch(f"expected a length-{self.n} vector")
        ones, twos = _gray_masks(vec)
        return self._spans([ones], [twos])

    def basis_rvectors(self) -> list[RVector]:
        return [_ungray_masks(a1, a2, self.n) for a1, a2 in zip(self._ones, self._twos)]

    def is_v_closed(self) -> bool:
        """Closure under entrywise multiplication by v (the submodule
        criterion for a Gray-coordinate subspace).  v generates the ring,
        so that is closure under the idempotents, which project onto the
        Gray blocks: the block ranks must add up to the rank."""
        return self.rank == sum(self.block_ranks)

    def is_closed_under(self, op) -> bool:
        """Whether the module is stable under a map on ring vectors: the
        Gray masks of the images of the basis vectors must lie in it."""
        images = [_gray_masks(op(v)) for v in self.basis_rvectors()]
        return self._spans([a for a, _ in images], [b for _, b in images])

    def dual(self) -> "GrayModule":
        """Orthogonal module: Gray rows orthogonal to every basis row
        (blockwise ternary duality matches ring-level duality)."""
        if self.rank == 0:
            return GrayModule(np.eye(3 * self.n, dtype=np.int8), self.n)
        return GrayModule(gf3linalg.null_space(self.basis), self.n)

    def lee_distance(self) -> int:
        if self.rank == 0:
            raise ZeroCode("the zero module has no nonzero element")
        return gf3linalg.min_weight(self.basis)

    def __eq__(self, other):
        if not isinstance(other, GrayModule):
            return NotImplemented
        return (self.n, self._ones, self._twos) == (other.n, other._ones, other._twos)

    def __hash__(self):
        return hash((self.n, self._ones, self._twos))
