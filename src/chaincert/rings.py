"""Exact coefficient rings: the integers, prime fields, and group rings.

Every ring element has a unique canonical form:

* integers       -- arbitrary-precision ``int``
* prime field    -- ``int`` residue in ``[0, p)``
* group ring     -- tuple of base-ring coefficients, one per group element,
                    in the fixed element order of the Cayley table

All values are immutable and all operations are pure functions, so rings and
elements can be shared freely across threads. A group ring's tables
(``GroupRing.supports``, ``representations``) and ``Ring.digit_values`` only
remember what pure functions return: two threads that derive one element
store equal values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property


class RingError(ValueError):
    """An element or descriptor does not fit the ring it is used with."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by its Cayley table on element indices.

    ``mult[i][j]`` is the index of the product (element i) * (element j).
    The element order fixed by the table is part of the data format: it
    determines the coefficient layout of every group-ring element.
    """

    order: int
    mult: tuple[tuple[int, ...], ...]
    identity: int

    def validate(self) -> None:
        n = self.order
        if n <= 0:
            raise RingError("group order must be positive")
        mult = tuple(map(tuple, self.mult))
        if len(mult) != n or any(len(row) != n for row in mult):
            raise RingError("Cayley table must be order x order")
        if min(map(min, mult)) < 0 or max(map(max, mult)) >= n:
            raise RingError("Cayley table entries must be element indices")
        e = self.identity
        if not 0 <= e < n:
            raise RingError("identity index out of range")
        columns = list(zip(*mult))
        if mult[e] != tuple(range(n)) or columns[e] != tuple(range(n)):
            raise RingError("identity index is not a two-sided identity")
        for i in range(n):
            if (e, e) not in zip(mult[i], columns[i]):
                raise RingError(f"element {i} has no two-sided inverse")
        # Light's test: (x*a)*y == x*(a*y) for every generator a suffices.
        for a in self._greedy_generators(mult):
            row_a = mult[a]
            for x in range(n):
                lhs = mult[mult[x][a]]
                rhs = tuple(map(mult[x].__getitem__, row_a))
                if lhs != rhs:
                    y = next(y for y in range(n) if lhs[y] != rhs[y])
                    raise RingError(f"non-associative triple ({x},{a},{y})")

    def _greedy_generators(self, mult) -> list[int]:
        """Smallest elements, each outside the closure of those before it,
        until the closure is everything. Each one at least doubles the
        subgroup generated so far, so a group needs at most log2(order) of
        them; a table that needs more is rejected."""
        n = self.order
        generators: list[int] = []
        reached = {self.identity}
        while len(reached) < n:
            if len(generators) == n.bit_length() - 1:
                raise RingError(
                    f"needs more than {len(generators)} generators: not a group"
                )
            generators.append(min(set(range(n)) - reached))
            frontier = list(reached)
            while frontier:
                step = {mult[x][a] for x in frontier for a in generators}
                frontier = list(step - reached)
                reached |= step
        return generators

    @classmethod
    def cyclic(cls, m: int) -> "GroupTable":
        if m <= 0:
            raise RingError("cyclic group order must be positive")
        mult = tuple(tuple((i + j) % m for j in range(m)) for i in range(m))
        return cls(order=m, mult=mult, identity=0)

    @classmethod
    def symmetric(cls, n: int) -> "GroupTable":
        """Symmetric group on n letters; element 0 is the identity."""
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        mult = tuple(
            tuple(index[tuple(p[q[x]] for x in range(n))] for q in perms)
            for p in perms
        )
        return cls(order=len(perms), mult=mult, identity=index[tuple(range(n))])


class Ring:
    """Common interface of the supported exact coefficient rings.

    Every concrete ring has ``zero`` and ``one``, ``add``, ``neg`` and
    ``mul`` on canonical elements, and ``render`` to a literal; the
    integers and prime fields also ``parse`` a literal (a group ring's
    literals are its base ring's, one per coefficient). Nothing
    instantiates ``Ring`` itself; it adds ``sub`` and ``digit_values``.
    """

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    @cached_property  # per instance, not a field, as GroupRing's tables
    def digit_values(self) -> bytes:
        """The ``bytes.translate`` table taking each ASCII digit to its
        ``parse``, a value below 10 over Z or a prime field."""
        return bytes.maketrans(b"0123456789", bytes(map(self.parse, "0123456789")))


@dataclass(frozen=True)
class IntegerRing(Ring):
    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def render(self, a):
        return str(a)

    def parse(self, text):
        return int(text)

    def __str__(self):
        return "Z"


@dataclass(frozen=True)
class PrimeField(Ring):
    p: int

    def __post_init__(self):
        # the bound first: trial division is too slow to run on huge moduli
        if self.p >= 2**31:
            raise RingError("prime fields supported for p < 2^31 only")
        if not is_prime(self.p):
            raise RingError(f"{self.p} is not prime")

    @property
    def byte_lanes(self) -> bool:
        """Whether a product of two residues fits in a byte, (p-1)^2 <= 255:
        true for p <= 13. Matrices over such a field store their entries
        as one ``bytes`` object and add and multiply them in byte lanes of
        one Python int (``matrix``, ``_kernels.matmul_mod``)."""
        return (self.p - 1) ** 2 <= 255

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1 % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def render(self, a):
        return str(a)

    def parse(self, text):
        return int(text) % self.p

    def __str__(self):
        return f"F{self.p}"


def _support(a):
    """The nonzero (index, coefficient) pairs of a group-ring element."""
    return [(g, c) for g, c in enumerate(a) if c]


class _Derived(dict):
    """{element: ``derive(element)``}, each element derived when first
    looked up."""

    def __init__(self, derive):
        self.derive = derive

    def __missing__(self, element):
        value = self[element] = self.derive(element)
        return value


@dataclass(frozen=True)
class GroupRing(Ring):
    """Group ring base[G] with G given by a Cayley table.

    Elements are dense coefficient tuples indexed by the table's element
    order. Multiplication is convolution over the table and is not assumed
    commutative.

    Two tables derive an element when it is first looked up:
    ``supports``, its nonzero (index, coefficient) pairs, for matrix
    products, and ``representations``, its ``regular_representation``, for
    ``matrix.restrict_scalars``. Matrices hold few distinct elements (t - 1,
    the norm element, +-g, 0). The tables belong to the ring object, which
    ``io.load`` builds once per file, so they last for one command.
    """

    base: Ring
    group: GroupTable

    def __post_init__(self):
        if isinstance(self.base, GroupRing):
            raise RingError("group-ring base must be Z or a prime field")
        if not isinstance(self.base, (IntegerRing, PrimeField)):
            raise RingError("unsupported group-ring base")

    # cached per instance; not fields, so equality and hashing are unchanged
    @cached_property
    def zero(self):
        return (self.base.zero,) * self.group.order

    @cached_property
    def one(self):
        return self.basis_element(self.group.identity)

    @cached_property
    def supports(self):
        return _Derived(_support)

    @cached_property
    def representations(self):
        return _Derived(self.regular_representation)

    def basis_element(self, i: int):
        z = self.base.zero
        return tuple(
            self.base.one if j == i else z for j in range(self.group.order)
        )

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        out = [self.base.zero] * self.group.order
        mult = self.group.mult
        base = self.base
        for g, x in enumerate(a):
            if x == base.zero:
                continue
            row = mult[g]
            for h, y in enumerate(b):
                if y == base.zero:
                    continue
                k = row[h]
                out[k] = base.add(out[k], base.mul(x, y))
        return tuple(out)

    def regular_representation(self, a) -> tuple[tuple, ...]:
        """Matrix of left multiplication by ``a`` on the base-ring module
        with basis G, in table order: the (k, h) entry is the coefficient
        of the group element g with g*h = k.

        The map is a ring homomorphism: rep(a*b) = rep(a)rep(b).
        """
        n = self.group.order
        z = self.base.zero
        rows = [[z] * n for _ in range(n)]
        mult = self.group.mult
        for g, x in enumerate(a):
            if x == z:
                continue
            row = mult[g]
            for h in range(n):
                k = row[h]
                rows[k][h] = self.base.add(rows[k][h], x)
        return tuple(tuple(r) for r in rows)

    def render(self, a):
        terms = []
        for i, c in enumerate(a):
            if c == self.base.zero:
                continue
            coeff = self.base.render(c)
            if i == self.group.identity:
                terms.append(coeff)
            elif coeff == "1":
                terms.append(f"g{i}")
            elif coeff == "-1":
                terms.append(f"-g{i}")
            else:
                terms.append(f"{coeff}*g{i}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out

    def __str__(self):
        return f"{self.base}[G{self.group.order}]"


ZZ = IntegerRing()
