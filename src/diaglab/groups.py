"""Small finite groups as explicit multiplication tables.

Elements are indices 0..n-1 and the identity is always index 0; every
constructor and the table-file loader enforce this.  Groups are built from a
tiny expression language: ``Cn`` (cyclic), ``Dn`` (dihedral of order 2n,
n >= 3), ``Sn`` / ``An`` (symmetric / alternating, n <= 5), ``Q8``
(quaternion), infix ``x`` for direct products (left-associative), and
``file:<path>`` for an explicit Cayley table.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import permutations
from pathlib import Path

import numpy as np

from .errors import CapExceededError, GroupParseError, GroupValidationError

# Associativity is O(n^3); beyond this bound it is skipped and the table is
# flagged as not fully checked.
ASSOCIATIVITY_CHECK_LIMIT = 256
# Largest group any constructor will materialise (tables are n x n).
MAX_GROUP_ORDER = 512
# Automorphism search backtracks over generator images; orders beyond this
# are refused rather than left to run for hours.  25 admits C5xC5, whose
# 480 automorphisms take about 0.15 s.
AUT_SEARCH_LIMIT = 25
# Normal-closure scan is O(n^2) per element; enough for A5 from a file.
SIMPLE_CHECK_LIMIT = 128


@dataclass(frozen=True)
class GroupTable:
    """A finite group as an explicit multiplication table.

    ``mul[g][h]`` is the index of g*h, ``inv[g]`` the index of g^-1;
    ``mul_array`` and ``inv_array`` hold them as read-only numpy arrays,
    built on first use.  ``factors`` records the direct-product
    decomposition used to build the table (empty for atoms); it is metadata
    only and does not affect equality of the underlying group structure.
    """

    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    label: str
    associativity_checked: bool = True
    factors: tuple["GroupTable", ...] = ()

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def mul_array(self) -> np.ndarray:
        return _read_only(self.mul)

    @cached_property
    def inv_array(self) -> np.ndarray:
        return _read_only(self.inv)

    def order_of(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.mul[x][g]
            k += 1
        return k

    def is_abelian(self) -> bool:
        mul = self.mul
        return all(
            mul[a][b] == mul[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )

    def __repr__(self) -> str:  # tables are huge; show only the label
        return f"GroupTable({self.label!r}, order={self.order})"


def _read_only(table) -> np.ndarray:
    array = np.array(table, dtype=np.intp)
    array.flags.writeable = False
    return array


def _check_order(order: int, label: str) -> None:
    """Refuse a table above MAX_GROUP_ORDER before any of it is built."""
    if order > MAX_GROUP_ORDER:
        raise CapExceededError(
            f"{label} has order {order}, above the group order cap {MAX_GROUP_ORDER}"
        )


def _finish_table(
    order: int,
    mul: list[list[int]],
    label: str,
    factors: tuple[GroupTable, ...] = (),
) -> GroupTable:
    """Validate a raw table and freeze it into a GroupTable."""
    if order < 1:
        raise GroupValidationError("group order must be at least 1")
    if len(mul) != order or any(len(row) != order for row in mul):
        raise GroupValidationError(f"{label}: table is not {order}x{order}")
    for row in mul:
        for v in row:
            if not 0 <= v < order:
                raise GroupValidationError(f"{label}: entry {v} out of range")
    for g in range(order):
        if mul[0][g] != g or mul[g][0] != g:
            raise GroupValidationError(f"{label}: element 0 is not the identity")
    inv = [-1] * order
    for g in range(order):
        for h in range(order):
            if mul[g][h] == 0:
                if mul[h][g] != 0:
                    raise GroupValidationError(
                        f"{label}: one-sided inverse at element {g}"
                    )
                inv[g] = h
                break
        if inv[g] < 0:
            raise GroupValidationError(f"{label}: element {g} has no inverse")

    checked = order <= ASSOCIATIVITY_CHECK_LIMIT
    if checked:
        arr = np.asarray(mul, dtype=np.int64)
        for a in range(order):
            # (a*b)*c vs a*(b*c) for the whole b,c plane at once
            if not np.array_equal(arr[arr[a]], arr[a][arr]):
                raise GroupValidationError(f"{label}: table is not associative")

    return GroupTable(
        order=order,
        mul=tuple(tuple(row) for row in mul),
        inv=tuple(inv),
        label=label,
        associativity_checked=checked,
        factors=factors,
    )


def cyclic(n: int) -> GroupTable:
    """Cyclic group C_n; element i is the i-th power of the generator."""
    if n < 1:
        raise GroupParseError("cyclic group order must be >= 1")
    _check_order(n, f"C{n}")
    mul = [[(a + b) % n for b in range(n)] for a in range(n)]
    return _finish_table(n, mul, f"C{n}")


def dihedral(n: int) -> GroupTable:
    """Dihedral group of order 2n (symmetries of an n-gon), n >= 3.

    Element e*n + i stands for s^e r^i with r s = s r^-1.
    """
    if n < 3:
        raise GroupParseError("dihedral Dn requires n >= 3")
    order = 2 * n
    _check_order(order, f"D{n}")
    mul = [[0] * order for _ in range(order)]
    for e1 in (0, 1):
        for i1 in range(n):
            for e2 in (0, 1):
                for i2 in range(n):
                    i = ((-i1 if e2 else i1) + i2) % n
                    mul[e1 * n + i1][e2 * n + i2] = ((e1 + e2) % 2) * n + i
    return _finish_table(order, mul, f"D{n}")


def _perm_group(perms: list[tuple[int, ...]], label: str) -> GroupTable:
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    mul = [
        [index[tuple(q[x] for x in p)] for q in perms]
        for p in perms
    ]
    return _finish_table(order, mul, label)


def symmetric(n: int) -> GroupTable:
    """Symmetric group on n points, n <= 5 (720 entries is already S6)."""
    if not 1 <= n <= 5:
        raise GroupParseError("symmetric Sn supported for 1 <= n <= 5")
    return _perm_group(list(permutations(range(n))), f"S{n}")


def alternating(n: int) -> GroupTable:
    """Alternating group on n points, n <= 5."""
    if not 1 <= n <= 5:
        raise GroupParseError("alternating An supported for 1 <= n <= 5")

    def parity(p: tuple[int, ...]) -> int:
        inversions = sum(
            1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
        )
        return inversions % 2

    evens = [p for p in permutations(range(n)) if parity(p) == 0]
    return _perm_group(evens, f"A{n}")


def quaternion() -> GroupTable:
    """Quaternion group Q8: indices 2u+s for basis u in (1,i,j,k), sign s."""
    basis_mul = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
        (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
        (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
    }
    order = 8
    mul = [[0] * order for _ in range(order)]
    for u in range(4):
        for s in (0, 1):
            for v in range(4):
                for t in (0, 1):
                    sign, w = basis_mul[(u, v)]
                    mul[2 * u + s][2 * v + t] = 2 * w + (sign ^ s ^ t)
    return _finish_table(order, mul, "Q8")


def direct_product(a: GroupTable, b: GroupTable, max_order: int = MAX_GROUP_ORDER) -> GroupTable:
    """Direct product with index (x, y) -> x*|B| + y, so (0,0) stays 0."""
    order = a.order * b.order
    if order > max_order:
        raise CapExceededError(
            f"direct product order {order} exceeds cap {max_order}"
        )
    nb = b.order
    mul = [
        [a.mul[x1][x2] * nb + b.mul[y1][y2] for x2 in range(a.order) for y2 in range(nb)]
        for x1 in range(a.order)
        for y1 in range(nb)
    ]
    factors = (a.factors or (a,)) + (b.factors or (b,))
    return _finish_table(order, mul, f"{a.label}x{b.label}", factors=factors)


def from_table_text(text: str, label: str = "file") -> GroupTable:
    """Parse the table file format: first line n, then n rows of n indices."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GroupParseError("empty table file")
    try:
        order = int(lines[0].strip())
    except ValueError as exc:
        raise GroupParseError(f"bad order line: {lines[0]!r}") from exc
    _check_order(order, label)
    if len(lines) != order + 1:
        raise GroupParseError(f"expected {order} table rows, found {len(lines) - 1}")
    mul = []
    for ln in lines[1:]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise GroupParseError(f"bad table row: {ln!r}") from exc
        mul.append(row)
    return _finish_table(order, mul, label)


def load_table_file(path: str | Path) -> GroupTable:
    p = Path(path)
    try:
        if not p.is_file():
            raise GroupParseError(f"table file not found: {p}")
        text = p.read_text()
    except OSError as exc:  # a name too long, a file that cannot be read
        raise GroupParseError(f"cannot read table file {p}: {exc.strerror}") from exc
    return from_table_text(text, label=f"file:{p.name}")


_ATOM_RE = re.compile(r"^(C|D|S|A)([0-9]+)$")


def _parse_atom(atom: str) -> GroupTable:
    if atom == "Q8":
        return quaternion()
    if atom.startswith("file:"):
        return load_table_file(atom[5:])
    m = _ATOM_RE.match(atom)
    if not m:
        raise GroupParseError(f"unrecognised group atom: {atom!r}")
    kind, digits = m.group(1), m.group(2).lstrip("0")
    # A number with more digits than the cap names a group above it, for
    # every kind; int() would refuse one past 4300 digits with a ValueError.
    if len(digits) > len(str(MAX_GROUP_ORDER)):
        raise CapExceededError(
            f"{kind} with a {len(digits)}-digit index is above the group order "
            f"cap {MAX_GROUP_ORDER}"
        )
    n = int(digits or "0")
    if kind == "C":
        return cyclic(n)
    if kind == "D":
        return dihedral(n)
    if kind == "S":
        return symmetric(n)
    return alternating(n)


def parse_group_spec(spec: str) -> GroupTable:
    """Parse a group expression, e.g. ``C2xC2``, ``S3``, ``file:/tmp/a5.tbl``.

    A leading ``file:`` consumes the whole remainder as a path; inside a
    product the separator is a literal ``x``, so file paths used in products
    cannot contain ``x``.
    """
    s = spec.strip()
    if not s:
        raise GroupParseError("empty group expression")
    if s.startswith("file:"):
        return load_table_file(s[5:])
    atoms = s.split("x")
    if any(not a for a in atoms):
        raise GroupParseError(f"malformed product expression: {spec!r}")
    tables = [_parse_atom(a) for a in atoms]
    return reduce(direct_product, tables)


def element_orders(g: GroupTable) -> list[int]:
    """orders[x] = least k >= 1 with x^k = identity."""
    return [g.order_of(x) for x in g.elements()]


def is_elementary_abelian(g: GroupTable) -> int | None:
    """Return the prime p if g is elementary abelian of exponent p, else None.

    The trivial group is excluded by convention.
    """
    if g.order == 1 or not g.is_abelian():
        return None
    orders = {g.order_of(x) for x in range(1, g.order)}
    if len(orders) != 1:
        return None
    p = orders.pop()
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        return None
    return p


def sylow2_nontrivial_cyclic(g: GroupTable) -> bool:
    """True iff |g| is even and g has an element of order equal to the full
    2-part of |g| (equivalently: the Sylow 2-subgroup is non-trivial cyclic)."""
    two_part = 1
    n = g.order
    while n % 2 == 0:
        two_part *= 2
        n //= 2
    if two_part == 1:
        return False
    return any(g.order_of(x) == two_part for x in range(1, g.order))


def subgroup_closure(g: GroupTable, seed: set[int]) -> set[int]:
    """Smallest subgroup containing seed (computed by product closure)."""
    sub = set(seed) | {0}
    queue = deque(sub)
    while queue:
        a = queue.popleft()
        for b in list(sub):
            for c in (g.mul[a][b], g.mul[b][a]):
                if c not in sub:
                    sub.add(c)
                    queue.append(c)
    return sub


def generating_sequence(g: GroupTable) -> list[int]:
    """A short generating sequence, grown greedily from the lowest non-member."""
    gens: list[int] = []
    sub = {0}
    while len(sub) < g.order:
        x = min(e for e in range(g.order) if e not in sub)
        gens.append(x)
        sub = subgroup_closure(g, sub | {x})
    return gens


def _extend_homomorphism(
    g: GroupTable, phi: dict[int, int], gen: int, image: int
) -> dict[int, int] | None:
    """Extend a partial homomorphism by gen -> image, or None on conflict.

    phi must already be closed (defined on a subgroup); the result is closed
    on the subgroup generated by dom(phi) and gen.
    """
    phi = dict(phi)
    if gen in phi:
        return phi if phi[gen] == image else None
    phi[gen] = image
    queue = deque([gen])
    while queue:
        a = queue.popleft()
        fa = phi[a]
        for b in list(phi):
            fb = phi[b]
            for prod, fprod in ((g.mul[a][b], g.mul[fa][fb]),
                                (g.mul[b][a], g.mul[fb][fa])):
                known = phi.get(prod)
                if known is None:
                    phi[prod] = fprod
                    queue.append(prod)
                elif known != fprod:
                    return None
    return phi


def automorphism_group(g: GroupTable, limit: int = AUT_SEARCH_LIMIT) -> list[tuple[int, ...]]:
    """All automorphisms of g as permutations of element indices.

    Backtracks over order-preserving images of a greedy generating sequence,
    extending each assignment to a homomorphism and keeping the bijections.
    """
    if g.order > limit:
        raise CapExceededError(
            f"automorphism search capped at order {limit}, got {g.order}"
        )
    gens = generating_sequence(g)
    orders = element_orders(g)
    found: list[tuple[int, ...]] = []

    def backtrack(idx: int, phi: dict[int, int]) -> None:
        if idx == len(gens):
            if len(phi) == g.order and len(set(phi.values())) == g.order:
                found.append(tuple(phi[x] for x in range(g.order)))
            return
        target = gens[idx]
        for image in range(g.order):
            if orders[image] != orders[target]:
                continue
            ext = _extend_homomorphism(g, phi, target, image)
            if ext is not None and len(set(ext.values())) == len(ext):
                backtrack(idx + 1, ext)

    backtrack(0, {0: 0})
    return found


def is_simple_nonabelian(g: GroupTable, limit: int = SIMPLE_CHECK_LIMIT) -> bool:
    """True iff g is non-abelian and every non-identity normal closure is g."""
    if g.order > limit:
        raise CapExceededError(
            f"simplicity check capped at order {limit}, got {g.order}"
        )
    if g.order == 1 or g.is_abelian():
        return False
    for x in range(1, g.order):
        conjugates = {
            g.mul[g.mul[h][x]][g.inv[h]] for h in g.elements()
        }
        if len(subgroup_closure(g, conjugates)) < g.order:
            return False
    return True
