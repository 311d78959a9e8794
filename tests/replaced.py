"""Code that faster kernels replaced, kept as test oracles.

The connected-components code that ``partitions.components`` replaced: the
disjoint-set forest, the supremum and the minimal block system search built
on it, and the breadth-first suborbit search.  The distance-regularity check
that ran one breadth-first search per base, which the blocked numpy search
in ``diaggraph.is_distance_regular`` replaced.  The two Python graph
constructions, which built an ``edge_tag`` dict {(u, v): tag} and sorted
adjacency tuples before both were built as numpy arrays, and the exporters
that read that dict.
"""

from __future__ import annotations

from diaglab.diaggraph import DiagGraph, bfs_distances, connection_set
from diaglab.groups import GroupTable
from diaglab.partitions import Partition, _check_same_ground
from diaglab.semilattice import VertexCodec, minimal_partitions, vertex_codec
from diaglab.symmetry import TaggedPerm


class UnionFind:
    """Disjoint-set forest with path halving and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def unionfind_supremum(p: Partition, q: Partition) -> Partition:
    """Coarsening by connected components, via disjoint-set union."""
    _check_same_ground(p, q)
    uf = UnionFind(p.size)
    for part in (p, q):
        anchor = [-1] * part.block_count
        for point in range(part.size):
            b = part.block_of[point]
            if anchor[b] == -1:
                anchor[b] = point
            else:
                uf.union(anchor[b], point)
    return Partition.from_labels(uf.find(x) for x in range(p.size))


def unionfind_minimal_block_trivial(perms: list[TaggedPerm], n: int, v: int) -> bool:
    """True iff the minimal block system containing {0, v} is the whole set."""
    uf = UnionFind(n)
    uf.union(0, v)
    queue = [(0, v)]
    while queue:
        a, b = queue.pop()
        for p in perms:
            x, y = p.image[a], p.image[b]
            rx, ry = uf.find(x), uf.find(y)
            if rx != ry:
                uf.union(rx, ry)
                queue.append((rx, ry))
    root = uf.find(0)
    return uf.size[root] == n


def bfs_suborbit_representatives(n: int, stab_gens) -> list[int]:
    """The least point of each orbit of the stabiliser of 0 on 1..n-1."""
    seen = [False] * n
    seen[0] = True
    reps = []
    for v in range(1, n):
        if seen[v]:
            continue
        reps.append(v)
        frontier = [v]
        seen[v] = True
        while frontier:
            nxt = []
            for x in frontier:
                for s in stab_gens:
                    y = int(s[x])
                    if not seen[y]:
                        seen[y] = True
                        nxt.append(y)
            frontier = nxt
    return reps


def is_distance_regular(
    graph: DiagGraph, paranoid: bool = False
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Distance-regularity by sphere counting from a base vertex.

    Vertex-transitivity justifies the single base; ``paranoid`` re-checks
    from every vertex.  Returns (verdict, (b_array, c_array) or None).
    """
    bases = range(graph.size) if paranoid else (0,)
    result: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for base in bases:
        dist = bfs_distances(graph, base)
        diam = max(dist)
        b = [-1] * (diam + 1)
        c = [-1] * (diam + 1)
        for v in range(graph.size):
            i = dist[v]
            down = up = 0
            for w in graph.adjacency[v]:
                if dist[w] == i - 1:
                    down += 1
                elif dist[w] == i + 1:
                    up += 1
            for arr, val in ((c, down), (b, up)):
                if i >= 0:
                    if arr[i] == -1:
                        arr[i] = val
                    elif arr[i] != val:
                        return False, None
        arrays = (tuple(b[:diam]), tuple(c[1:]))
        if result is None:
            result = arrays
        elif result != arrays:
            return False, None
    return True, result


def partition_edge_tags(
    g: GroupTable, m: int, minimals: list[Partition] | None = None
) -> dict[tuple[int, int], int]:
    """{(u, v): i} for every pair u < v in one part of Q_i; for m >= 2 an
    edge in two minimal partitions raises, for m = 1 the first i is kept."""
    if minimals is None:
        minimals = minimal_partitions(g, m)
    tagged: dict[tuple[int, int], int] = {}
    for i, part in enumerate(minimals):
        for block in part.blocks():
            for a in range(len(block)):
                for b in range(a + 1, len(block)):
                    e = (block[a], block[b])
                    if e not in tagged:
                        tagged[e] = i
                    elif m >= 2:
                        raise AssertionError(
                            f"edge {e} lies in two minimal partitions"
                        )
    return tagged


def cayley_edge_tags(g: GroupTable, m: int) -> dict[tuple[int, int], int]:
    """{(u, v): tag} for v = s*u over the connection set, first tag kept:
    the moved coordinate for one-coordinate tuples, 0 for constants."""
    codec = vertex_codec(g, m)
    conn = connection_set(g, m)
    tags = []
    for s in conn.tuples:
        moved = [i for i in range(m) if s[i] != 0]
        tags.append(moved[0] + 1 if len(moved) == 1 and m >= 2 else 0)
    tagged: dict[tuple[int, int], int] = {}
    for idx in range(codec.size):
        u = codec.decode(idx)
        for s, tag in zip(conn.tuples, tags):
            w = codec.encode(tuple(g.mul[s[i]][u[i]] for i in range(m)))
            e = (idx, w) if idx < w else (w, idx)
            if e not in tagged:
                tagged[e] = tag
    return tagged


def adjacency_of(size: int, tagged: dict[tuple[int, int], int]) -> tuple[tuple[int, ...], ...]:
    """Sorted adjacency tuples of the edges of ``tagged``."""
    adj: list[list[int]] = [[] for _ in range(size)]
    for u, v in tagged:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(nb)) for nb in adj)


def graph6_of(size: int, tagged: dict[tuple[int, int], int]) -> str:
    """graph6 from the edge dict, one bit set per edge in a bytearray."""
    n = size
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    groups = bytearray(-(-n * (n - 1) // 12))
    for i, j in tagged:
        pos = j * (j - 1) // 2 + i
        groups[pos // 6] |= 32 >> pos % 6
    return (head + bytes(b + 63 for b in groups)).decode("ascii")


def dot_of(codec: VertexCodec, tagged: dict[tuple[int, int], int]) -> str:
    lines = ["graph diagonal {"]
    for v in range(codec.size):
        tup = codec.decode(v)
        lines.append(f'  v{v} [label="{",".join(map(str, tup))}"];')
    for u, v in sorted(tagged):
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines)


def edgelist_of(tagged: dict[tuple[int, int], int]) -> str:
    return "\n".join(f"{u} {v}" for u, v in sorted(tagged))
