"""The Digraph algorithm of DeRemer & Pennello.

Given a set of nodes ``X``, a relation ``R ⊆ X × X`` and an initial set
function ``F: X -> sets``, Digraph computes the smallest function ``F*``
satisfying::

    F*(x) = F(x) ∪ ⋃ { F*(y) : x R y }

i.e. the union of F over everything reachable from x.  The paper evaluates
both its `reads` and `includes` unions with this single primitive.

The algorithm is a depth-first traversal that detects strongly connected
components on the fly (in the manner of Tarjan / Eve & Kurki-Suonio): all
nodes of an SCC necessarily share one result set, so the set is computed
once per component and assigned to every member.  Each edge of R is
inspected exactly once, which is what makes the overall look-ahead
computation linear in the size of the relations (plus set-union work) —
the paper's headline efficiency claim.

Sets here are **int bitmasks** (see :mod:`repro.core.bitset`); callers that
want Python sets wrap the result.  The traversal is iterative so deep
relation chains cannot overflow Python's recursion limit (relation chains
grow with grammar size in e.g. the nullable-chain benchmark family).

Two implementations share this module:

- :func:`digraph` — the generic version over arbitrary hashable nodes
  and a successor callable.  Retained as the ablation oracle
  (``bench_ablation_digraph``) and for callers outside the hot pipeline.
- :func:`digraph_int` — the integer-core fast path used by the LALR
  passes: nodes are ``0..n-1``, the relation is a CSR adjacency
  (flat ``edges`` + ``offsets`` arrays), and the traversal state lives
  in flat lists indexed by node — no dict hashing anywhere.  Both
  implementations perform the *identical* traversal (same edge visit
  order, same union counts), which the equivalence property tests
  assert.

The companion :func:`naive_closure` is the same specification computed by
repeated relaxation; it exists purely as the ablation baseline
(``bench_ablation_digraph``) and as an oracle for property tests.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Sequence,
    Tuple,
    TypeVar,
)

from . import instrument

Node = TypeVar("Node", bound=Hashable)

#: Sentinel "visited, finished" depth — any real stack depth is smaller.
_INFINITY = float("inf")


class DigraphStats:
    """Operation counters for the machine-independent cost reporting."""

    __slots__ = ("nodes", "edges", "unions", "nontrivial_sccs", "scc_members")

    def __init__(self) -> None:
        self.nodes = 0
        self.edges = 0
        self.unions = 0
        self.nontrivial_sccs = 0
        self.scc_members = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "unions": self.unions,
            "nontrivial_sccs": self.nontrivial_sccs,
            "scc_members": self.scc_members,
        }


def digraph(
    nodes: Sequence[Node],
    relation: Callable[[Node], Iterable[Node]],
    initial: Callable[[Node], int],
    stats: "DigraphStats | None" = None,
    budget=None,
) -> Tuple[Dict[Node, int], List[Tuple[Node, ...]]]:
    """Run the Digraph algorithm.

    Args:
        nodes: All nodes of X (the traversal starts from each unvisited one).
        relation: ``relation(x)`` yields the successors of x under R.
            It may be called more than once per node; results must be
            stable.
        initial: ``initial(x)`` is F(x) as an int bitmask.
        stats: Optional operation counter to fill in.
        budget: Optional :class:`repro.core.budget.Budget`; charged one
            digraph step per frame visit plus one per edge inspected.

    Returns:
        ``(result, nontrivial_sccs)`` where ``result[x]`` is the bitmask
        F*(x) and *nontrivial_sccs* lists every SCC of R with more than one
        node or a self-loop.  (The paper's LR(k)/LALR(1) diagnostics hang
        off these components.)
    """
    observing = instrument.enabled()
    if observing and stats is None:
        stats = DigraphStats()
    before = stats.as_dict() if observing else None

    depth: Dict[Node, float] = {}
    result: Dict[Node, int] = {}
    stack: List[Node] = []
    nontrivial: List[Tuple[Node, ...]] = []

    if stats is not None:
        stats.nodes += len(nodes)

    for root in nodes:
        if root in depth:
            continue
        # Iterative DFS.  Each frame is [node, successor_iterator].
        stack.append(root)
        depth[root] = len(stack)
        result[root] = initial(root)
        frames: List[List] = [[root, iter(relation(root)), len(stack), False]]
        while frames:
            frame = frames[-1]
            node, successors, node_depth = frame[0], frame[1], frame[2]
            advanced = False
            scanned = 0
            for successor in successors:
                scanned += 1
                if stats is not None:
                    stats.edges += 1
                if successor == node:
                    frame[3] = True  # self-loop: still a nontrivial SCC
                if successor not in depth:
                    stack.append(successor)
                    depth[successor] = len(stack)
                    result[successor] = initial(successor)
                    frames.append(
                        [successor, iter(relation(successor)), len(stack), False]
                    )
                    advanced = True
                    break
                # Finished nodes have depth _INFINITY, which never lowers
                # ours; active ones propagate their stack depth.
                if depth[successor] < depth[node]:
                    depth[node] = depth[successor]
                result[node] |= result[successor]
                if stats is not None:
                    stats.unions += 1
            if budget is not None:
                budget.charge_digraph(scanned + 1)
            if advanced:
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                if depth[node] < depth[parent]:
                    depth[parent] = depth[node]
                result[parent] |= result[node]
                if stats is not None:
                    stats.unions += 1
            if depth[node] == node_depth:
                # node is the root of an SCC: everything above it on the
                # stack (inclusive) is one component sharing result[node].
                component: List[Node] = []
                shared = result[node]
                while True:
                    member = stack.pop()
                    depth[member] = _INFINITY
                    result[member] = shared
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or frame[3]:
                    nontrivial.append(tuple(component))
                    if stats is not None:
                        stats.nontrivial_sccs += 1
                        stats.scc_members += len(component)
    if observing:
        # stats may be shared across calls; absorb only this call's delta.
        after = stats.as_dict()
        instrument.absorb(
            "digraph", {key: after[key] - before[key] for key in after}
        )
    return result, nontrivial


def digraph_int(
    num_nodes: int,
    offsets: Sequence[int],
    edges: Sequence[int],
    initial: Sequence[int],
    stats: "DigraphStats | None" = None,
    budget=None,
) -> Tuple[List[int], List[Tuple[int, ...]]]:
    """The Digraph algorithm over dense integer nodes ``0..num_nodes-1``.

    This is the hot-path twin of :func:`digraph`: the relation is given
    as CSR adjacency (successors of node ``x`` are
    ``edges[offsets[x]:offsets[x+1]]``), F as a mask per node, and all
    traversal state (stack depths, results) lives in flat lists indexed
    by node — the inner loop performs no hashing at all.

    The traversal mirrors :func:`digraph` operation for operation (same
    edge inspection order, same union count, same SCC output up to node
    naming), so :class:`DigraphStats` from either implementation are
    directly comparable.

    Returns:
        ``(result, nontrivial_sccs)`` where ``result[x]`` is the bitmask
        F*(x) and *nontrivial_sccs* lists node-index tuples.
    """
    observing = instrument.enabled()
    if observing and stats is None:
        stats = DigraphStats()
    before = stats.as_dict() if observing else None

    unvisited = 0
    finished = num_nodes + 2  # larger than any live stack depth
    depth: List[int] = [unvisited] * num_nodes
    result: List[int] = list(initial)
    stack: List[int] = []
    nontrivial: List[Tuple[int, ...]] = []

    counting = stats is not None
    if counting:
        stats.nodes += num_nodes

    for root in range(num_nodes):
        if depth[root]:
            continue
        stack.append(root)
        depth[root] = len(stack)
        # Each frame: [node, next_edge_ptr, node_depth, self_loop_seen].
        frames: List[List[int]] = [[root, offsets[root], len(stack), 0]]
        while frames:
            frame = frames[-1]
            node, node_depth = frame[0], frame[2]
            edge_ptr = frame[1]
            begin_ptr = edge_ptr
            edge_end = offsets[node + 1]
            node_depth_now = depth[node]
            node_result = result[node]
            advanced = False
            while edge_ptr < edge_end:
                successor = edges[edge_ptr]
                edge_ptr += 1
                if counting:
                    stats.edges += 1
                if successor == node:
                    frame[3] = 1  # self-loop: still a nontrivial SCC
                successor_depth = depth[successor]
                if not successor_depth:
                    stack.append(successor)
                    depth[successor] = len(stack)
                    frame[1] = edge_ptr
                    depth[node] = node_depth_now
                    result[node] = node_result
                    frames.append([successor, offsets[successor], len(stack), 0])
                    advanced = True
                    break
                # Finished nodes carry `finished`, which never lowers
                # ours; active ones propagate their stack depth.
                if successor_depth < node_depth_now:
                    node_depth_now = successor_depth
                node_result |= result[successor]
                if counting:
                    stats.unions += 1
            if budget is not None:
                # One step per frame visit plus one per edge inspected:
                # bounded by 2·nodes + edges, so a cap stays linear in
                # the relation size it is meant to govern.
                budget.charge_digraph(edge_ptr - begin_ptr + 1)
            if advanced:
                continue
            depth[node] = node_depth_now
            result[node] = node_result
            frames.pop()
            if frames:
                parent = frames[-1][0]
                if node_depth_now < depth[parent]:
                    depth[parent] = node_depth_now
                result[parent] |= node_result
                if counting:
                    stats.unions += 1
            if node_depth_now == node_depth:
                # node is the root of an SCC: everything above it on the
                # stack (inclusive) is one component sharing result[node].
                component: List[int] = []
                shared = node_result
                while True:
                    member = stack.pop()
                    depth[member] = finished
                    result[member] = shared
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or frame[3]:
                    nontrivial.append(tuple(component))
                    if counting:
                        stats.nontrivial_sccs += 1
                        stats.scc_members += len(component)
    if observing:
        after = stats.as_dict()
        instrument.absorb(
            "digraph", {key: after[key] - before[key] for key in after}
        )
    return result, nontrivial


def build_reverse_adjacency(
    num_nodes: int, offsets: Sequence[int], edges: Sequence[int]
) -> List[List[int]]:
    """Per-node predecessor lists for a CSR relation.

    The reverse view :func:`digraph_int_incremental` sweeps is the one
    O(edges) artifact of that function; callers that splice the forward
    CSR between calls (see :mod:`repro.core.relations_delta`) cache this
    and patch only the changed rows, so repeated incremental passes stop
    paying the full-graph rebuild.  Entry order within a predecessor
    list is irrelevant — reachability is a set.
    """
    reverse: List[List[int]] = [[] for _ in range(num_nodes)]
    for node in range(num_nodes):
        for ptr in range(offsets[node], offsets[node + 1]):
            reverse[edges[ptr]].append(node)
    return reverse


def digraph_int_incremental(
    num_nodes: int,
    offsets: Sequence[int],
    edges: Sequence[int],
    initial: Sequence[int],
    old_result: Sequence[int],
    seed_nodes: Sequence[int],
    stats: "DigraphStats | None" = None,
    reverse: "List[List[int]] | None" = None,
) -> Tuple[List[int], List[Tuple[int, ...]], bytearray]:
    """Patch a previous :func:`digraph_int` result after a localized change.

    *seed_nodes* are the nodes whose input changed — a different F
    (``initial``) value, or a different successor row.  Everything that
    can reach a seed through the relation is **dirty** (its F* may have
    changed); everything else keeps its old F* by definition of the
    least fixed point, because F*(x) depends only on the F values and
    edges along paths out of x.

    The dirty region is found by a reverse-reachability sweep — the
    condensation-DAG view of the same fact: a changed SCC invalidates
    exactly its ancestors in the condensation, and SCC members are
    uniformly dirty or clean.  The dirty subgraph is then solved with
    the ordinary :func:`digraph_int`, folding each clean successor's
    (still valid) old F* into the sub-seed of the dirty node that reads
    it, and the solutions are patched over a copy of *old_result*.  The
    least fixed point is unique, so the patched list is element-wise
    identical to a from-scratch run.

    Returns:
        ``(result, dirty_sccs, dirty)`` — the patched masks, the
        nontrivial SCCs found *within the dirty subgraph* (caller merges
        them with the surviving all-clean SCCs of the old run; the
        combined list can be ordered differently than a from-scratch
        run's, so compare SCC lists as sets), and the per-node dirty
        flags.
    """
    dirty = bytearray(num_nodes)
    if not seed_nodes:
        return list(old_result), [], dirty

    # Reverse adjacency (caller-cached or built here), then BFS
    # backwards from the seeds.
    if reverse is None:
        reverse = build_reverse_adjacency(num_nodes, offsets, edges)
    worklist: List[int] = []
    for seed in seed_nodes:
        if not dirty[seed]:
            dirty[seed] = 1
            worklist.append(seed)
    i = 0
    while i < len(worklist):
        node = worklist[i]
        i += 1
        for predecessor in reverse[node]:
            if not dirty[predecessor]:
                dirty[predecessor] = 1
                worklist.append(predecessor)

    # Solve the dirty subgraph.  Clean successors are frozen: their old
    # F* folds into the dirty reader's sub-seed.
    dirty_list = sorted(worklist)  # every dirty node, once, ascending
    sub_index = {node: i for i, node in enumerate(dirty_list)}
    sub_offsets: List[int] = [0]
    sub_edges: List[int] = []
    sub_initial: List[int] = []
    for node in dirty_list:
        mask = initial[node]
        for ptr in range(offsets[node], offsets[node + 1]):
            successor = edges[ptr]
            if dirty[successor]:
                sub_edges.append(sub_index[successor])
            else:
                mask |= old_result[successor]
        sub_initial.append(mask)
        sub_offsets.append(len(sub_edges))
    sub_result, sub_sccs = digraph_int(
        len(dirty_list), sub_offsets, sub_edges, sub_initial, stats
    )

    result = list(old_result)
    for i, node in enumerate(dirty_list):
        result[node] = sub_result[i]
    dirty_sccs = [
        tuple(dirty_list[member] for member in component)
        for component in sub_sccs
    ]
    return result, dirty_sccs, dirty


def naive_closure(
    nodes: Sequence[Node],
    relation: Callable[[Node], Iterable[Node]],
    initial: Callable[[Node], int],
    stats: "DigraphStats | None" = None,
    reverse_edges: bool = False,
) -> Dict[Node, int]:
    """Relaxation-to-fixpoint evaluation of the same specification.

    This is how pre-Digraph implementations evaluated the unions: keep
    sweeping ``F*(x) |= F*(y) for x R y`` until nothing changes.  Worst
    case it re-scans the whole relation once per "level" of the relation
    graph, i.e. O(edges × diameter) unions versus Digraph's O(edges).
    Used as the ablation baseline and as a test oracle.

    The sweep cost depends on how the edge order aligns with the flow
    direction; *reverse_edges* flips the scan order so benchmarks can
    bracket the best case (aligned: 2 sweeps) against the adversarial
    case (anti-aligned: one sweep per propagation level).
    """
    result: Dict[Node, int] = {node: initial(node) for node in nodes}
    edges: List[Tuple[Node, Node]] = [
        (x, y) for x in nodes for y in relation(x)
    ]
    if reverse_edges:
        edges.reverse()
    if stats is not None:
        stats.nodes += len(nodes)
        stats.edges += len(edges)
    changed = True
    while changed:
        changed = False
        for x, y in edges:
            merged = result[x] | result[y]
            if stats is not None:
                stats.unions += 1
            if merged != result[x]:
                result[x] = merged
                changed = True
    return result
