"""Delta-scoped recomputation of the DeRemer–Pennello relations.

Given the old :class:`~repro.core.relations.LalrRelations`, the spliced
automaton and the per-state dirty flags from
:func:`repro.automaton.lr0_delta.splice_lr0`, :func:`splice_relations`
rebuilds only the relation rows an rhs edit can have touched:

- a **DR/reads row** of node ``(p, A)`` depends only on the successor
  state's transition row — reusable iff both ``p`` and ``goto(p, A)``
  are clean states;
- an **includes/lookback walk** from node ``(p', B)`` depends on ``B``'s
  productions and on the transition rows of every state the walk steps
  through — reusable iff ``B`` is not a dirty nonterminal and every
  recorded walk state is clean.  Reuse replays the recorded walk memo
  (edge emissions, lookback sites) verbatim, so bucket contents and the
  lookback dict's insertion order come out identical to from-scratch.

Nullability is global input to both.  An edit whose changed rules hold
a terminal in both their old and their new right-hand sides cannot
change the nullable set (neither version of those rules can ever derive
the empty string), so the parent's set is carried to the edited grammar
without a recount.  Otherwise the set is recomputed, and if it changed
every row is suspect: this layer raises
:class:`~repro.automaton.lr0_delta.IncrementalFallback` rather than
chase the dependency (the session rebuilds from scratch, which is
always correct).

Finding the dirty work is O(answer), not O(grammar): two inverted
indexes, built on the first splice and carried across later ones, map
a state to the walks that step through it and to the nodes whose goto
target it is (see :func:`build_walk_index` and
:func:`build_successor_readers`).

The node space (``packed``/``node_index``) is shared object-level with
the old relations: the automaton splice already verified no state's
nonterminal transition sequence changed.

Besides the new relations, the splice reports which rows actually
*changed* — the dirty seeds the incremental digraph passes start from.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Tuple

from ..analysis.nullable import nullable_nonterminals
from ..automaton.lr0 import LR0Automaton
from ..automaton.lr0_delta import IncrementalFallback
from ..grammar.symbols import Symbol
from . import instrument
from .relations import LalrRelations, ReductionSite

__all__ = ["build_successor_readers", "build_walk_index", "splice_relations"]


def splice_relations(
    old: LalrRelations,
    automaton: LR0Automaton,
    dirty_ids: List[int],
    changed_productions: Iterable[int],
    dirty_nonterminals: "Iterable[Symbol]",
) -> "Tuple[LalrRelations, List[int], List[int]]":
    """Relations for the spliced *automaton*, reusing *old*'s clean rows.

    *dirty_ids* are the ascending dirty state ids
    :func:`~repro.automaton.lr0_delta.splice_lr0` returned;
    *changed_productions*/*dirty_nonterminals* are the rhs delta.

    Returns ``(relations, changed_reads_nodes, changed_includes_nodes)``
    where the two node lists are the rows whose content differs from
    *old* — the seeds for the incremental digraph passes (DR changes
    count as reads-pass seeds).

    Raises:
        IncrementalFallback: nullability changed, a rewalk changed its
            states or lookback sites, or *old* carries no walk memo (it
            was built without ``record_walks``).
    """
    if old.walk_edges is None:
        raise IncrementalFallback("old relations carry no walk memo")
    grammar = automaton.grammar
    if "_nullable_nonterminals" not in grammar.__dict__:
        num_terminals = grammar.ids.num_terminals
        old_productions = old.grammar.productions
        productions = grammar.productions
        if all(
            min(old_productions[index].rhs_sids, default=num_terminals) < num_terminals
            and min(productions[index].rhs_sids, default=num_terminals) < num_terminals
            for index in changed_productions
        ):
            grammar._nullable_nonterminals = old.nullable
    new_nullable = nullable_nonterminals(grammar)
    if new_nullable != old.nullable:
        raise IncrementalFallback("nullability changed")

    new = LalrRelations.__new__(LalrRelations)
    new.automaton = automaton
    new.grammar = grammar
    new.ids = grammar.ids
    new.vocabulary = old.vocabulary  # same terminal layout by eligibility
    new.nullable = new_nullable
    new.num_nonterminals = old.num_nonterminals
    # Node space is identical (the automaton splice verified it); share.
    new.packed = old.packed
    new.n_nodes = old.n_nodes
    new.node_index = old.node_index
    new.dr_masks = []
    new.reads_offsets = array("i")
    new.reads_adj = array("i")
    new.includes_offsets = array("i")
    new.includes_adj = array("i")
    new.lookback_nodes = {}
    new.walk_edges = None
    new.walk_sites = None
    new.walk_states = None
    new.successors = None
    new.readers = None
    new.walk_index = None
    new.reads_reverse = None
    new.includes_reverse = None
    new._record_walks = True
    new._transitions_view = None
    new._dr_view = None
    new._reads_view = None
    new._includes_view = None
    new._lookback_view = None
    new._totals = None
    new._budget = None

    with instrument.span("relations.splice"):
        changed_reads, dr_bits = _splice_dr_and_reads(old, new, dirty_ids)
        changed_includes = _splice_includes_and_lookback(
            old, new, dirty_ids, dirty_nonterminals
        )
        if old._totals is not None:
            # stats() totals, adjusted over the rewritten DR rows only
            # (the lookback relation is shared).
            new._totals = (old._totals[0] + dr_bits, old._totals[1])
        new.reads_reverse = _patch_reverse(
            old.reads_reverse,
            old.reads_offsets,
            old.reads_adj,
            new.reads_offsets,
            new.reads_adj,
            changed_reads,
        )
        new.includes_reverse = _patch_reverse(
            old.includes_reverse,
            old.includes_offsets,
            old.includes_adj,
            new.includes_offsets,
            new.includes_adj,
            changed_includes,
        )
    if instrument.enabled():
        instrument.absorb("relations", new.stats())
    return new, changed_reads, changed_includes


def _patch_reverse(
    old_reverse: "List[List[int]] | None",
    old_offsets: "array",
    old_adj: "array",
    new_offsets: "array",
    new_adj: "array",
    changed: List[int],
) -> "List[List[int]] | None":
    """Carry a cached reverse-adjacency view across a splice.

    Only the *changed* forward rows moved, so only the predecessor lists
    of nodes those rows touch (before or after) differ: the outer list
    is shared shallowly, affected lists are rebuilt copy-on-write —
    every changed source's old entries dropped, its new emissions
    appended (multiplicity preserved; entry order is irrelevant to the
    reverse-reachability sweep that consumes this).  Returns None when
    *old* never built the view (nothing to carry — the next incremental
    digraph pass builds it fresh against the new CSR).
    """
    if old_reverse is None:
        return None
    reverse = list(old_reverse)
    changed_set = set(changed)
    affected = set()
    for src in changed:
        affected.update(old_adj[old_offsets[src] : old_offsets[src + 1]])
        affected.update(new_adj[new_offsets[src] : new_offsets[src + 1]])
    for target in affected:
        reverse[target] = [
            source for source in reverse[target] if source not in changed_set
        ]
    for src in changed:
        for target in new_adj[new_offsets[src] : new_offsets[src + 1]]:
            reverse[target].append(src)
    return reverse


def _node_successors(relations: LalrRelations) -> "array":
    """Per-node goto-target state ids, cached on *relations*.

    Invariant across rhs splices: the lr0 guards pin the node space and
    every successor state id, so a spliced relations object shares its
    predecessor's array outright.
    """
    successors = relations.successors
    if successors is None:
        states = relations.automaton.states
        num_terminals = relations.ids.num_terminals
        num_nonterminals = relations.num_nonterminals
        successors = array("i", bytes(4 * relations.n_nodes))
        for n, packed_id in enumerate(relations.packed):
            state_id, nt_id = divmod(packed_id, num_nonterminals)
            successors[n] = states[state_id].targets[num_terminals + nt_id]
        relations.successors = successors
    return successors


def build_successor_readers(relations: LalrRelations) -> "List[List[int]]":
    """``readers[state]`` — the nodes whose goto target is *state*, in
    ascending node order.

    Built from the successor array, so it is as invariant across rhs
    splices as that array: the splice builds it once (cached on
    ``LalrRelations.readers``) and a spliced relations object shares its
    predecessor's lists outright.
    """
    readers: List[List[int]] = [[] for _ in relations.automaton.states]
    for n, successor in enumerate(_node_successors(relations)):
        readers[successor].append(n)
    return readers


def build_walk_index(
    relations: LalrRelations,
) -> "Tuple[List[List[int]], List[List[int]]]":
    """``(by_state, by_nt)`` from the walk memo: for each state, the
    nodes whose recorded walk states contain it; for each nonterminal id,
    the nodes with that lhs.

    A walk must be rewalked iff its lhs is dirty or it stepped through a
    dirty state, so the union of the dirty entries is exactly the rewalk
    set.  The splice builds the index once (cached on
    ``LalrRelations.walk_index``) and shares it across later splices:
    ``by_nt`` is fixed by the node space, and
    :func:`_splice_includes_and_lookback` falls back rather than let a
    rewalk change its state set.  List order within an entry is not
    significant.
    """
    num_nonterminals = relations.num_nonterminals
    by_state: List[List[int]] = [[] for _ in relations.automaton.states]
    by_nt: List[List[int]] = [[] for _ in range(num_nonterminals)]
    for node, (packed_id, states) in enumerate(
        zip(relations.packed, relations.walk_states)
    ):
        by_nt[packed_id % num_nonterminals].append(node)
        for state_id in set(states):
            by_state[state_id].append(node)
    return by_state, by_nt


def _splice_dr_and_reads(
    old: LalrRelations, new: LalrRelations, dirty_ids: List[int]
) -> Tuple[List[int], int]:
    """Reuse every DR/reads row both of whose endpoint states are clean.

    Rows are copied in maximal clean *runs* (one C-level slice extend per
    run for masks, adjacency and shifted offsets) — the per-node Python
    work happens only at run boundaries, i.e. for the few rows an edit
    actually dirtied.  Returns the changed rows and the change in the
    total DR bit count.
    """
    states = new.automaton.states
    ids = new.ids
    num_terminals = ids.num_terminals
    num_nonterminals = new.num_nonterminals
    n_nodes = new.n_nodes
    node_index = new.node_index
    successors = _node_successors(old)
    new.successors = successors
    if old.readers is None:
        old.readers = build_successor_readers(old)
    readers = new.readers = old.readers

    # A row needs recomputing iff its source or successor state is dirty:
    # the dirty states' own nonterminal transitions, and the nodes that
    # read a dirty state as their goto target.
    recompute = bytearray(n_nodes)
    for state_id in dirty_ids:
        base = state_id * num_nonterminals
        for out_sid in states[state_id].out_sids:
            if out_sid >= num_terminals:
                recompute[node_index[base + out_sid - num_terminals]] = 1
        for n in readers[state_id]:
            recompute[n] = 1

    nullable_ids = bytearray(num_nonterminals)
    for symbol in new.nullable:
        nullable_ids[ids.nonterminal_id(symbol)] = 1
    dr_masks = new.dr_masks
    offsets, adj = new.reads_offsets, new.reads_adj
    old_offsets, old_adj, old_dr = old.reads_offsets, old.reads_adj, old.dr_masks
    offsets.append(0)
    count = new.vocabulary.count
    changed: List[int] = []
    recomputed = 0
    dr_bits = 0
    i = 0
    while i < n_nodes:
        j = recompute.find(1, i)
        if j < 0:
            j = n_nodes
        if j > i:
            dr_masks.extend(old_dr[i:j])
            base = old_offsets[i]
            shift = len(adj) - base
            adj.extend(old_adj[base : old_offsets[j]])
            if shift:
                offsets.extend(o + shift for o in old_offsets[i + 1 : j + 1])
            else:
                offsets.extend(old_offsets[i + 1 : j + 1])
        if j == n_nodes:
            break
        # Recompute row j — the same per-node work as the from-scratch
        # _compute_dr_and_reads loop, against the spliced automaton.
        recomputed += 1
        successor_state = states[successors[j]]
        mask = 0
        base = successors[j] * num_nonterminals
        row_start = len(adj)
        for out_sid in successor_state.out_sids:
            if out_sid < num_terminals:
                mask |= 1 << out_sid
            elif nullable_ids[out_sid - num_terminals]:
                adj.append(node_index[base + out_sid - num_terminals])
        dr_masks.append(mask)
        offsets.append(len(adj))
        if mask != old_dr[j]:
            dr_bits += count(mask) - count(old_dr[j])
            changed.append(j)
        elif adj[row_start:] != old_adj[old_offsets[j] : old_offsets[j + 1]]:
            changed.append(j)
        i = j + 1
    if instrument.enabled():
        instrument.count("phase.relations.rows_reused", n_nodes - recomputed)
        instrument.count("phase.relations.rows_recomputed", recomputed)
    return changed, dr_bits


def _splice_includes_and_lookback(
    old: LalrRelations,
    new: LalrRelations,
    dirty_ids: List[int],
    dirty_nonterminals: "Iterable[Symbol]",
) -> List[int]:
    """Rewalk only the dirty walks; *patch* everything they fed.

    The walks to redo come straight from the inverted
    :func:`build_walk_index` (the dirty states' and dirty nonterminals'
    entries).  A clean walk
    replays verbatim, so instead of replaying it — O(total walk size)
    per update — the old per-node edge and state memos are copied
    wholesale and only the rewalked nodes' entries are replaced.  The includes CSR is
    then assembled by slicing unaffected bucket rows straight out of the
    old arrays (in maximal runs) and merge-rebuilding just the buckets a
    rewalked source feeds.  The merge is sound because a bucket row
    lists its *source* node ids in non-decreasing order (sources are
    walked in ascending node order): drop the rewalked sources' old
    entries, then merge the rewalked sources' new emissions back in by
    node id.

    Under the automaton splice's guards a rewalk visits the same states
    and ends at the same lookback sites as before: kernels and every
    dirty state's successor-kernel sequence are unchanged.  The site
    memo, the lookback dict and the walk index are therefore shared
    object-for-object with *old* (relations are immutable once built).
    This layer does not rely on that argument: a rewalk whose sites or
    state set differ raises :class:`IncrementalFallback`, and the
    session rebuilds from scratch.  Returns the changed includes rows.
    """
    states = new.automaton.states
    grammar = new.grammar
    ids = new.ids
    num_terminals = ids.num_terminals
    num_nonterminals = new.num_nonterminals
    n_nodes = new.n_nodes
    nullable_ids = bytearray(num_nonterminals)
    for symbol in new.nullable:
        nullable_ids[ids.nonterminal_id(symbol)] = 1
    node_index = new.node_index
    packed = new.packed

    if old.walk_index is None:
        old.walk_index = build_walk_index(old)
    by_state, by_nt = old.walk_index
    rewalk = set()
    for state_id in dirty_ids:
        rewalk.update(by_state[state_id])
    for symbol in dirty_nonterminals:
        rewalk.update(by_nt[ids.nonterminal_id(symbol)])
    rewalked = sorted(rewalk)

    old_edges, old_sites, old_states = old.walk_edges, old.walk_sites, old.walk_states
    new.walk_edges = walk_edges = list(old_edges)
    new.walk_states = walk_states = list(old_states)

    for node in rewalked:
        source, lhs_nt_id = divmod(packed[node], num_nonterminals)
        node_edges: List[int] = []
        node_sites: List[ReductionSite] = []
        node_states: List[int] = [source]
        for production in grammar.productions_for_ntid(lhs_nt_id):
            rhs_sids = production.rhs_sids
            n = len(rhs_sids)
            suffix_nullable = bytearray(n + 1)
            suffix_nullable[n] = 1
            for i in range(n - 1, -1, -1):
                sid = rhs_sids[i]
                suffix_nullable[i] = (
                    sid >= num_terminals
                    and nullable_ids[sid - num_terminals]
                    and suffix_nullable[i + 1]
                )
            state = source
            for i in range(n):
                sid = rhs_sids[i]
                if sid >= num_terminals and suffix_nullable[i + 1]:
                    edge_node = node_index.get(
                        state * num_nonterminals + sid - num_terminals
                    )
                    if edge_node is not None:
                        node_edges.append(edge_node)
                next_state = states[state].targets[sid]
                assert next_state >= 0, (
                    "spliced automaton is missing a transition the closure implies"
                )
                state = next_state
                node_states.append(state)
            node_sites.append((state, production.index))
        if node_sites != old_sites[node] or set(node_states) != set(old_states[node]):
            raise IncrementalFallback("a walk's states or lookback sites changed")
        walk_edges[node] = node_edges
        walk_states[node] = node_states
    # Every walk kept its sites and its state set: the site memo, the
    # lookback relation and the walk index carry over unchanged.
    new.walk_sites = old_sites
    new.lookback_nodes = old.lookback_nodes
    new.walk_index = old.walk_index
    if instrument.enabled():
        instrument.count("phase.relations.walks_reused", n_nodes - len(rewalked))
        instrument.count("phase.relations.walks_rewalked", len(rewalked))

    # Buckets a rewalked source fed (before or after) are the only
    # includes rows that can differ.
    rewalked_set = set(rewalked)
    affected = bytearray(n_nodes)
    contributions: "dict[int, List[int]]" = {}
    for src in rewalked:
        for target in old_edges[src]:
            affected[target] = 1
    for src in rewalked:  # ascending, so contributions stay sorted by src
        for target in walk_edges[src]:
            affected[target] = 1
            contributions.setdefault(target, []).append(src)

    offsets, adj = new.includes_offsets, new.includes_adj
    old_offsets, old_adj = old.includes_offsets, old.includes_adj
    offsets.append(0)
    changed: List[int] = []
    i = 0
    while i < n_nodes:
        j = affected.find(1, i)
        if j < 0:
            j = n_nodes
        if j > i:
            base = old_offsets[i]
            shift = len(adj) - base
            adj.extend(old_adj[base : old_offsets[j]])
            if shift:
                offsets.extend(o + shift for o in old_offsets[i + 1 : j + 1])
            else:
                offsets.extend(old_offsets[i + 1 : j + 1])
        if j == n_nodes:
            break
        old_row = old_adj[old_offsets[j] : old_offsets[j + 1]].tolist()
        fresh = contributions.get(j, ())
        merged: List[int] = []
        ci, clen = 0, len(fresh)
        for entry in old_row:
            if entry in rewalked_set:
                continue
            while ci < clen and fresh[ci] < entry:
                merged.append(fresh[ci])
                ci += 1
            merged.append(entry)
        while ci < clen:
            merged.append(fresh[ci])
            ci += 1
        adj.extend(merged)
        offsets.append(len(adj))
        if merged != old_row:
            changed.append(j)
        i = j + 1
    return changed
