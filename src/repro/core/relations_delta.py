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

Nullability is global input to both: if the edit changed the nullable
set every row is suspect, and this layer raises
:class:`~repro.automaton.lr0_delta.IncrementalFallback` rather than
chase the dependency (a documented v1 limitation — the session rebuilds
from scratch, which is always correct).

The node space (``packed``/``node_index``) is shared object-level with
the old relations: the automaton splice already verified no state's
nonterminal transition sequence changed.

Besides the new relations, the splice reports which rows actually
*changed* — the dirty seeds the incremental digraph passes start from.
"""

from __future__ import annotations

from array import array
from typing import List, Tuple

from ..analysis.nullable import nullable_nonterminals
from ..automaton.lr0 import LR0Automaton
from ..automaton.lr0_delta import IncrementalFallback
from ..grammar.symbols import Symbol
from . import instrument
from .relations import LalrRelations, ReductionSite

__all__ = ["splice_relations"]


def splice_relations(
    old: LalrRelations,
    automaton: LR0Automaton,
    dirty: bytearray,
    dirty_nonterminals: "frozenset[Symbol]",
) -> "Tuple[LalrRelations, List[int], List[int]]":
    """Relations for the spliced *automaton*, reusing *old*'s clean rows.

    Returns ``(relations, changed_reads_nodes, changed_includes_nodes)``
    where the two node lists are the rows whose content differs from
    *old* — the seeds for the incremental digraph passes (DR changes
    count as reads-pass seeds).

    Raises:
        IncrementalFallback: nullability changed, or *old* carries no
            walk memo (it was built without ``record_walks``).
    """
    if old.walk_edges is None:
        raise IncrementalFallback("old relations carry no walk memo")
    grammar = automaton.grammar
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
        changed_reads, dr_bits = _splice_dr_and_reads(old, new, dirty)
        changed_includes, lookback_edges = _splice_includes_and_lookback(
            old, new, dirty, dirty_nonterminals
        )
        if old._totals is not None:
            # stats() totals, adjusted over the rewritten rows only.
            new._totals = (
                old._totals[0] + dr_bits, old._totals[1] + lookback_edges
            )
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


def _splice_dr_and_reads(
    old: LalrRelations, new: LalrRelations, dirty: bytearray
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

    # A row needs recomputing iff its source or successor state is dirty.
    # Source-dirty nodes come from the dirty states' own nonterminal
    # transitions; successor-dirty nodes from one scan of the (invariant)
    # successor array.
    recompute = bytearray(n_nodes)
    for state_id, flag in enumerate(dirty):
        if not flag:
            continue
        base = state_id * num_nonterminals
        for out_sid in states[state_id].out_sids:
            if out_sid >= num_terminals:
                recompute[node_index[base + out_sid - num_terminals]] = 1
    for n, successor in enumerate(successors):
        if dirty[successor]:
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
    dirty: bytearray,
    dirty_nonterminals: "frozenset[Symbol]",
) -> List[int]:
    """Rewalk only the dirty walks; *patch* everything they fed.

    A clean walk replays verbatim, so instead of replaying it — O(total
    walk size) per update — the old per-node memo lists are copied
    wholesale and only the rewalked nodes' entries are replaced.  The
    includes CSR is then assembled by slicing unaffected bucket rows
    straight out of the old arrays (in maximal runs) and merge-rebuilding
    just the buckets a rewalked source feeds.  The merge is sound because
    a bucket row lists its *source* node ids in non-decreasing order
    (sources are walked in ascending node order): drop the rewalked
    sources' old entries, then merge the rewalked sources' new emissions
    back in by node id.

    The lookback dict is shared object-for-object with *old* when no
    rewalked node's site list changed (the common case — relations are
    immutable once built); otherwise it is rebuilt from the patched site
    memos in from-scratch order.  Returns the changed includes rows and
    the change in the total lookback edge count.
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
    dirty_nt_ids = bytearray(num_nonterminals)
    for symbol in dirty_nonterminals:
        dirty_nt_ids[ids.nonterminal_id(symbol)] = 1
    node_index = new.node_index
    # The per-walk cleanliness test runs over every recorded walk state;
    # a set.isdisjoint against the (small) dirty-state set keeps that
    # scan in C instead of a per-state generator round-trip.
    dirty_states_set = {state_id for state_id, flag in enumerate(dirty) if flag}

    old_edges, old_sites, old_states = old.walk_edges, old.walk_sites, old.walk_states
    new.walk_edges = walk_edges = list(old_edges)
    new.walk_sites = walk_sites = list(old_sites)
    new.walk_states = walk_states = list(old_states)

    rewalked: List[int] = []
    sites_changed = False
    lookback_edges = 0
    for node, packed_id in enumerate(new.packed):
        source, lhs_nt_id = divmod(packed_id, num_nonterminals)
        if not dirty_nt_ids[lhs_nt_id] and dirty_states_set.isdisjoint(
            old_states[node]
        ):
            continue
        rewalked.append(node)
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
        walk_edges[node] = node_edges
        walk_sites[node] = node_sites
        walk_states[node] = node_states
        if node_sites != old_sites[node]:
            sites_changed = True
            lookback_edges += len(node_sites) - len(old_sites[node])
    if instrument.enabled():
        instrument.count("phase.relations.walks_reused", n_nodes - len(rewalked))
        instrument.count("phase.relations.walks_rewalked", len(rewalked))

    if sites_changed:
        lookback = new.lookback_nodes
        for node, node_sites in enumerate(walk_sites):
            for site in node_sites:
                lookback.setdefault(site, []).append(node)
    else:
        new.lookback_nodes = old.lookback_nodes

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
    return changed, lookback_edges
