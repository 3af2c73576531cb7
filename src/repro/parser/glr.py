"""The RNGLR engine — generalized LR parsing over conflicted tables.

Where the deterministic engine (:mod:`repro.parser.engine`) follows the
single action a :class:`~repro.tables.table.ParseTable` keeps per cell,
this engine runs off the :class:`~repro.tables.nondet
.NondeterministicTable` view, which keeps *every* competing action of an
unresolved conflict, and reads GOTO from the same table's
``goto_codes``.  The reducer and the shifter read only the view's flat
per-cell code tuples (reduce production indices, shift targets, an
accept flag; ``state * num_terminals + terminal_id``), never an
``Action`` object; the action rows serve only the error message.
Nondeterminism is handled the Tomita/RNGLR way:

- a **graph-structured stack** (GSS): parse stacks that share a suffix
  share the GSS nodes for it, so the worst case stays polynomial where
  naive stack-copying explodes.  Nodes are keyed (state, input level);
  edges are ``(label, target)`` pairs pointing from newer to older nodes,
  labelled with the SPPF node for the symbol that was pushed;
- a **shared packed parse forest** (SPPF): derivation trees that share a
  subtree share the node for it.  Nodes are keyed (symbol, start, end),
  interned one input level at a time (every node made at a level ends
  there); an ambiguous node packs one *family* (production, children)
  per distinct derivation;
- a token-synchronized loop: at each input position every pending
  reduction is applied to exhaustion (the *reducer* worklist, including
  ε-reductions and Farshi-style re-reduction when a new GSS edge lands
  on an already-processed node), then all shifts advance together.

Between forks the engine runs in an **LR mode**, the hybrid of Elkhound
(McPeak and Necula, CC 2004).  While the frontier is one GSS node, the
stack above that node — the *floor* — is kept as plain lists of
(state, level, label) entries, and each input level steps on the view's
``lr_cells`` (one int per cell that holds exactly one action).  A level
runs its reduce chain into scratch lists and commits them only if every
cell on the way holds one action, every goto is valid, no goto makes a
state already made at this level (the general path would merge GSS
nodes there and re-run reductions), no two reductions make one SPPF key
(the general path would share the node), and every pop below the floor
passes single-edge GSS nodes only.  Otherwise the list entries become
GSS nodes, each entry at most once, and the level runs on the general
path; the engine returns to LR mode at the next level whose frontier
holds one node.  The nonterminal SPPF nodes LR mode makes are
``(production, children)`` tuples, and every leaf is a ``(token,)``
tuple: allocating an :class:`SppfNode` and a :class:`_GssNode` per step
is where a general step's time goes.

``ParseForest.stats`` count the RNGLR algorithm's work, whichever mode
did it: an LR-mode reduction adds one worklist pop, SPPF node, family,
GSS node and GSS edge, an LR-mode shift one SPPF leaf, GSS node and GSS
edge — exactly what the general path would have built.  Budget charges
fall on the same pops and shift edges, so a budget trips at the same
step with the same progress.  tests/test_glr_pins.py pins the counters
literally, which makes them a step-for-step oracle for LR mode.  The
engine also counts the SPPF nodes that get a second family; with none,
the forest holds exactly one tree and ``ParseForest.tree_count``
answers without a walk.

On a deterministic table the GSS degenerates to a single chain and the
engine is observationally identical to the LALR engine: same trees, same
error strings/positions/expected sets (via the shared
:func:`~repro.parser.errors.syntax_error` formatter), same ``max_tokens``
budget behaviour.  That parity is pinned corpus-wide by
tests/test_glr.py and the ``glr-parity`` fuzz oracle; on conflicted
grammars the oracle cross-checks GLR recognition against the CYK
ground truth and tree counts against the tree counter instead.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from ..core import instrument
from ..grammar.grammar import Grammar
from ..grammar.production import Production
from ..grammar.symbols import Symbol
from ..tables.nondet import (
    LR_ACCEPT,
    LR_SHIFT,
    NondeterministicTable,
    nondet_view,
)
from .engine import Token, TokenLike, resolve_token
from .errors import ParseError, syntax_error
from .tree import Node

__all__ = ["GlrParser", "ParseForest", "SppfNode"]

#: ``next(stream, _END)``'s end-of-input marker.
_END = object()


class SppfNode:
    """One shared-packed-parse-forest node: nonterminal *symbol* over
    [start, end), packing one (production, children) family per distinct
    derivation — more than one family = local ambiguity.

    Leaves are ``(token,)`` tuples, and LR mode's nonterminal nodes
    ``(production, children)`` tuples (see :class:`ParseForest`).
    """

    __slots__ = ("symbol", "start", "end", "families", "_family_keys")

    def __init__(self, symbol: Symbol, start: int, end: int):
        self.symbol = symbol
        self.start = start
        self.end = end
        self.families: "List[Tuple[Production, tuple]]" = []
        #: (production index, children ids...) of every family, once
        #: there are two: equal keys mean the same children objects.
        self._family_keys: "Optional[set]" = None

    def add_family(self, production: Production, children: tuple) -> bool:
        """Pack one derivation; False if it was already packed."""
        families = self.families
        if not families:
            families.append((production, children))
            return True
        keys = self._family_keys
        if keys is None:
            first, first_children = families[0]
            keys = self._family_keys = {(first.index, *map(id, first_children))}
        key = (production.index, *map(id, children))
        if key in keys:
            return False
        keys.add(key)
        families.append((production, children))
        return True

    @property
    def is_ambiguous(self) -> bool:
        return len(self.families) > 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SppfNode({self.symbol.name}, {self.start}..{self.end}, "
            f"{len(self.families)} families)"
        )


class _GssNode:
    """One graph-structured-stack node: (parser state, input level).

    ``edges`` holds ``(label, target)`` pairs: the SPPF node for the
    pushed symbol and the older GSS node.  ``has_level_parents`` records
    whether some *same-level* node holds an edge into this one — the
    trigger for the conservative Farshi re-run when this node later gains
    a new edge (a path from another stack top may thread through it).
    """

    __slots__ = ("state", "level", "edges", "has_level_parents")

    def __init__(self, state: int, level: int):
        self.state = state
        self.level = level
        self.edges: "List[Tuple[SppfNode, _GssNode]]" = []
        self.has_level_parents = False


class ParseForest:
    """The SPPF for one accepted input, plus run statistics.

    ``trees()`` / ``tree()`` enumerate derivations by expanding families
    depth-first; ``tree_count()`` counts the same walk without building
    a tree.  Enumeration is *saturating*: at most ``limit`` trees are
    materialised (ambiguity can be exponential in the input, and cyclic
    grammars derive infinitely many trees — cyclic expansions are
    skipped, so counts cover the finite derivations only).
    Extracted trees share subtree Node objects where the forest shares
    SPPF nodes; treat them as read-only.

    ``ambiguous_nodes`` is how many SPPF nodes the engine packed a second
    family into (None: unknown).  With none, every family's children were
    made before their node, so the forest is a DAG holding exactly one
    tree: ``tree_count`` and ``is_ambiguous`` answer without a walk.

    The root is an :class:`SppfNode`.  Below it, a leaf is a
    ``(token,)`` tuple, and a nonterminal the engine built in its LR mode
    is a ``(production, children)`` tuple, its one family.
    """

    def __init__(self, root: "Optional[SppfNode]", grammar: Grammar,
                 token_count: int, stats: "Optional[Dict[str, int]]" = None,
                 ambiguous_nodes: "Optional[int]" = None):
        self.root = root
        self.grammar = grammar
        self.token_count = token_count
        self.stats: "Dict[str, int]" = dict(stats or {})
        self.ambiguous_nodes = ambiguous_nodes

    def trees(self, limit: int = 1000) -> "List[Node]":
        """Up to *limit* derivation trees, in packing (discovery) order."""
        if self.root is None:
            return []
        trees = _tree_list(self.root, {}, set(), limit)
        return trees if trees is not None else []

    def tree(self) -> Node:
        """The first derivation tree — *the* tree when unambiguous."""
        if self.root is not None and self.ambiguous_nodes == 0:
            return _only_tree(self.root)
        trees = self.trees(limit=1)
        if not trees:
            raise ValueError("forest has no finite derivation tree")
        return trees[0]

    def tree_count(self, limit: int = 1000) -> int:
        """How many distinct derivation trees, saturating at *limit*.

        Counts over the SPPF without building a tree; for every
        ``limit >= 1`` equal to ``len(self.trees(limit))``."""
        if self.root is None:
            return 0
        if self.ambiguous_nodes == 0:
            return min(1, limit)
        count = _tree_count(self.root, {}, set(), limit)
        return count if count is not None else 0

    @property
    def is_ambiguous(self) -> bool:
        return self.tree_count(limit=2) > 1


def _families(node) -> tuple:
    """*node*'s families in any SPPF form; empty for a leaf."""
    if type(node) is SppfNode:
        return node.families
    return (node,) if len(node) == 2 else ()


def _only_tree(root) -> Node:
    """The one tree of a forest with no packed second family.

    Such a forest is a DAG in which every node has one family, so this
    is ``_tree_list(root, ..., limit=1)[0]`` — the same Node objects
    shared where SPPF nodes are shared — built on an explicit stack, so
    a tree as deep as the input is long does not hit the recursion
    limit."""
    built: "Dict[int, Node]" = {}
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        key = id(node)
        if key in built:
            continue
        families = _families(node)
        if not families:
            token = node[0]
            built[key] = Node(token.symbol, value=token.value)
            continue
        production, children = families[0]
        if ready:
            built[key] = Node(
                production.lhs,
                [built[id(child)] for child in children],
                production=production,
            )
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(children))
    return built[id(root)]


def _tree_list(node, memo: dict, on_path: set, limit: int):
    """All (up to *limit*) trees rooted at *node*; None = cycle guard hit."""
    key = id(node)
    cached = memo.get(key)
    if cached is not None:
        return cached
    families = _families(node)
    if not families:
        token = node[0]
        leaves = [Node(token.symbol, value=token.value)]
        memo[key] = leaves
        return leaves
    if key in on_path:
        return None
    on_path.add(key)
    out: "List[Node]" = []
    clean = True
    for production, children in families:
        combos: "List[List[Node]]" = [[]]
        for child in children:
            sub = _tree_list(child, memo, on_path, limit)
            if sub is None:
                clean = False
                combos = []
                break
            if not sub:
                combos = []
                break
            combos = [prefix + [tree] for prefix in combos for tree in sub]
            if len(combos) > limit:
                combos = combos[:limit]
                clean = False
        for combo in combos:
            out.append(Node(production.lhs, combo, production=production))
            if len(out) >= limit:
                clean = False
                break
        if len(out) >= limit:
            break
    on_path.discard(key)
    if clean:
        memo[key] = out
    return out


def _tree_count(node, memo: dict, on_path: set, limit: int):
    """``len(_tree_list(node, ...))`` without the trees: the same walk,
    memo, cycle guard, truncation points and "clean" rule, over
    saturating integers instead of lists.  None = cycle guard hit."""
    key = id(node)
    cached = memo.get(key)
    if cached is not None:
        return cached
    families = _families(node)
    if not families:
        memo[key] = 1
        return 1
    if key in on_path:
        return None
    on_path.add(key)
    total = 0
    clean = True
    for _production, children in families:
        combos = 1
        for child in children:
            sub = _tree_count(child, memo, on_path, limit)
            if sub is None:
                clean = False
                combos = 0
                break
            if not sub:
                combos = 0
                break
            combos *= sub
            if combos > limit:
                combos = limit
                clean = False
        if combos:
            total = min(total + combos, limit)
            if total >= limit:
                clean = False
                break
    on_path.discard(key)
    if clean:
        memo[key] = total
    return total


class GlrParser:
    """A generalized LR parser for one grammar/table pair.

    Accepts a :class:`~repro.tables.table.ParseTable` (built or loaded)
    or a prebuilt :class:`NondeterministicTable` view; unresolved
    conflicts fork the GSS instead of being an error or a silent
    tie-break.
    """

    def __init__(self, table):
        view = (
            table
            if isinstance(table, NondeterministicTable)
            else nondet_view(table)
        )
        self.view = view
        self.table = view.table
        self.grammar: Grammar = view.grammar
        if not self.grammar.is_augmented:
            raise ValueError("parse tables must be built over an augmented grammar")
        self._ids = self.grammar.ids
        self._eof = self.grammar.eof
        self._eof_tid = self._ids.terminal_id(self._eof)
        #: :func:`~repro.parser.engine.resolve_token`'s memo.
        self._tok_cache: dict = {}

    # -- public API ---------------------------------------------------

    def parse_forest(self, tokens: "Iterable[TokenLike]", budget=None) -> ParseForest:
        """Parse *tokens* into a :class:`ParseForest` (raises ParseError
        on invalid input, BudgetExceeded under an exhausted budget)."""
        with instrument.span("parse.glr"):
            return self._run(tokens, budget)

    def parse(self, tokens: "Iterable[TokenLike]", budget=None) -> Node:
        """The forest's first derivation tree — on a deterministic table
        this is exactly the LALR engine's tree."""
        return self.parse_forest(tokens, budget=budget).tree()

    def accepts(self, tokens: "Iterable[TokenLike]", budget=None) -> bool:
        """True iff *tokens* is a sentence of the grammar."""
        try:
            self.parse_forest(tokens, budget=budget)
        except ParseError:
            return False
        return True

    # -- engine -------------------------------------------------------

    def _run(self, tokens: "Iterable[TokenLike]", budget=None) -> ParseForest:
        if budget is not None:
            budget.enter_phase("parse.glr")
        grammar = self.grammar
        view = self.view
        width = self._ids.num_terminals
        n_nts = self._ids.num_nonterminals
        reduce_cells = view.reduce_cells
        reduce_nonempty_cells = view.reduce_nonempty_cells
        shift_cells = view.shift_cells
        accept_cells = view.accept_cells
        lr_cells = view.lr_cells
        arities = view.arities
        lhs_nts = view.lhs_nts
        goto_codes = view.goto_codes
        productions = grammar.productions
        eof_tid = self._eof_tid
        tok_cache = self._tok_cache
        tok_cache_get = tok_cache.get
        start_sid = self._ids.sid_or_none(grammar.original_start)

        # LR mode: the stack above the GSS node `floor`, as parallel lists
        # of states, input levels and edge labels (SPPF nodes), bottom
        # first.  `frontier` is None while the engine is in LR mode.
        floor = _GssNode(0, 0)
        lr_states: "List[int]" = []
        lr_levels: "List[int]" = []
        lr_labels: list = []
        frontier: "Optional[Dict[int, _GssNode]]" = None
        #: The input level at which LR mode last made each state and each
        #: LHS nonterminal, and the start of that LHS's SPPF node.
        state_made = [-1] * view.n_states
        lhs_made = [-1] * n_nts
        lhs_start = [0] * n_nts
        #: (GSS node, production index, first edge or None); empty
        #: between input levels.
        worklist: deque = deque()
        push = worklist.append
        pop = worklist.popleft

        stream = iter(tokens)
        eof_token = Token(self._eof, None)
        position = 0
        root = None
        gss_nodes = 1
        gss_edges = sppf_nodes = sppf_families = 0
        reductions = shifts = worklist_pops = 0
        ambiguous_nodes = 0
        #: LR mode's work in the general path's units: a reduction is one
        #: pop, SPPF node, family, GSS node and edge; a shift is one SPPF
        #: leaf, GSS node and edge.
        lr_reductions = lr_leaves = lr_shifts = 0

        try:
            while True:
                raw = next(stream, _END)
                if raw is _END:
                    token, tid = eof_token, eof_tid
                else:
                    entry = tok_cache_get(raw) if type(raw) is str else None
                    token, tid = entry or resolve_token(grammar, tok_cache, raw, position)

                if frontier is None and tid is not None:
                    # ---- LR mode: one deterministic level on the lists ----
                    # The level's reduce chain runs into made_*; `top` and
                    # `below` track how far it pops the lists and the GSS
                    # chain under them.  It commits only if every cell on
                    # the way holds one action, every goto is valid and
                    # makes a state and an SPPF key not yet made at this
                    # level (no GSS merge, no SPPF sharing), every pop
                    # below the floor meets single-edge GSS nodes, and the
                    # chain ends in a shift or, on $end, in accept.
                    # Otherwise nothing has changed and the level runs on
                    # the general path.
                    top = len(lr_states)  # list entries still on the stack
                    below = floor  # the GSS node under them
                    made_states: "List[int]" = []
                    made_labels: list = []
                    reduced = 0
                    starts = None  # LHS -> starts, once an LHS repeats
                    clean = False
                    state = lr_states[-1] if top else floor.state
                    state_made[state] = position
                    code = lr_cells[state * width + tid]
                    while code >= 0:
                        arity = arities[code]
                        held = len(made_labels)
                        if arity <= held:
                            if arity == 1:
                                children = (made_labels.pop(),)
                                made_states.pop()
                            elif arity:
                                children = tuple(made_labels[-arity:])
                                del made_states[-arity:]
                                del made_labels[-arity:]
                            else:
                                children = ()
                        else:
                            lower = top - arity + held
                            if lower >= 0:
                                if held:
                                    children = tuple(lr_labels[lower:top] + made_labels)
                                else:
                                    children = tuple(lr_labels[lower:top])
                                top = lower
                            else:
                                # The path runs on below the floor.
                                chain = []
                                node = below
                                while lower and len(node.edges) == 1:
                                    label, node = node.edges[0]
                                    chain.append(label)
                                    lower += 1
                                if lower:
                                    break
                                chain.reverse()
                                children = tuple(chain + lr_labels[:top] + made_labels)
                                below = node
                                top = 0
                            made_states = []
                            made_labels = []
                        if made_states:
                            base = made_states[-1]
                            start = position
                        elif top:
                            base = lr_states[top - 1]
                            start = lr_levels[top - 1]
                        else:
                            base = below.state
                            start = below.level
                        lhs = lhs_nts[code]
                        state = goto_codes[base * n_nts + lhs]
                        if state < 0 or state_made[state] == position:
                            break
                        state_made[state] = position
                        if lhs_made[lhs] == position:
                            # A second node for this LHS: it must start
                            # elsewhere than every earlier one.
                            if starts is None:
                                starts = {}
                            seen = starts.get(lhs)
                            if seen is None:
                                seen = starts[lhs] = {lhs_start[lhs]}
                            if start in seen:
                                break
                            seen.add(start)
                        lhs_made[lhs] = position
                        lhs_start[lhs] = start
                        made_states.append(state)
                        made_labels.append((productions[code], children))
                        reduced += 1
                        code = lr_cells[state * width + tid]
                    else:
                        clean = code == LR_ACCEPT if tid == eof_tid else code <= LR_SHIFT
                    if clean:
                        # Commit.  The steps are charged now, one per
                        # reduction in order, so a budget trips with the
                        # counts the general path would have had.
                        if budget is None:
                            lr_reductions += reduced
                        else:
                            for _ in range(reduced):
                                budget.charge_parse_step()
                                lr_reductions += 1
                        if top < len(lr_states):
                            del lr_states[top:]
                            del lr_levels[top:]
                            del lr_labels[top:]
                        floor = below
                        if made_states:
                            lr_states += made_states
                            lr_levels += [position] * len(made_states)
                            lr_labels += made_labels
                        if code == LR_ACCEPT:
                            # Only S' -> S . $end accepts, and only the S
                            # reduction from state 0 reaches that state.
                            root = lr_labels[-1]
                            break
                        if budget is not None:
                            budget.charge_tokens(1)
                        lr_leaves += 1
                        if budget is not None:
                            budget.charge_parse_step()
                        lr_shifts += 1
                        lr_states.append(LR_SHIFT - code)
                        lr_levels.append(position + 1)
                        lr_labels.append((token,))
                        position += 1
                        continue
                # ---- leave LR mode: the list entries become GSS nodes ----
                if frontier is None:
                    node = floor
                    for state, level, label in zip(lr_states, lr_levels, lr_labels):
                        above = _GssNode(state, level)
                        above.edges.append((label, node))
                        node = above
                    frontier = {node.state: node}

                # ---- reducer: apply every reduction visible under `tid` ----
                #: (symbol sid, start) -> the SPPF node interned at this
                #: level (every node made here ends at `position`).
                sppf: "Dict[Tuple[int, int], SppfNode]" = {}
                if tid is not None:
                    for node in frontier.values():
                        for prod_index in reduce_cells[node.state * width + tid]:
                            push((node, prod_index, None))
                while worklist:
                    if budget is not None:
                        budget.charge_parse_step()
                    worklist_pops += 1
                    node, prod_index, first_edge = pop()
                    arity = arities[prod_index]
                    if arity == 0:
                        paths = [(node, ())]
                    else:
                        paths = []
                        if first_edge is not None:
                            label, below = first_edge
                            _collect_paths(below, arity - 1, (label,), paths)
                        else:
                            _collect_paths(node, arity, (), paths)
                    production = productions[prod_index]
                    lhs_nt = lhs_nts[prod_index]
                    lhs_sid = lhs_nt + width
                    for base, children in paths:
                        goto = goto_codes[base.state * n_nts + lhs_nt]
                        if goto < 0:
                            # A losing GSS branch can reduce to a symbol its
                            # base state has no transition for; the branch
                            # simply dies (only *all* branches dying is a
                            # syntax error, detected at shift time).
                            continue
                        key = (lhs_sid, base.level)
                        packed = sppf.get(key)
                        if packed is None:
                            packed = sppf[key] = SppfNode(
                                production.lhs, base.level, position
                            )
                            sppf_nodes += 1
                        if packed.add_family(production, children):
                            sppf_families += 1
                            if len(packed.families) == 2:
                                ambiguous_nodes += 1
                        reductions += 1
                        target = frontier.get(goto)
                        if target is None:
                            target = frontier[goto] = _GssNode(goto, position)
                            gss_nodes += 1
                            target.edges.append((packed, base))
                            gss_edges += 1
                            if base.level == position:
                                base.has_level_parents = True
                            for next_prod in reduce_cells[goto * width + tid]:
                                push((target, next_prod, None))
                            continue
                        new_edge = (packed, base)
                        if new_edge in target.edges:
                            continue  # already explored through this edge
                        target.edges.append(new_edge)
                        gss_edges += 1
                        if base.level == position:
                            base.has_level_parents = True
                        # The node was already processed: re-run the
                        # non-ε reductions the new edge opens up (Farshi).
                        # When same-level parents exist, a path from
                        # *another* stack top may thread through the new
                        # edge, so conservatively re-run every frontier
                        # node; edge and family dedup make the re-run
                        # idempotent.
                        if target.has_level_parents:
                            for renode in list(frontier.values()):
                                for next_prod in reduce_nonempty_cells[
                                    renode.state * width + tid
                                ]:
                                    push((renode, next_prod, None))
                        else:
                            for next_prod in reduce_nonempty_cells[
                                target.state * width + tid
                            ]:
                                push((target, next_prod, new_edge))

                # ---- accept -------------------------------------------------
                if tid == eof_tid:
                    for node in frontier.values():
                        if accept_cells[node.state * width + tid]:
                            break
                    else:
                        raise self._syntax_error(position, token, frontier, tid)
                    root = sppf.get((start_sid, 0))
                    break  # accepted: the forest is built below

                # ---- shifter: every branch advances over the token ----------
                shift_edges: "List[Tuple[_GssNode, int]]" = []
                if tid is not None:
                    for node in frontier.values():
                        for state in shift_cells[node.state * width + tid]:
                            shift_edges.append((node, state))
                if not shift_edges:
                    raise self._syntax_error(position, token, frontier, tid)
                if budget is not None:
                    budget.charge_tokens(1)
                leaf = (token,)
                sppf_nodes += 1
                next_frontier: "Dict[int, _GssNode]" = {}
                for base, state in shift_edges:
                    if budget is not None:
                        budget.charge_parse_step()
                    target = next_frontier.get(state)
                    if target is None:
                        target = next_frontier[state] = _GssNode(state, position + 1)
                        gss_nodes += 1
                    target.edges.append((leaf, base))
                    gss_edges += 1
                    shifts += 1
                frontier = next_frontier
                position += 1
                if len(frontier) == 1:
                    # One stack top again: back to LR mode above it.
                    (floor,) = frontier.values()
                    frontier = None
                    lr_states = []
                    lr_levels = []
                    lr_labels = []
        finally:
            stats = {
                "gss_nodes": gss_nodes + lr_reductions + lr_shifts,
                "gss_edges": gss_edges + lr_reductions + lr_shifts,
                "sppf_nodes": sppf_nodes + lr_reductions + lr_leaves,
                "sppf_families": sppf_families + lr_reductions,
                "reductions": reductions + lr_reductions,
                "shifts": shifts + lr_shifts,
                "worklist_pops": worklist_pops + lr_reductions,
            }
            if budget is not None:
                budget.publish()
            if instrument.enabled():
                instrument.count("glr.tokens", position)
                for name, value in stats.items():
                    instrument.count(f"glr.{name}", value)
        if type(root) is tuple:
            production, children = root
            root = SppfNode(production.lhs, 0, position)
            root.add_family(production, children)
        return ParseForest(root, grammar, position, stats, ambiguous_nodes)

    def _syntax_error(
        self, position: int, token: Token, frontier, tid: "Optional[int]"
    ) -> ParseError:
        """The error the shared formatter spells — state and expected set
        chosen for byte-parity with the deterministic engine.

        Dead ends (frontier nodes with no action at all on the lookahead)
        are exactly where the LALR engine would have stopped; on a
        deterministic table there is precisely one, so the state and the
        expected set match the LALR error verbatim.
        """
        rows = self.view.rows
        nodes = list(frontier.values())
        if tid is not None:
            dead = [node for node in nodes if not rows[node.state][tid]]
        else:
            dead = nodes
        if not dead:  # pragma: no cover - every error has a dead end
            dead = nodes
        seen: set = set()
        for node in dead:
            row = rows[node.state]
            for terminal_id in range(len(row)):
                if row[terminal_id]:
                    seen.add(terminal_id)
        by_sid = self._ids.by_sid
        expected = sorted(
            (by_sid[terminal_id] for terminal_id in seen),
            key=lambda s: s.name,
        )
        return syntax_error(
            position, token.symbol, dead[0].state, expected, self._eof
        )


def _collect_paths(
    node: _GssNode, remaining: int, labels: tuple, out: list
) -> None:
    """Every GSS path of *remaining* more edges down from *node*, appended
    to *out* as (base node, labels bottom-up, i.e. in RHS order) in
    depth-first edge order.  Single-edge chains are walked in a loop;
    only a fork recurses."""
    while remaining:
        edges = node.edges
        if len(edges) != 1:
            for label, below in edges:
                _collect_paths(below, remaining - 1, (label,) + labels, out)
            return
        label, node = edges[0]
        labels = (label,) + labels
        remaining -= 1
    out.append((node, labels))
