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
  subtree share the node for it.  Nodes are keyed (symbol, start, end);
  an ambiguous node packs one *family* (production, children) per
  distinct derivation;
- a token-synchronized loop: at each input position every pending
  reduction is applied to exhaustion (the *reducer* worklist, including
  ε-reductions and Farshi-style re-reduction when a new GSS edge lands
  on an already-processed node), then all shifts advance together.

On a deterministic table the GSS degenerates to a single chain and the
engine is observationally identical to the LALR engine: same trees, same
error strings/positions/expected sets (via the shared
:func:`~repro.parser.errors.syntax_error` formatter), same ``max_tokens``
budget behaviour.  That parity is pinned corpus-wide by
tests/test_glr.py and the ``glr-parity`` fuzz oracle; on conflicted
grammars the oracle cross-checks GLR recognition against the CYK
ground truth instead.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from ..core import instrument
from ..grammar.grammar import Grammar
from ..grammar.production import Production
from ..grammar.symbols import Symbol
from ..tables.nondet import NondeterministicTable, nondet_view
from .engine import Token, TokenLike, resolve_token
from .errors import ParseError, syntax_error
from .tree import Node

__all__ = ["GlrParser", "ParseForest", "SppfNode"]


class SppfNode:
    """One shared-packed-parse-forest node: *symbol* over [start, end).

    Terminal nodes carry the token's semantic ``value`` and have no
    families; nonterminal nodes pack one (production, children) family
    per distinct derivation — more than one family = local ambiguity.
    """

    __slots__ = ("symbol", "start", "end", "value", "families", "_family_keys")

    def __init__(self, symbol: Symbol, start: int, end: int, value=None):
        self.symbol = symbol
        self.start = start
        self.end = end
        self.value = value
        self.families: "List[Tuple[Production, tuple]]" = []
        #: (production index, children) of every family, once there are
        #: two; nodes hash by identity, so equal keys mean the same
        #: children objects.
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
            keys = self._family_keys = {(first.index, first_children)}
        key = (production.index, children)
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
    """

    def __init__(self, root: "Optional[SppfNode]", grammar: Grammar,
                 token_count: int, stats: "Optional[Dict[str, int]]" = None):
        self.root = root
        self.grammar = grammar
        self.token_count = token_count
        self.stats: "Dict[str, int]" = dict(stats or {})

    def trees(self, limit: int = 1000) -> "List[Node]":
        """Up to *limit* derivation trees, in packing (discovery) order."""
        if self.root is None:
            return []
        trees = _tree_list(self.root, {}, set(), limit)
        return trees if trees is not None else []

    def tree(self) -> Node:
        """The first derivation tree — *the* tree when unambiguous."""
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
        count = _tree_count(self.root, {}, set(), limit)
        return count if count is not None else 0

    @property
    def is_ambiguous(self) -> bool:
        return self.tree_count(limit=2) > 1


def _tree_list(node: SppfNode, memo: dict, on_path: set, limit: int):
    """All (up to *limit*) trees rooted at *node*; None = cycle guard hit."""
    key = id(node)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if not node.families:
        leaves = [Node(node.symbol, value=node.value)]
        memo[key] = leaves
        return leaves
    if key in on_path:
        return None
    on_path.add(key)
    out: "List[Node]" = []
    clean = True
    for production, children in node.families:
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


def _tree_count(node: SppfNode, memo: dict, on_path: set, limit: int):
    """``len(_tree_list(node, ...))`` without the trees: the same walk,
    memo, cycle guard, truncation points and "clean" rule, over
    saturating integers instead of lists.  None = cycle guard hit."""
    key = id(node)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if not node.families:
        memo[key] = 1
        return 1
    if key in on_path:
        return None
    on_path.add(key)
    total = 0
    clean = True
    for _production, children in node.families:
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
        arities = view.arities
        lhs_nts = view.lhs_nts
        goto_codes = view.goto_codes
        productions = grammar.productions
        eof_tid = self._eof_tid
        tok_cache = self._tok_cache

        #: (symbol sid, start, end) -> the interned SPPF node.
        sppf: "Dict[Tuple[int, int, int], SppfNode]" = {}
        #: state -> GSS node for the current input level.
        frontier: "Dict[int, _GssNode]" = {0: _GssNode(0, 0)}
        #: (GSS node, production index, first edge or None); empty
        #: between input levels.
        worklist: deque = deque()
        push = worklist.append
        pop = worklist.popleft

        stream = iter(tokens)
        eof_token = Token(self._eof, None)
        position = 0
        gss_nodes = 1
        gss_edges = sppf_nodes = sppf_families = 0
        reductions = shifts = worklist_pops = 0

        try:
            raw = next(stream)
        except StopIteration:
            token, tid = eof_token, eof_tid
        else:
            token, tid = resolve_token(grammar, tok_cache, raw, position)

        try:
            while True:
                # ---- reducer: apply every reduction visible under `tid` ----
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
                        key = (lhs_sid, base.level, position)
                        packed = sppf.get(key)
                        if packed is None:
                            packed = sppf[key] = SppfNode(
                                production.lhs, base.level, position
                            )
                            sppf_nodes += 1
                        if packed.add_family(production, children):
                            sppf_families += 1
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
                leaf = SppfNode(
                    token.symbol, position, position + 1, value=token.value
                )
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
                try:
                    raw = next(stream)
                except StopIteration:
                    token, tid = eof_token, eof_tid
                else:
                    token, tid = resolve_token(grammar, tok_cache, raw, position)
        finally:
            stats = {
                "gss_nodes": gss_nodes,
                "gss_edges": gss_edges,
                "sppf_nodes": sppf_nodes,
                "sppf_families": sppf_families,
                "reductions": reductions,
                "shifts": shifts,
                "worklist_pops": worklist_pops,
            }
            if budget is not None:
                budget.publish()
            if instrument.enabled():
                instrument.count("glr.tokens", position)
                for name, value in stats.items():
                    instrument.count(f"glr.{name}", value)
        start_sid = self._ids.sid_or_none(grammar.original_start)
        return ParseForest(sppf.get((start_sid, 0, position)), grammar, position, stats)

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
