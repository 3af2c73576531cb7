"""The RNGLR engine — generalized LR parsing over conflicted tables.

Where the deterministic engine (:mod:`repro.parser.engine`) follows the
single action a :class:`~repro.tables.table.ParseTable` keeps per cell,
this engine runs off the :class:`~repro.tables.nondet
.NondeterministicTable` view, which keeps *every* competing action of an
unresolved conflict, and reads GOTO from the same table's
``goto_codes``.  Nondeterminism is handled the Tomita/RNGLR way:

- a **graph-structured stack** (GSS): parse stacks that share a suffix
  share the GSS nodes for it, so the worst case stays polynomial where
  naive stack-copying explodes.  Nodes are keyed (state, input level);
  edges point from newer to older nodes and are labelled with the SPPF
  node for the symbol that was pushed;
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
from .engine import Token, TokenLike, normalise_token
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
        self._family_keys: set = set()

    def add_family(self, production: Production, children: tuple) -> bool:
        """Pack one derivation; False if it was already packed."""
        key = (production.index, tuple(id(child) for child in children))
        if key in self._family_keys:
            return False
        self._family_keys.add(key)
        self.families.append((production, children))
        return True

    @property
    def is_ambiguous(self) -> bool:
        return len(self.families) > 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SppfNode({self.symbol.name}, {self.start}..{self.end}, "
            f"{len(self.families)} families)"
        )


class _GssEdge:
    """One GSS edge: the SPPF node for the pushed symbol + the older node."""

    __slots__ = ("label", "target")

    def __init__(self, label: SppfNode, target: "_GssNode"):
        self.label = label
        self.target = target


class _GssNode:
    """One graph-structured-stack node: (parser state, input level).

    ``has_level_parents`` records whether some *same-level* node holds an
    edge into this one — the trigger for the conservative Farshi re-run
    when this node later gains a new edge (a path from another stack top
    may thread through it).
    """

    __slots__ = ("state", "level", "edges", "has_level_parents")

    def __init__(self, state: int, level: int):
        self.state = state
        self.level = level
        self.edges: "List[_GssEdge]" = []
        self.has_level_parents = False


class ParseForest:
    """The SPPF for one accepted input, plus run statistics.

    ``trees()`` / ``tree()`` / ``tree_count()`` enumerate derivations by
    expanding families depth-first.  Enumeration is *saturating*: at most
    ``limit`` trees are materialised (ambiguity can be exponential in the
    input, and cyclic grammars derive infinitely many trees — cyclic
    expansions are skipped, so counts cover the finite derivations only).
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
        """How many distinct derivation trees, saturating at *limit*."""
        return len(self.trees(limit=limit))

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
        ids = self._ids
        sid_or_none = ids.sid_or_none
        num_terminals = ids.num_terminals
        rows = self.view.rows
        goto_codes = self.table.goto_codes
        n_nts = ids.num_nonterminals
        productions = grammar.productions
        eof_tid = self._eof_tid

        #: (symbol sid, start, end) -> the interned SPPF node.
        sppf: "Dict[Tuple[int, int, int], SppfNode]" = {}
        root = _GssNode(0, 0)
        #: state -> GSS node for the current input level.
        frontier: "Dict[int, _GssNode]" = {0: root}

        stream = iter(tokens)
        eof_token = Token(self._eof, None)
        position = 0
        stats = {
            "gss_nodes": 1,
            "gss_edges": 0,
            "sppf_nodes": 0,
            "sppf_families": 0,
            "reductions": 0,
            "shifts": 0,
            "worklist_pops": 0,
        }

        try:
            raw = next(stream)
        except StopIteration:
            token, tid = eof_token, eof_tid
        else:
            token = normalise_token(grammar, raw, position)
            tid = sid_or_none(token.symbol)

        try:
            while True:
                # ---- reducer: apply every reduction visible under `tid` ----
                worklist: deque = deque()
                if tid is not None:
                    for node in frontier.values():
                        for action in rows[node.state][tid]:
                            if action.kind == "reduce":
                                worklist.append((node, action.production, None))
                while worklist:
                    if budget is not None:
                        budget.charge_parse_step()
                    stats["worklist_pops"] += 1
                    node, prod_index, first_edge = worklist.popleft()
                    production = productions[prod_index]
                    arity = len(production.rhs_sids)
                    lhs_nt = production.lhs_sid - num_terminals
                    paths: "List[Tuple[_GssNode, tuple]]" = []
                    if arity == 0:
                        paths.append((node, ()))
                    elif first_edge is not None:
                        _collect_paths(
                            first_edge.target, arity - 1,
                            (first_edge.label,), paths,
                        )
                    else:
                        _collect_paths(node, arity, (), paths)
                    for base, labels_down in paths:
                        goto = goto_codes[base.state * n_nts + lhs_nt]
                        if goto < 0:
                            # A losing GSS branch can reduce to a symbol its
                            # base state has no transition for; the branch
                            # simply dies (only *all* branches dying is a
                            # syntax error, detected at shift time).
                            continue
                        key = (production.lhs_sid, base.level, position)
                        packed = sppf.get(key)
                        if packed is None:
                            packed = SppfNode(production.lhs, base.level, position)
                            sppf[key] = packed
                            stats["sppf_nodes"] += 1
                        # Edges are walked top-down, so the collected
                        # labels are the rhs reversed.
                        if packed.add_family(
                            production, tuple(reversed(labels_down))
                        ):
                            stats["sppf_families"] += 1
                        stats["reductions"] += 1
                        target = frontier.get(goto)
                        if target is None:
                            target = _GssNode(goto, position)
                            frontier[goto] = target
                            stats["gss_nodes"] += 1
                            target.edges.append(_GssEdge(packed, base))
                            stats["gss_edges"] += 1
                            if base.level == position:
                                base.has_level_parents = True
                            for action in rows[goto][tid]:
                                if action.kind == "reduce":
                                    worklist.append(
                                        (target, action.production, None)
                                    )
                            continue
                        if any(
                            edge.label is packed and edge.target is base
                            for edge in target.edges
                        ):
                            continue  # already explored through this edge
                        new_edge = _GssEdge(packed, base)
                        target.edges.append(new_edge)
                        stats["gss_edges"] += 1
                        if base.level == position:
                            base.has_level_parents = True
                        # The node was already processed: re-run the
                        # reductions the new edge opens up (Farshi).  When
                        # same-level parents exist, a path from *another*
                        # stack top may thread through the new edge, so
                        # conservatively re-run every frontier node; edge
                        # and family dedup make the re-run idempotent.
                        if target.has_level_parents:
                            for renode in list(frontier.values()):
                                for action in rows[renode.state][tid]:
                                    if (
                                        action.kind == "reduce"
                                        and productions[action.production].rhs_sids
                                    ):
                                        worklist.append(
                                            (renode, action.production, None)
                                        )
                        else:
                            for action in rows[target.state][tid]:
                                if (
                                    action.kind == "reduce"
                                    and productions[action.production].rhs_sids
                                ):
                                    worklist.append(
                                        (target, action.production, new_edge)
                                    )

                # ---- accept -------------------------------------------------
                if tid == eof_tid:
                    accepted = any(
                        action.kind == "accept"
                        for node in frontier.values()
                        for action in rows[node.state][tid]
                    )
                    if accepted:
                        start_sid = sid_or_none(grammar.original_start)
                        forest_root = sppf.get((start_sid, 0, position))
                        return ParseForest(
                            forest_root, grammar, position, stats
                        )
                    raise self._syntax_error(position, token, frontier, tid)

                # ---- shifter: every branch advances over the token ----------
                shift_edges: "List[Tuple[_GssNode, int]]" = []
                if tid is not None:
                    for node in frontier.values():
                        for action in rows[node.state][tid]:
                            if action.kind == "shift":
                                shift_edges.append((node, action.state))
                if not shift_edges:
                    raise self._syntax_error(position, token, frontier, tid)
                if budget is not None:
                    budget.charge_tokens(1)
                leaf = SppfNode(
                    token.symbol, position, position + 1, value=token.value
                )
                stats["sppf_nodes"] += 1
                next_frontier: "Dict[int, _GssNode]" = {}
                for base, state in shift_edges:
                    if budget is not None:
                        budget.charge_parse_step()
                    target = next_frontier.get(state)
                    if target is None:
                        target = _GssNode(state, position + 1)
                        next_frontier[state] = target
                        stats["gss_nodes"] += 1
                    target.edges.append(_GssEdge(leaf, base))
                    stats["gss_edges"] += 1
                    stats["shifts"] += 1
                frontier = next_frontier
                position += 1
                try:
                    raw = next(stream)
                except StopIteration:
                    token, tid = eof_token, eof_tid
                else:
                    token = normalise_token(grammar, raw, position)
                    tid = sid_or_none(token.symbol)
        finally:
            if budget is not None:
                budget.publish()
            if instrument.enabled():
                instrument.count("glr.tokens", position)
                for name, value in stats.items():
                    instrument.count(f"glr.{name}", value)

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
    node: _GssNode, remaining: int, acc: tuple, out: list
) -> None:
    """Every GSS path of *remaining* more edges from *node*, collected as
    (base node, labels walked top-down)."""
    if remaining == 0:
        out.append((node, acc))
        return
    for edge in node.edges:
        _collect_paths(edge.target, remaining - 1, acc + (edge.label,), out)
