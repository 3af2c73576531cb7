"""The LR shift-reduce parsing engine.

Drives any :class:`~repro.tables.table.ParseTable` — LR(0), SLR(1),
LALR(1) or CLR(1), built fresh or loaded from an artifact — over a token
stream.  The engine is the consumer that makes look-ahead quality
*observable*: identical code, different tables, and only the reduce
decisions differ.

There is one token loop.  :class:`Parser` runs it over the table's code
arrays, copied once per table object into the lists of
:class:`~repro.tables.specialize.SpecializedTable`, and dispatches on
``code & 3``; reduce→goto chains are fused, and states whose rows reduce
identically on every terminal skip the look-ahead lookup.  The
independent references it is tested against are the RNGLR engine
(:mod:`repro.parser.glr`) on the same table and CYK.

Tokens may be given as :class:`~repro.grammar.symbols.Symbol` objects, as
terminal name strings, or as :class:`Token` (symbol + semantic value).
The end marker must *not* be included; the engine appends it.

Semantic actions: ``parse()`` builds a :class:`~repro.parser.tree.Node`
tree; ``parse_with_actions()`` instead folds a callback over reductions,
which is how the calculator example evaluates on the fly; ``check()``
recognizes only — the same loop with constant callbacks, so it raises the
same errors at the same step but allocates no tree.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, NamedTuple, Sequence, Union

from ..core import instrument
from ..grammar.grammar import Grammar
from ..grammar.production import Production
from ..grammar.symbols import Symbol
from ..tables.specialize import specialized_view
from ..tables.table import ParseTable
from .errors import ConflictedTableError, ParseError, syntax_error
from .tree import Node


class Token(NamedTuple):
    """A terminal plus its semantic value (e.g. NUM with value 42)."""

    symbol: Symbol
    value: object = None


TokenLike = Union[Token, Symbol, str]


def _no_semantic_value(production, children):
    """The recognition-only reduce callback (:meth:`Parser.check`)."""
    return None


def _no_leaf_value(token):
    """The recognition-only shift callback (:meth:`Parser.check`)."""
    return None


def not_a_terminal_error(name: str, position: int) -> ParseError:
    """The engine-standard error for a nonterminal Symbol in the input."""
    return ParseError(
        f"token at position {position} is the nonterminal {name!r}; "
        f"only terminals can appear in the input",
        position,
        None,
        state=-1,
        expected=[],
    )


def normalise_token(grammar: Grammar, token: TokenLike, position: int) -> Token:
    """*token* (Token | Symbol | terminal name) as a :class:`Token`.

    Shared by the deterministic engine and the GLR engine so both reject
    malformed input — nonterminal Symbols, unknown terminal names — with
    byte-identical diagnostics.
    """
    if isinstance(token, Token):
        if token.symbol.is_nonterminal:
            raise not_a_terminal_error(token.symbol.name, position)
        return token
    if isinstance(token, Symbol):
        if token.is_nonterminal:
            raise not_a_terminal_error(token.name, position)
        return Token(token, token.name)
    if isinstance(token, str):
        symbol = grammar.symbols.get(token)
        if symbol is None or symbol.is_nonterminal:
            raise ParseError(
                f"unknown terminal {token!r} at position {position}",
                position,
                None,
                state=-1,
                expected=[],
            )
        return Token(symbol, token)
    raise TypeError(f"cannot interpret token {token!r}")


class Parser:
    """An LR parser for one grammar/table pair.

    Tables with unresolved conflicts are refused by default: parsing one
    deterministically silently commits to the yacc-default winners, so a
    caller must opt in with ``allow_conflicts=True`` (counted via the
    ``parser.conflicted_table`` instrument counter) — or drive the table
    with :class:`repro.parser.glr.GlrParser`, which explores every
    conflicted action instead of picking one.
    """

    def __init__(self, table: ParseTable, allow_conflicts: bool = False):
        # The list view drives the loop; a SpecializedTable argument
        # resolves to its source table.
        self._compiled = specialized_view(table)
        self.table = table = self._compiled.source
        self.grammar: Grammar = table.grammar
        if not self.grammar.is_augmented:
            raise ValueError("parse tables must be built over an augmented grammar")
        unresolved = table.unresolved_conflicts
        if unresolved:
            if not allow_conflicts:
                first = unresolved[0]
                raise ConflictedTableError(
                    f"table for {self.grammar.name!r} has {len(unresolved)} "
                    f"unresolved conflict(s); first: "
                    f"{first.describe(self.grammar)}.  The deterministic "
                    f"engine would silently parse with the yacc-default "
                    f"winners — pass allow_conflicts=True to opt in, or use "
                    f"the GLR engine (repro.parser.glr.GlrParser, "
                    f"`repro parse --engine glr`) to explore every action",
                    unresolved,
                )
            instrument.count("parser.conflicted_table")
        self._eof = self.grammar.eof
        # The loop works in the grammar's integer ID layout: tokens are
        # mapped to terminal IDs once each, then every ACTION/GOTO
        # lookup is a flat list index (no Symbol hashing per action).
        self._ids = self.grammar.ids
        self._eof_tid = self._ids.terminal_id(self._eof)
        # Name-string tokens resolve to the same (Token, tid) pair every
        # time; the loop memoizes that resolution.  Only
        # successful resolutions are cached, so unknown-terminal and
        # nonterminal-name errors still take _normalise's path verbatim.
        self._tok_cache: dict = {}

    # -- public API ---------------------------------------------------

    def parse(self, tokens: Iterable[TokenLike], budget=None) -> Node:
        """Parse *tokens* and return the parse tree rooted at the user's
        start symbol.  Raises ParseError on invalid input.

        A *budget* (:class:`repro.core.budget.Budget`) bounds the parse:
        ``max_tokens`` caps input consumed (the guard for unbounded
        streams), ``max_parse_steps`` caps actions, and a ``timeout``
        bounds wall-clock time; exhaustion raises
        :class:`~repro.core.budget.BudgetExceeded`.
        """

        def build(production: Production, children: Sequence[Node]) -> Node:
            return Node(production.lhs, list(children), production=production)

        def leaf(token: Token) -> Node:
            return Node(token.symbol, value=token.value)

        return self._run(tokens, reduce_fn=build, shift_fn=leaf, budget=budget)

    def parse_with_actions(
        self,
        tokens: Iterable[TokenLike],
        reduce_fn: Callable[[Production, Sequence[object]], object],
        shift_fn: "Callable[[Token], object] | None" = None,
        budget=None,
    ) -> object:
        """Parse, folding *reduce_fn* over reductions (syntax-directed
        translation).  *shift_fn* maps a token to its initial semantic
        value (defaults to the token's own value)."""
        if shift_fn is None:
            shift_fn = lambda token: token.value
        return self._run(tokens, reduce_fn=reduce_fn, shift_fn=shift_fn, budget=budget)

    def check(self, tokens: Iterable[TokenLike], budget=None) -> None:
        """Recognize *tokens* without building a tree.

        Runs the engine with constant semantic callbacks, so no parse tree
        is allocated; raises exactly what :meth:`parse` raises
        (``ParseError`` on invalid input, ``BudgetExceeded`` at the same
        step under the same *budget*)."""
        self._run(
            tokens,
            reduce_fn=_no_semantic_value,
            shift_fn=_no_leaf_value,
            budget=budget,
        )

    def accepts(self, tokens: Iterable[TokenLike], budget=None) -> bool:
        """True iff *tokens* is a sentence of the grammar (:meth:`check`
        without the diagnostics)."""
        try:
            self.check(tokens, budget=budget)
        except ParseError:
            return False
        return True

    def trace(self, tokens: Iterable[TokenLike], budget=None) -> List[str]:
        """Parse while recording one line per action — a teaching aid and
        the fixture for the engine's unit tests."""
        log: List[str] = []

        def build(production: Production, children: Sequence[object]) -> object:
            log.append(f"reduce {production}")
            return None

        def leaf(token: Token) -> object:
            log.append(f"shift {token.symbol.name}")
            return None

        self._run(tokens, reduce_fn=build, shift_fn=leaf, budget=budget)
        log.append("accept")
        return log

    # -- engine ---------------------------------------------------------

    def _normalise(self, token: TokenLike, position: int) -> Token:
        return normalise_token(self.grammar, token, position)

    def _run(
        self,
        tokens: Iterable[TokenLike],
        reduce_fn: Callable[[Production, Sequence[object]], object],
        shift_fn: Callable[[Token], object],
        budget=None,
    ) -> object:
        """The token loop over the compiled integer table.

        Dispatch is ``code & 3`` over flat local-variable-bound lists,
        reduce→goto chains are fused into the inner loop, and states whose
        rows reduce identically on every terminal skip the look-ahead
        consultation entirely (``default_codes``).  Every action — fused
        or not — charges one parse step and every shift one token, so
        fusion never moves a budget exhaustion point.
        """
        with instrument.span("parse.run"):
            if budget is not None:
                budget.enter_phase("parse")
            compiled = self._compiled
            state_stack: List[int] = [0]
            value_stack: List[object] = []

            sid_or_none = self._ids.sid_or_none
            normalise = self._normalise
            tok_cache = self._tok_cache
            tok_cache_get = tok_cache.get
            width = compiled.num_terminals
            n_nts = compiled.num_nonterminals
            action_codes = compiled.action_codes
            goto_codes = compiled.goto_codes
            default_codes = compiled.default_codes
            arities = compiled.arities
            lhs_nts = compiled.lhs_nts
            productions = self.grammar.productions

            # Pull tokens lazily: the stream may be an unbounded generator,
            # so peak memory must stay O(parse stack), never O(input length).
            stream = iter(tokens)
            eof_token = Token(self._eof, None)
            eof_tid = self._eof_tid
            position = 0
            shifts = 0
            reduces = 0
            state = 0

            try:
                raw = next(stream)
            except StopIteration:
                token, tid = eof_token, eof_tid
            else:
                entry = tok_cache_get(raw) if type(raw) is str else None
                if entry is not None:
                    token, tid = entry
                else:
                    token = normalise(raw, position)
                    # None for symbols outside this grammar: the loop
                    # then takes the ordinary syntax-error path.
                    tid = sid_or_none(token.symbol)
                    if type(raw) is str:
                        tok_cache[raw] = (token, tid)

            try:
                while True:
                    if budget is not None:
                        budget.charge_parse_step()
                    if tid is None:
                        raise self._syntax_error(position, token, state)
                    code = action_codes[state * width + tid]
                    while (code & 3) == 2:
                        # Fused reduce→goto chain: keep reducing without
                        # bouncing through the outer dispatch.
                        prod_index = code >> 2
                        arity = arities[prod_index]
                        if arity:
                            children = value_stack[-arity:]
                            del value_stack[-arity:]
                            del state_stack[-arity:]
                        else:
                            children = []
                        value_stack.append(reduce_fn(productions[prod_index], children))
                        state = goto_codes[state_stack[-1] * n_nts + lhs_nts[prod_index]]
                        if state < 0:  # pragma: no cover - tables are consistent
                            raise self._syntax_error(position, token, state_stack[-1])
                        state_stack.append(state)
                        reduces += 1
                        if budget is not None:
                            budget.charge_parse_step()
                        # tid cannot be None here: it only changes on shift,
                        # and the outer dispatch already rejected None.
                        code = default_codes[state]
                        if code < 0:
                            code = action_codes[state * width + tid]
                    if code & 1:
                        if code == 3:
                            # accept
                            if tid != eof_tid:  # pragma: no cover - table invariant
                                raise self._syntax_error(position, token, state)
                            if len(value_stack) != 1:  # pragma: no cover - table invariant
                                raise ParseError(
                                    "internal error: value stack not a singleton at accept",
                                    position,
                                    token.symbol,
                                    state,
                                    [],
                                )
                            return value_stack[0]
                        # shift
                        value_stack.append(shift_fn(token))
                        state = code >> 2
                        state_stack.append(state)
                        position += 1
                        shifts += 1
                        if budget is not None:
                            budget.charge_tokens(1)
                        try:
                            raw = next(stream)
                        except StopIteration:
                            token, tid = eof_token, eof_tid
                        else:
                            entry = tok_cache_get(raw) if type(raw) is str else None
                            if entry is not None:
                                token, tid = entry
                            else:
                                token = normalise(raw, position)
                                tid = sid_or_none(token.symbol)
                                if type(raw) is str:
                                    tok_cache[raw] = (token, tid)
                        continue
                    # code == 0: error cell
                    raise self._syntax_error(position, token, state)
            finally:
                if budget is not None:
                    budget.publish()
                if instrument.enabled():
                    instrument.count("parse.tokens", position)
                    instrument.count("parse.shifts", shifts)
                    instrument.count("parse.reduces", reduces)
                    instrument.count("parse.actions", shifts + reduces)

    def _syntax_error(self, position: int, token: Token, state: int) -> ParseError:
        compiled = self._compiled
        width = compiled.num_terminals
        codes = compiled.action_codes
        base = state * width
        by_sid = self._ids.by_sid
        expected = sorted(
            (by_sid[tid] for tid in range(width) if codes[base + tid]),
            key=lambda s: s.name,
        )
        # The end marker is an augmentation artifact; the shared formatter
        # spells it the same way the offending-token text does instead of
        # leaking "$end".  Generated standalone parsers and the GLR engine
        # render identically (parity-tested).
        return syntax_error(position, token.symbol, state, expected, self._eof)
