"""repro.service — the async HTTP front-end over the pipeline.

The serving layer is shells over pure functions: HTTP handlers parse
payloads, call :func:`compile_result` / :func:`analyze_result` /
:func:`parse_result` / :func:`fuzz_result`, and serialise the result
dicts canonically — so a served response is bit-identical to calling
the pipeline directly (a tested contract).  See ALGORITHM.md §16.

Every export is loaded on first use, so ``repro parse`` calls
:func:`parse_result` without loading the server or asyncio.
"""

from importlib import import_module

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "BUDGET_HEADERS": "qos",
    "Client": "server",
    "ClientResponse": "server",
    "GrammarService": "app",
    "HttpError": "protocol",
    "MetricsRegistry": "metrics",
    "Request": "protocol",
    "Response": "protocol",
    "ServiceThread": "server",
    "WorkerCrash": "pool",
    "WorkerPool": "pool",
    "analyze_result": "app",
    "batch_result": "app",
    "budget_from_headers": "qos",
    "canonical_json": "protocol",
    "compile_result": "app",
    "fork_available": "pool",
    "fuzz_result": "app",
    "parse_result": "app",
    "run_server": "server",
    "serve_forever": "server",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
