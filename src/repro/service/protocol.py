"""Minimal HTTP/1.1 framing over asyncio streams — stdlib only.

The grammar service deliberately does not pull in a web framework: its
request surface is six JSON endpoints, and the whole point of the
serving layer is that the *pipeline* stays the hot path.  This module is
the thin wire layer: parse one request from a stream, render one
response back, keep-alive until the client closes.

Determinism matters here.  Every JSON body the service emits goes
through :func:`canonical_json` — sorted keys, fixed separators, a
trailing newline — so a response is a *pure function of the result
dict*.  The corpus functional suite leans on that: it recomputes the
result dict through the pipeline directly and asserts the service's
bytes are identical.

Limits: request bodies are capped at :data:`MAX_BODY_BYTES` (8 MiB —
grammars are small; corpora of them are submitted as jobs, not one
giant body) and header blocks at the stream reader's 64 KiB default.
Violations, like any malformed framing, raise :class:`ProtocolError`
and the connection is answered with a 400 and closed.
"""

from __future__ import annotations

import json
from http import HTTPStatus
from typing import Dict, Optional
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "HttpError",
    "MAX_BODY_BYTES",
    "ProtocolError",
    "Request",
    "Response",
    "canonical_json",
    "read_request",
]

#: Largest request body accepted (grammars are text; keep DoS margin).
MAX_BODY_BYTES = 8 * 1024 * 1024


class ProtocolError(Exception):
    """The client sent something that is not a well-formed request."""


class HttpError(Exception):
    """A typed application-level failure, rendered as a JSON body.

    Attributes:
        status: The HTTP status code.
        code: Machine-readable error slug (``"grammar_error"``, ...).
        detail: Human-readable one-liner.
    """

    def __init__(self, status: int, code: str, detail: str):
        self.status = status
        self.code = code
        self.detail = detail
        super().__init__(f"{status} {code}: {detail}")

    def body(self) -> Dict[str, str]:
        return {"error": self.code, "detail": self.detail}


def canonical_json(payload: object) -> bytes:
    """The one JSON serialisation the service ever emits: sorted keys,
    compact separators, trailing newline.  Bit-identical responses are a
    tested contract, so there is exactly one recipe."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "target", "path", "query", "headers", "body")

    def __init__(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
    ):
        self.method = method
        self.target = target
        split = urlsplit(target)
        self.path = split.path
        self.query = dict(parse_qsl(split.query))
        self.headers = headers
        self.body = body

    def json(self) -> object:
        """The request body as JSON (empty body reads as ``{}``)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise HttpError(400, "bad_json", f"request body is not JSON: {error}")

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


class Response:
    """One response ready to encode onto the wire."""

    __slots__ = ("status", "body", "content_type", "headers")

    def __init__(
        self,
        status: int = 200,
        body: bytes = b"",
        content_type: str = "application/json",
        headers: "Optional[Dict[str, str]]" = None,
    ):
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = dict(headers or {})

    @classmethod
    def json(
        cls,
        payload: object,
        status: int = 200,
        headers: "Optional[Dict[str, str]]" = None,
    ) -> "Response":
        return cls(status, canonical_json(payload), "application/json", headers)

    @classmethod
    def text(cls, text: str, status: int = 200) -> "Response":
        return cls(status, text.encode("utf-8"), "text/plain; charset=utf-8")

    def encode(self, keep_alive: bool = True) -> bytes:
        try:
            phrase = HTTPStatus(self.status).phrase
        except ValueError:
            phrase = ""
        lines = [
            f"HTTP/1.1 {self.status} {phrase}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


async def read_request(reader: asyncio.StreamReader) -> "Optional[Request]":
    """Parse one request off *reader*; None on a clean end-of-stream.

    Raises ProtocolError for malformed framing (bad request line,
    non-numeric Content-Length, over-long headers or body, truncation
    mid-request).
    """
    import asyncio  # here, so the pure result functions never load it

    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection closed mid-request")
    except asyncio.LimitOverrunError:
        raise ProtocolError("header block too large")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line: {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ProtocolError(f"bad Content-Length: {length_text!r}")
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(f"unacceptable Content-Length: {length}")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError("connection closed mid-body")
    return Request(method, target, headers, body)
