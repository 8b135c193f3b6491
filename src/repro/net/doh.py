"""DNS-over-HTTPS framing for the simulator (RFC 8484, abstracted).

DoH rides HTTP/2 inside TLS on port 443. The simulator keeps the two
properties an on-path interceptor can act on and a client can verify:

- the **server name the client dialed** (the TLS SNI / ``:authority``
  pseudo-header) travels in the request frame, so a middlebox can match
  per-SNI — the only per-flow signal DoH leaks, since the port is shared
  with all other HTTPS traffic;
- the **certificate identity the server presented** travels in the
  response frame, so the client can detect a terminating proxy exactly
  as with DoT.

Both RFC 8484 wire shapes are modelled: ``GET`` carries the DNS message
base64url-encoded without padding (the ``?dns=`` query parameter) and
``POST`` carries the raw ``application/dns-message`` bytes. Responses
carry an HTTP status next to the DNS payload.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Optional

from .stream import pack_identity, unpack_identity

#: HTTPS port (RFC 8484: DoH is indistinguishable from other HTTPS).
DOH_PORT = 443

_MAGIC = b"DoH1"
_METHODS = {"GET": ord("G"), "POST": ord("P")}
_METHOD_BYTES = {v: k for k, v in _METHODS.items()}
#: Marker byte distinguishing response frames from request frames.
_RESPONSE = ord("R")


def _b64url_encode(payload: bytes) -> bytes:
    return base64.urlsafe_b64encode(payload).rstrip(b"=")


def _b64url_decode(data: bytes) -> Optional[bytes]:
    pad = -len(data) % 4
    try:
        return base64.urlsafe_b64decode(data + b"=" * pad)
    except (ValueError, TypeError):
        return None


@dataclass(frozen=True)
class DohRequest:
    """One DoH request: dialed authority, HTTP method, DNS query bytes."""

    authority: str
    method: str
    dns_payload: bytes

    def encode(self) -> bytes:
        method = _METHODS.get(self.method)
        if method is None:
            raise ValueError(f"unknown DoH method {self.method!r}")
        body = (
            _b64url_encode(self.dns_payload)
            if self.method == "GET"
            else self.dns_payload
        )
        return _MAGIC + bytes([method]) + pack_identity(self.authority) + body


@dataclass(frozen=True)
class DohResponse:
    """One DoH response: certificate identity, HTTP status, DNS bytes."""

    server_identity: str
    status: int
    dns_payload: bytes

    def encode(self) -> bytes:
        if not 100 <= self.status <= 599:
            raise ValueError(f"implausible HTTP status {self.status}")
        return (
            _MAGIC
            + bytes([_RESPONSE])
            + self.status.to_bytes(2, "big")
            + pack_identity(self.server_identity)
            + self.dns_payload
        )


def wrap_doh_query(dns_payload: bytes, authority: str, method: str = "POST") -> bytes:
    """Frame ``dns_payload`` as a DoH request to ``authority``."""
    return DohRequest(authority, method, dns_payload).encode()


def wrap_doh_response(dns_payload: bytes, server_identity: str, status: int = 200) -> bytes:
    """Frame ``dns_payload`` as a DoH response served by ``server_identity``."""
    return DohResponse(server_identity, status, dns_payload).encode()


def unwrap_doh_query(data: bytes) -> Optional[DohRequest]:
    """Parse a DoH request frame; None if ``data`` is not one.

    The GET body is base64url-decoded here, so ``dns_payload`` is always
    raw DNS wire regardless of method.
    """
    if len(data) < len(_MAGIC) + 1 or not data.startswith(_MAGIC):
        return None
    method = _METHOD_BYTES.get(data[len(_MAGIC)])
    if method is None:
        return None
    unpacked = unpack_identity(data, len(_MAGIC) + 1)
    if unpacked is None:
        return None
    authority, start = unpacked
    body = data[start:]
    if method == "GET":
        decoded = _b64url_decode(body)
        if decoded is None:
            return None
        body = decoded
    return DohRequest(authority, method, body)


def unwrap_doh_response(data: bytes) -> Optional[DohResponse]:
    """Parse a DoH response frame; None if ``data`` is not one."""
    if len(data) < len(_MAGIC) + 3 or not data.startswith(_MAGIC):
        return None
    if data[len(_MAGIC)] != _RESPONSE:
        return None
    status = int.from_bytes(data[len(_MAGIC) + 1 : len(_MAGIC) + 3], "big")
    unpacked = unpack_identity(data, len(_MAGIC) + 3)
    if unpacked is None:
        return None
    identity, start = unpacked
    return DohResponse(identity, status, data[start:])
