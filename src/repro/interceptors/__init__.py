"""``repro.interceptors`` — on-path DNS interception middleboxes.

ISP middleboxes and beyond-AS transit interceptors, configured by
policies covering every behaviour the pilot study observed: redirect,
block, drop, replicate; all resolvers, a subset, or all-but-one; IPv4,
IPv6, or both.
"""

from .encrypted import (
    EncryptedAction,
    EncryptedDnsPolicy,
    EncryptedQuery,
    PASS_THROUGH,
    downgrade_all,
    parse_encrypted_query,
    wrap_encrypted_response,
)
from .middlebox import ExternalInterceptor, MiddleboxRouter
from .policy import (
    InterceptMode,
    InterceptionPolicy,
    allow_only,
    intercept_all,
    intercept_only,
)

__all__ = [
    "ExternalInterceptor",
    "MiddleboxRouter",
    "InterceptMode",
    "InterceptionPolicy",
    "allow_only",
    "intercept_all",
    "intercept_only",
    "EncryptedAction",
    "EncryptedDnsPolicy",
    "EncryptedQuery",
    "PASS_THROUGH",
    "downgrade_all",
    "parse_encrypted_query",
    "wrap_encrypted_response",
]
