"""Servers share answer templates only when nothing ``respond`` reads differs.

A :class:`~repro.atlas.scenario.ScenarioCache` lends every resolver the
answer templates of its :meth:`~repro.resolvers.base.DnsServerNode.answer_identity`:
the server's class and every attribute but those on
``NOT_ANSWER_IDENTITY``. Two servers with equal identities replay each
other's answers, so the identity must follow every attribute a server
may answer from, a new one included.
"""

import pytest

from repro.resolvers import (
    DnsServerNode,
    Provider,
    PublicResolverNode,
    RecursiveResolverNode,
    build_default_directory,
)
from repro.resolvers.software import bind_redhat, unbound


#: The directory is part of a server's identity (by object): servers
#: built over one directory may share templates.
DIRECTORY = build_default_directory()


def _servers(directory=DIRECTORY):
    """One configured instance of every server class, every optional
    attribute set."""
    return [
        DnsServerNode("plain", ["192.0.2.53"], software=unbound(), asn=64500),
        PublicResolverNode(Provider.GOOGLE, directory),
        RecursiveResolverNode(
            "isp-resolver",
            ["24.0.0.53", "2601::53"],
            directory,
            software=bind_redhat(),
            egress="24.0.0.99",
            asn=7922,
            blocked_names={"blocked.example"},
            nxdomain_wildcard_to="203.0.113.80",
        ),
    ]


def test_a_new_attribute_is_part_of_the_identity():
    """Safe by default: an attribute no list names still separates two
    servers' templates."""
    server, twin = _servers()[0], _servers()[0]
    twin.banner = {"maintenance"}
    assert server.answer_identity() != twin.answer_identity()
    server.banner = {"maintenance"}
    assert server.answer_identity() == twin.answer_identity()


@pytest.mark.parametrize("index", range(len(_servers())))
def test_identity_is_hashable_and_tracks_addresses(index):
    server, twin = _servers()[index], _servers()[index]
    assert server.answer_identity() == twin.answer_identity()
    assert hash(server.answer_identity()) == hash(twin.answer_identity())
    if index:
        other = _servers(build_default_directory())[index]
        assert other.answer_identity() != server.answer_identity()
    twin.set_addresses(["198.51.100.53"])
    assert server.answer_identity() != twin.answer_identity()


def test_lent_templates_follow_the_identity():
    """A server lent a pool serves from its identity's table, and moves
    to the new identity's table when its addresses change."""
    pool = {}
    first, second = _servers()[2], _servers()[2]
    first.share_answer_templates(pool)
    second.share_answer_templates(pool)
    assert len(pool) == 1
    assert first.response_cache_enabled
    second.set_addresses(["24.0.0.54"])
    assert len(pool) == 2
    assert pool[second.answer_identity()] is not pool[first.answer_identity()]
