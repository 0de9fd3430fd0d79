"""Consistent-hash ring for signature-affine shard placement.

A modulo hash (``int(signature, 16) % num_shards``) has a fatal
elasticity property: changing ``num_shards`` from ``N`` to ``N±1``
remaps almost *every* signature, so one host joining or leaving the
fleet invalidates nearly all per-host result-cache locality at once. A
consistent-hash ring fixes that: each host owns many pseudo-random arcs
of a fixed 2^256 key space (``vnodes`` virtual nodes per host), and a
signature belongs to the host owning the first virtual node at or after
the signature's point, wrapping around. Because every host's virtual
nodes are derived only from its own id, adding or removing a host
leaves all *surviving* hosts' points untouched — only the keys on the
arcs the departed host owned (about ``K/N`` of ``K`` keys across ``N``
hosts, property-tested) move, and each moves to the next surviving
host on the ring.

Everything is keyed by stable identifiers — host id strings and
structural-signature digests — through SHA-256, never Python's
process-seeded ``hash()``, so placement is deterministic across
processes, hosts, and runs: the property that makes per-shard result
caches dedup exactly as well as one global cache would
(:mod:`repro.service.shard`).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

__all__ = ["HashRing", "DEFAULT_VNODES", "default_host_ids"]

#: virtual nodes per host. 64 points keeps the largest/smallest host
#: load ratio tight (stddev of per-host share ~ 1/sqrt(vnodes)) while a
#: full ring rebuild stays microseconds.
DEFAULT_VNODES = 64


def default_host_ids(num_hosts: int) -> Tuple[str, ...]:
    """Stable host ids for positionally-identified shards.

    ``ShardedOptimizer`` callers that pass a bare optimizer list get
    these ids, so placement is a pure function of ``(num_hosts,
    signature)`` — deterministic across processes exactly like the old
    modulo scheme, but elastic.
    """
    if num_hosts < 1:
        raise ValueError(f"num_hosts must be >= 1, got {num_hosts}")
    return tuple(f"shard-{i}" for i in range(num_hosts))


def _point(token: str) -> int:
    """A token's position on the 2^256 ring (SHA-256, process-stable)."""
    return int(hashlib.sha256(token.encode("utf-8")).hexdigest(), 16)


class HashRing:
    """A virtual-node consistent-hash ring over host-id strings.

    Hosts can be added and removed at any time; placement of a key
    depends only on the *current host set* (never on insertion order or
    on hosts that came and went), which is what makes membership churn
    cheap: ``remove(host)`` recomputes nothing for survivors — their
    virtual nodes are untouched — it only re-homes the departed host's
    arcs to their ring successors.
    """

    def __init__(
        self,
        hosts: Iterable[str] = (),
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._hosts: set = set()
        #: sorted (point, host) pairs — the ring itself
        self._ring: List[Tuple[int, str]] = []
        for host in hosts:
            self.add(host)

    # -- membership -----------------------------------------------------
    def _host_points(self, host: str) -> List[Tuple[int, str]]:
        return [(_point(f"vnode:{host}#{i}"), host)
                for i in range(self.vnodes)]

    def add(self, host: str) -> None:
        """Admit a host; only keys on its new arcs move to it."""
        if not isinstance(host, str) or not host:
            raise ValueError(f"host id must be a non-empty string, "
                             f"got {host!r}")
        if host in self._hosts:
            raise ValueError(f"host {host!r} is already on the ring")
        self._hosts.add(host)
        for pair in self._host_points(host):
            bisect.insort(self._ring, pair)

    def remove(self, host: str) -> None:
        """Retire a host; its arcs fall to their ring successors.

        Survivors' virtual nodes are untouched, so every key *not*
        owned by ``host`` keeps its placement — no rehashing.
        """
        if host not in self._hosts:
            raise KeyError(f"host {host!r} is not on the ring")
        self._hosts.discard(host)
        self._ring = [pair for pair in self._ring if pair[1] != host]

    @property
    def hosts(self) -> Tuple[str, ...]:
        """Current members, sorted for stable iteration."""
        return tuple(sorted(self._hosts))

    def __len__(self) -> int:
        return len(self._hosts)

    def __contains__(self, host: object) -> bool:
        return host in self._hosts

    def __repr__(self) -> str:
        return (f"HashRing(hosts={list(self.hosts)!r}, "
                f"vnodes={self.vnodes})")

    def copy(self) -> "HashRing":
        """An independent ring with the same membership (cheap: the
        per-host points are recomputed from ids, not copied)."""
        return HashRing(self._hosts, vnodes=self.vnodes)

    # -- placement ------------------------------------------------------
    def host_for(self, key: str) -> str:
        """The host owning ``key`` (any string; typically a structural
        signature digest)."""
        if not self._ring:
            raise LookupError("ring has no hosts")
        point = _point(f"key:{key}")
        idx = bisect.bisect_right(self._ring, (point, ""))
        if idx == len(self._ring):
            idx = 0  # wrap: first vnode owns the top arc
        return self._ring[idx][1]

    def placement(self, keys: Iterable[str]) -> Dict[str, str]:
        """``{key: owning host}`` for many keys at once."""
        return {key: self.host_for(key) for key in keys}

    def distribution(self, keys: Sequence[str]) -> Dict[str, int]:
        """How many of ``keys`` each current host owns (all hosts
        reported, including empty ones) — load-skew introspection."""
        counts = {host: 0 for host in self.hosts}
        for key in keys:
            counts[self.host_for(key)] += 1
        return counts
