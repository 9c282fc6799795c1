"""IPv4 addresses and CIDR prefixes.

The standard library's :mod:`ipaddress` is deliberately not used: filter
evaluation sits on the hot path of the switch emulator (every TCAM lookup and
every packet sample), and a plain-int representation with mask arithmetic is
several times faster while being ~100 lines of obviously-correct code.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Union

from repro.errors import FarmError

MAX_IPV4 = 0xFFFFFFFF


class AddressError(FarmError):
    """Malformed IPv4 address or prefix."""


def parse_ip(text: str) -> int:
    """Parse dotted-quad IPv4 into an int.

    >>> parse_ip("10.0.0.1")
    167772161
    """
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise AddressError(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"malformed IPv4 address: {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(value: int) -> str:
    """Format an int as dotted-quad.

    >>> format_ip(167772161)
    '10.0.0.1'
    """
    if not 0 <= value <= MAX_IPV4:
        raise AddressError(f"IPv4 value out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


class Prefix:
    """An IPv4 CIDR prefix; hashable, comparable, and cheap to match against.

    A ``/32`` prefix denotes a single host.  Construction normalizes the
    network address (host bits are cleared).
    """

    __slots__ = ("network", "length", "_mask")

    def __init__(self, network: int, length: int) -> None:
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length}")
        if not 0 <= network <= MAX_IPV4:
            raise AddressError(f"IPv4 value out of range: {network}")
        self._mask = (MAX_IPV4 << (32 - length)) & MAX_IPV4 if length else 0
        self.network = network & self._mask
        self.length = length

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d"`` (host) or ``"a.b.c.d/len"`` (CIDR)."""
        return _parse_prefix_cached(text.strip())

    @classmethod
    def host(cls, ip: Union[int, str]) -> "Prefix":
        """A /32 prefix for a single host."""
        value = parse_ip(ip) if isinstance(ip, str) else ip
        return cls(value, 32)

    def contains(self, ip: int) -> bool:
        """True if the address falls inside this prefix."""
        return (ip & self._mask) == self.network

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Prefix)
                and self.network == other.network
                and self.length == other.length)

    def __hash__(self) -> int:
        return hash((self.network, self.length))

    def __lt__(self, other: "Prefix") -> bool:
        return (self.network, self.length) < (other.network, other.length)

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __str__(self) -> str:
        return f"{format_ip(self.network)}/{self.length}"


@lru_cache(maxsize=4096)
def _parse_prefix_cached(text: str) -> Prefix:
    if "/" in text:
        address_text, _, length_text = text.partition("/")
        if not length_text.isdigit():
            raise AddressError(f"malformed prefix length in {text!r}")
        return Prefix(parse_ip(address_text), int(length_text))
    return Prefix(parse_ip(text), 32)


#: The all-addresses prefix, handy as a wildcard.
ANY_PREFIX = Prefix(0, 0)
