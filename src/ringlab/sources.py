"""Ring source grammar: composable ids that double as catalog provenance.

Grammar (k and n are integers, SRC recurses):

    zmod:<n>            integers mod n
    gf:<q>              finite field, q in {2,3,4,5,7,8,9}
    zn-alpha:<n>        Z/n with an adjoined primitive cube root of unity
    matrix:<SRC>:<k>    full k-by-k matrices over SRC
    tri:<SRC>:<k>       upper triangular k-by-k matrices over SRC
    eqdiag:<SRC>:<k>    equal-diagonal upper triangular matrices over SRC
    product:<SRC>,<SRC> componentwise product; a nested product: takes one
                        comma, so product:product:a,b,c is (a x b) x c
    corner:<SRC>:<e>    corner ring of idempotent index e
    jquot:<SRC>         quotient by the Jacobson radical
    extension:<name>    a named ideal-extension spec (t41-base, ...)
    paper:gf4-example   the 64-element twisted-triangular ring over GF(4)
    file:<path>         load and validate a ring JSON file

Inner sources may be written compactly without the colon (zmod2, gf4,
zn-alpha3), as in ``matrix:zmod2:2``.
"""

from __future__ import annotations

import re
from itertools import accumulate

from .core import DEFAULT_ORDER_CAP, FiniteRing, load_ring_file
from .errors import OrderCapExceeded, RinglabError
from . import construct

_COMPACT = re.compile(r"^(zmod|gf|zn-alpha)(\d+)$")


class UnknownRingSource(RinglabError):
    pass


def parse_ring_source(source: str, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    # Inner sources recurse through _parse_capped, so only this outermost
    # call maps running out of stack to a bad source.
    try:
        return _parse_capped(source, order_cap)
    except RecursionError:
        raise UnknownRingSource(
            f"ring source nests too deeply ({len(source)} characters)") from None


def _parse_capped(source: str, order_cap: int) -> FiniteRing:
    ring = _parse(source, order_cap)
    if ring.order > order_cap:
        raise OrderCapExceeded(ring.order, order_cap)
    return ring


def _product_factors(source: str, rest: str) -> tuple[str, str]:
    """The two factors of ``product:<rest>``, read in prefix order.

    Each ``product:`` takes exactly one comma: ``product:product:a,b,c`` is
    (a x b) x c, and ``product:a,product:b,c`` is a x (b x c).
    """
    pieces = rest.split(",")
    # products opened in each comma-separated piece, nested ones included
    opened = [sum(seg.strip() == "product" for seg in p.split(":")[:-1]) for p in pieces]
    if len(pieces) != sum(opened) + 2:
        raise UnknownRingSource(f"product source needs exactly two factors, got {source!r}")
    # after k pieces, 1 + sum(opened[:k]) - k products still wait for their
    # comma; the outer product's comma follows the first k pieces after which
    # none waits
    k = list(accumulate((n - 1 for n in opened), initial=1)).index(0)
    return ",".join(pieces[:k]), ",".join(pieces[k:])


def _parse(source: str, order_cap: int) -> FiniteRing:
    source = source.strip()
    compact = _COMPACT.match(source)
    if compact:
        source = f"{compact.group(1)}:{compact.group(2)}"
    kind, _, rest = source.partition(":")
    if kind == "zmod":
        return construct.zmod(int(rest), order_cap=order_cap)
    if kind == "gf":
        return construct.gf(int(rest))
    if kind == "zn-alpha":
        return construct.zn_alpha(int(rest), order_cap=order_cap)
    if kind in ("matrix", "tri", "eqdiag", "corner"):
        inner, _, num = rest.rpartition(":")
        if not inner:
            raise UnknownRingSource(f"{kind} source needs {kind}:<src>:<k>, got {source!r}")
        base = _parse_capped(inner, order_cap)
        k = int(num)
        if kind == "matrix":
            return construct.matrix_ring(base, k, order_cap=order_cap)
        if kind == "tri":
            return construct.upper_triangular(base, k, order_cap=order_cap)
        if kind == "eqdiag":
            return construct.equal_diagonal_subring(base, k, order_cap=order_cap)
        return construct.corner(base, k)
    if kind == "product":
        left, right = _product_factors(source, rest)
        return construct.product(_parse_capped(left, order_cap),
                                 _parse_capped(right, order_cap), order_cap=order_cap)
    if kind == "jquot":
        base = _parse_capped(rest, order_cap)
        from .subsets import radical_quotient
        return radical_quotient(base)
    if kind == "extension":
        try:
            builder, _ = construct.T41_SPECS[rest]
        except KeyError:
            raise UnknownRingSource(f"unknown extension spec {rest!r}") from None
        return construct.ideal_extension(builder(), order_cap=order_cap)
    if kind == "paper":
        if rest == "gf4-example":
            return construct.gf4_triangular_example()
        raise UnknownRingSource(f"unknown named example {rest!r}")
    if kind == "file":
        return load_ring_file(rest, order_cap=order_cap)
    raise UnknownRingSource(f"unknown ring source {source!r}")
