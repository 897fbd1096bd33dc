"""Irreducible moduli for building test fields."""

from macbeath.errors import IntegrityError
from macbeath.gf import is_irreducible


def find_irreducible(p: int, e: int) -> tuple[int, ...]:
    """First monic irreducible of degree e over F_p in the enumeration order."""
    if e == 1:
        return (0, 1)
    index = 0
    while True:
        digits = []
        k = index
        for _ in range(e):
            k, d = divmod(k, p)
            digits.append(d)
        if k:
            raise IntegrityError(f"no irreducible of degree {e} found mod {p}")
        g = digits + [1]
        if is_irreducible(g, p):
            return tuple(g)
        index += 1


def random_irreducible(p: int, e: int, rng) -> tuple[int, ...]:
    """A random monic irreducible of degree e over F_p (about e draws).

    For large p the enumeration above can stall: x^4 + c is reducible for
    every c when p = 3 mod 4, and it tries all p values of c first.
    """
    while True:
        g = [rng.randrange(p) for _ in range(e)] + [1]
        if is_irreducible(g, p):
            return tuple(g)
