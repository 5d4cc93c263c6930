"""Independent plain-integer pairing formulas: the tests' arithmetic oracle
for ``nodeparse.terms``, and the ``combine_fn`` they pass to
``nodeparse.reference.reference_run``. Written from the paper's definitions,
so it imports nothing from the package.
"""

from typing import Sequence, Tuple


def tau(i: int, j: int) -> int:
    return (i + j) * (i + j + 1) // 2 + j


def tau4(a: int, b: int, c: int, d: int) -> int:
    return tau(tau(tau(a, b), c), d)


def rho(i: int, j: int) -> Tuple[int, int]:
    return (i + j, i * j)


def combine(t1: Sequence[int], t2: Sequence[int], b: int) -> int:
    s, p = rho(tau4(*t1), tau4(*t2))
    return tau(tau(s, p), b)
