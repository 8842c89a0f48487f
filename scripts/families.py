"""The formulas of the two documented families of chain configurations.

scripts/gen_fixtures.py writes the bundled fixtures from them, and the
tests use them as the reference the fixtures and the library must match;
the package itself reads only the fixture files.

Family 1 lives in n = 3a + 2 exceptional classes and carries a C_p with
p = 4a - 9; family 2 lives in n = 3a + 4 with p = 4a - 7. In both, the body
classes are consecutive differences e_{12-a+i} - e_{13-a+i} and the long
class is an explicit tail; the families come with a characteristic lift, an
orthogonal period point, and an H1 witness delta = e_{12-a} - e_{13-a}.

The class formulas instantiate for 3 <= a <= 12 (the body start index
13 - a must stay >= 1); whether the instantiated classes verify as a chain
is a separate question, decided by the verifier. For a >= 13 the chain rank
p - 1 would also exceed the available negative rank, so no valid
configuration can exist at all.
"""
from __future__ import annotations

from rbdcalc.chains import CpConfiguration
from rbdcalc.errors import DomainError, TemplateError
from rbdcalc.report import dumps

FAMILY_NUMBERS = (1, 2)


def _check_family(family: int) -> None:
    if family not in FAMILY_NUMBERS:
        raise DomainError(f"family must be 1 or 2, got {family}")


def exceptional_count(a: int, family: int) -> int:
    _check_family(family)
    return 3 * a + 2 if family == 1 else 3 * a + 4


def chain_index(a: int, family: int) -> int:
    """The p of the C_p carried by the family at parameter a."""
    _check_family(family)
    return 4 * a - 9 if family == 1 else 4 * a - 7


def _instantiable(a: int, family: int) -> None:
    _check_family(family)
    if a < 3:
        raise DomainError(f"family formulas need a >= 3, got a = {a}")
    if a >= 13:
        n = exceptional_count(a, family)
        p = chain_index(a, family)
        raise TemplateError(
            f"no configuration can exist at a = {a}: the chain needs rank "
            f"p - 1 = {p - 1} > n = {n} available in the negative part, and "
            f"the body formula would reach index e_{13 - a}"
        )


def family_classes(a: int, family: int) -> list[tuple[int, ...]]:
    """The candidate chain class rows at parameter a, body first, tail last.

    Instantiation succeeds for 3 <= a <= 12; validity as a C_p is checked
    separately (it holds on the published ranges and fails from a = 12 up
    for family 1, a = 10 up for family 2).
    """
    _instantiable(a, family)
    n = exceptional_count(a, family)
    p = chain_index(a, family)
    body_len = p - 2
    classes = []
    for i in range(1, body_len + 1):
        c = [0] * (n + 1)
        c[12 - a + i] = 1
        c[13 - a + i] = -1
        classes.append(tuple(c))
    tail = [0] * (n + 1)
    tail[0] = a + 3
    if family == 1:
        tail[1] = -(a - 1)
        for j in range(2, n + 1):
            tail[j] = -2
    else:
        tail[1] = 1
        tail[2] = 1
        tail[3] = -(a - 1)
        for j in range(4, n + 1):
            tail[j] = -2
    tail[n] = -1
    classes.append(tuple(tail))
    return classes


def family_configuration(a: int, family: int) -> CpConfiguration:
    """The verified configuration; raises if the classes fail the Gram check."""
    return CpConfiguration(
        p=chain_index(a, family),
        classes=tuple(family_classes(a, family)),
    )


def family_lift(a: int, family: int) -> tuple[int, ...]:
    """The characteristic lift used by the invariant pipeline."""
    _instantiable(a, family)
    n = exceptional_count(a, family)
    if family == 1:
        return (3,) + (-1,) * n
    return (3, 1, 1) + (-1,) * (n - 2)


def family_period_point(a: int, family: int) -> tuple[int, ...]:
    """The configuration-orthogonal period point used by the pipeline."""
    _instantiable(a, family)
    n = exceptional_count(a, family)
    c = [0] * (n + 1)
    if family == 1:
        c[0] = 8 * a - 1
        c[1] = -2 * (a + 3)
        for j in range(2, n + 1):
            c[j] = -(a + 3)
    else:
        c[0] = 8 * a + 1
        c[1] = a + 3
        c[2] = a + 3
        c[3] = -2 * (a + 3)
        for j in range(4, n + 1):
            c[j] = -(a + 3)
    return tuple(c)


def family_h1_witness(a: int, family: int) -> tuple[int, ...]:
    """delta = e_{12-a} - e_{13-a}, the witness used on the published ranges.

    It pairs 1 with the first class and 0 with every other exactly when index
    12 - a lands inside the tail's -2 run (family 1: a <= 10, family 2:
    a <= 8). Above that, the tail pairing becomes a - 3 != 0 and this class
    certifies nothing; `h1_certificate` without a delta still decides H1 exactly.
    """
    _instantiable(a, family)
    if a >= 12:
        raise DomainError(f"the witness formula needs 12 - a >= 1, got a = {a}")
    n = exceptional_count(a, family)
    c = [0] * (n + 1)
    c[12 - a] = 1
    c[13 - a] = -1
    return tuple(c)


def family_handle_data(a: int, family: int) -> dict | None:
    """Complement handle counts where documented; None when not available.

    Family 1 (a = 3..6): h2 = 13 - a, h3 = 2, closing up to (1,0,14-a,2,1).
    Family 2 (a = 3..5): h2 = 11 - a, h3 = 0, closing up to (1,0,12-a,0,1).
    Family 2, a = 6 has the explicit tuple (1,1,7,0,1), which does not fit
    the closed-up shape (its h1 entry is 1). Family 1, a = 7: none known.
    """
    _check_family(family)
    if family == 1 and 3 <= a <= 6:
        return {"h2": 13 - a, "h3": 2}
    if family == 2 and 3 <= a <= 5:
        return {"h2": 11 - a, "h3": 0}
    if family == 2 and a == 6:
        return {"counts": [1, 1, 7, 0, 1]}
    return None


def fixture_payload(a: int, family: int) -> dict:
    """Everything a fixture file stores for one (family, a) case."""
    cfg = family_configuration(a, family)
    return {
        "family": family,
        "a": a,
        "p": cfg.p,
        "n": cfg.n,
        "classes": [list(u) for u in cfg.classes],
        "K": list(family_lift(a, family)),
        "H": list(family_period_point(a, family)),
        "handles": family_handle_data(a, family),
    }


def dump_fixture(a: int, family: int) -> str:
    """Canonical serialized fixture, byte-stable across runs."""
    return dumps(fixture_payload(a, family)) + "\n"
