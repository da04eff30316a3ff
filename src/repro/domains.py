"""Checked fields: every configured value declares its domain once.

A *domain* is what a value may be: a finite number at or above a floor,
an ``int`` count, one of a closed set of values.  It is written once,
beside the value it governs:

* a dataclass field declares it as ``checked(default, domain)`` (field
  metadata), and :func:`check_fields` walks them;
* a plain constructor or player method keeps a table
  ``{argument: domain}`` and calls :func:`check_args`.

Every refusal is an :class:`OutOfDomain` (a ValueError) that reads
``name=value must be ...``.  NaN and the infinities lie outside every
numeric domain, a ``bool`` is not a number, and a count is an ``int``.
Checks run when an object is built or a player starts, never per event.
The tests draw values inside and outside each declared domain
(``tests/test_checked_fields.py``), so no test keeps a copy of one.

This module imports nothing from ``repro``: any layer may use it.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields
from typing import Any, Mapping, Optional

#: the field-metadata key :func:`checked` writes.
DOMAIN = "domain"


class OutOfDomain(ValueError):
    """A value outside its declared domain; ``name`` is the field or
    argument, ``requirement`` the ``must be ...`` clause."""

    def __init__(self, name: str, value: Any, requirement: str) -> None:
        super().__init__(f"{name}={value!r} {requirement}")
        self.name = name
        self.requirement = requirement


class Domain:
    """What a value may be; :meth:`check` refuses anything else (a
    subclass says what holds in ``_holds``)."""

    def __init__(self, rule: str, optional: bool) -> None:
        #: ``None`` is admitted too (a numeric field whose default is
        #: ``None``).
        self.optional = optional
        self.rule = rule + (" or None" if optional else "")

    def check(self, name: str, value: Any) -> None:
        if not (value is None and self.optional or self._holds(value)):
            raise OutOfDomain(name, value, f"must be {self.rule}")


class Number(Domain):
    """A finite number (or an ``int``, when ``integer``) from ``lo`` up
    to ``hi``; each end is excluded when marked open, and ``hi=None``
    leaves the top unbounded (though never infinite)."""

    def __init__(self, lo: float, hi: Optional[float] = None, *,
                 lo_open: bool = False, hi_open: bool = False,
                 integer: bool = False, optional: bool = False) -> None:
        self.lo, self.hi = lo, hi
        self.lo_open, self.hi_open = lo_open, hi_open
        self.integer = integer
        if hi is None:
            span = f"{'>' if lo_open else '>='} {lo}"
        else:
            span = (f"in {'(' if lo_open else '['}{lo}, "
                    f"{hi}{')' if hi_open else ']'}")
        if integer:
            rule = "an int " + span
        elif lo == -math.inf and hi is None:
            rule = "finite"
        else:
            rule = "finite and " + span
        super().__init__(rule, optional)

    def _holds(self, value: Any) -> bool:
        if self.integer:
            if type(value) is not int:
                return False
        elif (type(value) is bool or not isinstance(value, (int, float))
              or not math.isfinite(value)):
            return False
        lo, hi = self.lo, self.hi
        return ((lo < value if self.lo_open else lo <= value)
                and (hi is None
                     or (value < hi if self.hi_open else value <= hi)))


class Choice(Domain):
    """One of a closed set of values (``None`` among them where it is
    the default), matched by type as well as by value: ``1`` is not
    ``True`` and ``0.0`` is not ``False``."""

    def __init__(self, values: tuple) -> None:
        self.values = values
        super().__init__(f"one of {values!r}", optional=False)

    def _holds(self, value: Any) -> bool:
        return any(type(value) is type(allowed) and value == allowed
                   for allowed in self.values)


def finite(optional: bool = False) -> Number:
    """Any finite number: a timestamp."""
    return Number(-math.inf, optional=optional)


def above(lo: float, optional: bool = False) -> Number:
    """A finite number ``> lo``."""
    return Number(lo, lo_open=True, optional=optional)


def positive(optional: bool = False) -> Number:
    """A finite number ``> 0``: a period, a rate, a bandwidth."""
    return above(0, optional)


def at_least(lo: float, optional: bool = False) -> Number:
    """A finite number ``>= lo``."""
    return Number(lo, optional=optional)


def count(least: int, most: Optional[int] = None,
          optional: bool = False) -> Number:
    """An ``int`` (not a ``bool``) in ``[least, most]``."""
    return Number(least, most, integer=True, optional=optional)


def between(lo: float, hi: float, *, lo_open: bool = False,
            hi_open: bool = False, optional: bool = False) -> Number:
    """A finite number from ``lo`` to ``hi``, both included unless
    marked open: a probability, a fraction, a jitter share."""
    return Number(lo, hi, lo_open=lo_open, hi_open=hi_open,
                  optional=optional)


def choice(*values: Any) -> Choice:
    """One of ``values``."""
    return Choice(values)


def checked(default: Any = MISSING, domain: Optional[Domain] = None) -> Any:
    """A dataclass field with ``default`` whose values must lie in
    ``domain`` (checked by :func:`check_fields`)."""
    return field(default=default, metadata={DOMAIN: domain})


def check_fields(obj: Any) -> None:
    """Refuse the first field of the dataclass ``obj`` that lies outside
    its declared domain."""
    for item in fields(obj):
        domain = item.metadata.get(DOMAIN)
        if domain is not None:
            domain.check(item.name, getattr(obj, item.name))


def check_args(table: Mapping[str, Domain], **values: Any) -> None:
    """Refuse the first of ``values`` outside its domain in ``table``."""
    for name, value in values.items():
        table[name].check(name, value)
