"""Compositional modeling of wired machine networks and their attacks.

The package has three layers.  ``wiring`` and ``moore`` define boxes,
wirings between them, and the machines that inhabit boxes, together
with composition, tensoring, normalization, and the action of wirings
on machine lists.  ``fincat`` and ``probes`` cover reasoning: finite
categories with set-valued functors and naturality enumeration, and
behavioral tests an attacker can run against an opaque system to
filter a knowledge base.  ``attacks`` applies both: scripted component
rewrites and rewirings with provenance, transported between an
attacker's view and the deployed system, and scenarios that bundle the
two with a knowledge base and named scripts; ``fingerprints`` names the
systems its provenance log records.  ``fileformat`` (with
``systemformat`` and ``writers``), ``dot``, and ``cli`` are the shell.
Names are imported from their module; ``import wirebox`` loads none of
them.
"""

from _thread import allocate_lock as _allocate_lock
from types import FunctionType as _FunctionType

__version__ = "0.1.0"
_KEEPING = _allocate_lock()  # held by ``_kept`` to store a value


class WireboxError(Exception):
    """A refusal the library makes: malformed input or a domain error.

    Every module's error class derives from it, so a caller can catch
    them all without importing the modules that raise them.
    """


class Record:
    """The base of the library's frozen records.

    A subclass's fields are the names its body annotates, in order (only
    the names are read, never the annotations), and a field given a value
    in the class body defaults to it.  ``C._fields`` is the tuple of
    field names; a record has at most eight.  A record class gets:

    - ``__init__`` taking the fields by position or keyword, with their
      defaults, then calling ``__post_init__``;
    - equality between records of the same class with equal field
      tuples, so ``OuterIn(0, "a") != InnerOut(0, "a")``, and a hash of
      the field tuple, so hashing a record with a dict among its fields
      raises ``TypeError``.  ``class C(Record, eq=False)`` keeps identity
      equality and hashing instead;
    - assignment and deletion that raise ``AttributeError``.
      ``object.__setattr__`` still sets an attribute, for a
      ``__post_init__`` that normalises a field and for the values
      ``_kept`` keeps on an instance;
    - the ``repr`` ``C(a=1, b='x')``;
    - the classmethod ``C._built(*values)``, the one unchecked
      constructor, for a record valid by construction.

    That is what ``@dataclass(frozen=True)`` gave these classes, and the
    three methods run the bytecode a dataclass's would.  A dataclass
    compiles source for them, class by class; a record copies the code
    of a method written once below for its number of fields, with the
    field names put in place of the placeholders ``_0``, ``_1``, ....
    """

    _fields: tuple = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = fields = (*cls._fields,
                                *(n for n in own if n not in cls._fields))
        defaults = [getattr(cls, n) for n in fields if hasattr(cls, n)]
        if any(hasattr(cls, n) for n in fields[:len(fields) - len(defaults)]):
            raise TypeError(f"{cls.__name__}: a field without a default "
                            f"follows one with a default")
        cls.__init__ = _specialized(_INITS, cls, "__init__", tuple(defaults))
        if eq:
            cls.__eq__ = _specialized(_EQS, cls, "__eq__")
            cls.__hash__ = _specialized(_HASHES, cls, "__hash__")

    def __post_init__(self):
        pass

    @classmethod
    def _built(cls, *values):
        """A record valid by construction, taken as it is: the values go
        to the fields in order, and nothing is copied or checked
        (``__post_init__`` is not called)."""
        record = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            _setattr(record, name, value)
        return record

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{n}={getattr(self, n)!r}" for n in self._fields) + ")"


def _kept(obj, name: str, compute):
    """``compute(obj)``, computed on the first call for ``obj`` and kept
    on it as the attribute ``name``.

    For a value that is a pure function of an immutable object: it is
    never recomputed, and equality, hashing and ``repr`` read only the
    fields, so they never see it.  Two threads may both compute it; each
    gets the value stored first, equal to its own.  It never reads
    ``obj.__dict__``: on CPython 3.11 that slows every later attribute read.
    """
    try:
        return getattr(obj, name)
    except AttributeError:
        value = compute(obj)
    with _KEEPING:
        if not hasattr(obj, name):
            _setattr(obj, name, value)
    return getattr(obj, name)


def _specialized(templates: tuple, cls: type, name: str, defaults=None):
    """``cls``'s method ``name``: the template for its number of fields,
    with each placeholder ``_i`` renamed to field ``i``."""
    fields = cls._fields
    if len(fields) >= len(templates):
        raise TypeError(f"{cls.__name__}: a record has at most "
                        f"{len(templates) - 1} fields")
    placeholders = {f"_{i}": field for i, field in enumerate(fields)}

    def renamed(names: tuple) -> tuple:
        return tuple(placeholders.get(n, n) if type(n) is str else n
                     for n in names)

    code = templates[len(fields)].__code__
    code = code.replace(co_name=name, co_names=renamed(code.co_names),
                        co_varnames=renamed(code.co_varnames),
                        co_consts=renamed(code.co_consts))
    if hasattr(code, "co_qualname"):  # Python 3.11 names it in errors
        code = code.replace(co_qualname=f"{cls.__qualname__}.{name}")
    method = _FunctionType(code, globals(), name, defaults)
    method.__qualname__ = f"{cls.__qualname__}.{name}"
    return method


# The methods a frozen dataclass with n fields has, for n up to eight,
# reading placeholders where it reads fields.  ``_specialized`` fills
# them in.
_setattr = object.__setattr__


def _init0(self):
    self.__post_init__()


def _init1(self, _0):
    _setattr(self, "_0", _0)
    self.__post_init__()


def _init2(self, _0, _1):
    _setattr(self, "_0", _0)
    _setattr(self, "_1", _1)
    self.__post_init__()


def _init3(self, _0, _1, _2):
    _setattr(self, "_0", _0)
    _setattr(self, "_1", _1)
    _setattr(self, "_2", _2)
    self.__post_init__()


def _init4(self, _0, _1, _2, _3):
    _setattr(self, "_0", _0)
    _setattr(self, "_1", _1)
    _setattr(self, "_2", _2)
    _setattr(self, "_3", _3)
    self.__post_init__()


def _init5(self, _0, _1, _2, _3, _4):
    _setattr(self, "_0", _0)
    _setattr(self, "_1", _1)
    _setattr(self, "_2", _2)
    _setattr(self, "_3", _3)
    _setattr(self, "_4", _4)
    self.__post_init__()


def _init6(self, _0, _1, _2, _3, _4, _5):
    _setattr(self, "_0", _0)
    _setattr(self, "_1", _1)
    _setattr(self, "_2", _2)
    _setattr(self, "_3", _3)
    _setattr(self, "_4", _4)
    _setattr(self, "_5", _5)
    self.__post_init__()


def _init7(self, _0, _1, _2, _3, _4, _5, _6):
    _setattr(self, "_0", _0)
    _setattr(self, "_1", _1)
    _setattr(self, "_2", _2)
    _setattr(self, "_3", _3)
    _setattr(self, "_4", _4)
    _setattr(self, "_5", _5)
    _setattr(self, "_6", _6)
    self.__post_init__()


def _init8(self, _0, _1, _2, _3, _4, _5, _6, _7):
    _setattr(self, "_0", _0)
    _setattr(self, "_1", _1)
    _setattr(self, "_2", _2)
    _setattr(self, "_3", _3)
    _setattr(self, "_4", _4)
    _setattr(self, "_5", _5)
    _setattr(self, "_6", _6)
    _setattr(self, "_7", _7)
    self.__post_init__()


_INITS = (_init0, _init1, _init2, _init3, _init4, _init5, _init6, _init7,
          _init8)
_EQS = (
    lambda s, o: True if o.__class__ is s.__class__ else NotImplemented,
    lambda s, o: ((s._0,)
                  == (o._0,)
                  if o.__class__ is s.__class__ else NotImplemented),
    lambda s, o: ((s._0, s._1)
                  == (o._0, o._1)
                  if o.__class__ is s.__class__ else NotImplemented),
    lambda s, o: ((s._0, s._1, s._2)
                  == (o._0, o._1, o._2)
                  if o.__class__ is s.__class__ else NotImplemented),
    lambda s, o: ((s._0, s._1, s._2, s._3)
                  == (o._0, o._1, o._2, o._3)
                  if o.__class__ is s.__class__ else NotImplemented),
    lambda s, o: ((s._0, s._1, s._2, s._3, s._4)
                  == (o._0, o._1, o._2, o._3, o._4)
                  if o.__class__ is s.__class__ else NotImplemented),
    lambda s, o: ((s._0, s._1, s._2, s._3, s._4, s._5)
                  == (o._0, o._1, o._2, o._3, o._4, o._5)
                  if o.__class__ is s.__class__ else NotImplemented),
    lambda s, o: ((s._0, s._1, s._2, s._3, s._4, s._5, s._6)
                  == (o._0, o._1, o._2, o._3, o._4, o._5, o._6)
                  if o.__class__ is s.__class__ else NotImplemented),
    lambda s, o: ((s._0, s._1, s._2, s._3, s._4, s._5, s._6, s._7)
                  == (o._0, o._1, o._2, o._3, o._4, o._5, o._6, o._7)
                  if o.__class__ is s.__class__ else NotImplemented),
)
_HASHES = (
    lambda s: hash(()),
    lambda s: hash((s._0,)),
    lambda s: hash((s._0, s._1)),
    lambda s: hash((s._0, s._1, s._2)),
    lambda s: hash((s._0, s._1, s._2, s._3)),
    lambda s: hash((s._0, s._1, s._2, s._3, s._4)),
    lambda s: hash((s._0, s._1, s._2, s._3, s._4, s._5)),
    lambda s: hash((s._0, s._1, s._2, s._3, s._4, s._5, s._6)),
    lambda s: hash((s._0, s._1, s._2, s._3, s._4, s._5, s._6, s._7)),
)

