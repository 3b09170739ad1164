"""Record classes: the part of `dataclasses` that invarc uses, without
its cost at import.

`@record` or `@record(frozen=True)` reads the annotated fields of a class
body, after the fields of its record bases, and gives the class one
generated `__init__` (which ends by calling `__post_init__` when the
class has one), equality over the compare fields, and the dataclass
`repr`.  A frozen record also hashes by value and refuses assignment; a
mutable one is unhashable.  A method that the class body defines itself
is kept.  `field`, `fields` and `replace` work as their namesakes in
`dataclasses` do, except that `replace` refuses an `init=False` field
with TypeError; like there, such a field of the new record gets its
default again, or stays unset without one.
"""

from operator import attrgetter

_MISSING = object()


class Field:
    """One field of a record; `name` is set when its class is built."""
    __slots__ = ("name", "default", "default_factory", "init", "repr",
                 "compare")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING,
                 init=True, repr=True, compare=True):
        self.name = None
        self.default, self.default_factory = default, default_factory
        self.init, self.repr, self.compare = init, repr, compare


field = Field


def fields(rec):
    """The fields of the record or record class `rec`, in order."""
    try:
        return tuple(rec.__record_fields__.values())
    except AttributeError:
        raise TypeError(f"{rec!r} is not a record") from None


def replace(rec, **changes):
    """A new record of `rec`'s class: `rec` with the fields in `changes`
    set to their values."""
    for name in rec.__record_init__:
        if name not in changes:
            changes[name] = getattr(rec, name)
    return rec.__class__(**changes)


def _eq(self, other):
    cls = self.__class__
    if other.__class__ is cls:
        return cls.__record_key__(self) == cls.__record_key__(other)
    return NotImplemented


def _hash(self):
    return hash(self.__class__.__record_key__(self))


def _repr(self):
    args = ", ".join([f"{n}={getattr(self, n)!r}"
                      for n in self.__record_repr__])
    return f"{self.__class__.__qualname__}({args})"


def _refuse(self, name, *value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _key(names):
    """A function from a record to the tuple of its fields `names`."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return staticmethod(lambda rec: (get(rec),))
    return staticmethod(lambda rec: ())


def _init(cls, flds, frozen):
    """The source of `cls.__init__` over the fields `flds`, and the
    globals it reads."""
    params, body, names = [], [], {"_MISSING": _MISSING,
                                   "_set": object.__setattr__}
    for f in flds:
        n = f.name
        if f.default_factory is not _MISSING:
            names[f"_f_{n}"] = f.default_factory
            value = f"_f_{n}()"
            if f.init:
                params.append(f"{n}=_MISSING")
                value = f"{value} if {n} is _MISSING else {n}"
        elif f.default is not _MISSING:
            names[f"_d_{n}"] = f.default
            value = n if f.init else f"_d_{n}"
            if f.init:
                params.append(f"{n}=_d_{n}")
        elif f.init:
            params.append(n)
            value = n
        else:               # no value: `__init__` leaves the field unset
            continue
        body.append(f"_set(self, {n!r}, {value})" if frozen
                    else f"self.{n} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    src = (f"def __init__(self, {', '.join(params)}):\n    "
           + "\n    ".join(body or ["pass"]))
    return src, names


def _build(cls, frozen):
    flds = {}
    for base in reversed(cls.__mro__[1:]):
        flds.update(base.__dict__.get("__record_fields__", {}))
    own = cls.__dict__
    for n in own.get("__annotations__", {}):
        f = own.get(n, _MISSING)
        if not isinstance(f, Field):
            f = field(default=f)
        f.name = n
        flds[n] = f
        if f.default is not _MISSING:
            setattr(cls, n, f.default)
        elif n in own:
            delattr(cls, n)
    src, names = _init(cls, flds.values(), frozen)
    exec(src, names)
    names["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    methods = {
        "__init__": names["__init__"],
        "__repr__": _repr,
        "__eq__": _eq,
        "__hash__": _hash if frozen else None,
    }
    if frozen:
        methods.update(__setattr__=_refuse, __delattr__=_refuse)
    for name, value in methods.items():
        if name not in own:
            setattr(cls, name, value)
    cls.__record_fields__ = flds
    cls.__record_init__ = tuple(n for n, f in flds.items() if f.init)
    cls.__record_repr__ = tuple(n for n, f in flds.items() if f.repr)
    cls.__record_key__ = _key([n for n, f in flds.items() if f.compare])
    return cls


def record(cls=None, *, frozen=False):
    """Make `cls` a record class, used as `@record` or
    `@record(frozen=True)`."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)
