"""The base of the package's result records.

A record names its fields, in order, as the keys of its `__slots__` dict,
whose values say each field's type.  Record gives it an `__init__` that
takes the fields by position or by keyword, with the defaults of its last
fields in `_defaults`; equality by class and fields; a repr
`Name(field=value, ...)`; and pickling.  A record is frozen: it refuses
assignment and hashes by its fields, so one that holds a list is
unhashable.

The records were dataclasses.  Importing `dataclasses` loads `inspect`,
`ast`, `dis`, `tokenize` and a dozen more modules the package never uses,
and each decorated class then compiles its methods with `exec`.  That was
about 40% of `import sturmian_spectra`: with the package compiled from
source, the bench's formula-sweep set-up (`bench/run.py`, normalised to its
reference machine) read 33 ms with the dataclasses and 18 ms without
(medians of 12 runs each, Python 3.11.7 on a 2-CPU x86-64 Linux machine).
These methods are compiled once, with this module.
"""


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()  # the fields in order, set per class
    _defaults: tuple = ()  # the values of the last fields, for a caller who leaves them out

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(cls.__slots__)
        # each slot's own setter: it bypasses the frozen __setattr__, and a
        # loop over them builds a frozen record about as fast as the
        # __init__ a dataclass generates
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__match_args__)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._complete(args, kwargs)
        for put, value in zip(setters, args):
            put(self, value)

    def _complete(self, args: tuple, kwargs: dict) -> tuple:
        """Every field's value in order, from the fields given by position
        and by keyword and the defaults of the last fields."""
        fields, defaults = self.__match_args__, self._defaults
        short = len(fields) - len(args)
        if not kwargs and 0 <= short <= len(defaults):
            return args + defaults[len(defaults) - short :]
        if short < 0 or kwargs.keys() - fields[len(args) :]:
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        values = dict(zip(fields[len(fields) - len(defaults) :], defaults))
        values.update(zip(fields, args), **kwargs)
        if len(values) < len(fields):
            missing = [name for name in fields if name not in values]
            raise TypeError(f"{type(self).__name__} is missing {', '.join(missing)}")
        return tuple([values[name] for name in fields])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")
