"""The immutable base of the package's value classes."""

_set = object.__setattr__


class Value:
    """An immutable record whose fields are the names in the subclass's `__slots__`.

    `_init` sets them once and keeps their tuple, which gives equality within one
    class, the hash (kept after first use), the repr `Name(field=value, ...)` and
    the arguments for copy and pickle.  Assigning or deleting raises AttributeError.
    """

    __slots__ = ("_values", "_hash")

    def _init(self, *values) -> None:
        if len(values) == 1:  # most classes; no loop in the ring's inner loops
            _set(self, self.__slots__[0], values[0])
        else:
            for name, value in zip(self.__slots__, values):
                _set(self, name, value)
        _set(self, "_values", values)
        _set(self, "_hash", None)

    def __eq__(self, other):
        return self._values == other._values if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            _set(self, "_hash", hash(self._values))
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values
