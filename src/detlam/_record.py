"""``record``: what ``dataclass(frozen=True)`` gives a class, from closures, not
compiled source. A default is the class attribute, copied for each instance;
fields are set as ``dataclass`` sets them; a class's own ``__init__`` is kept."""

from copy import copy
from operator import attrgetter


def record(cls):
    names = tuple(cls.__annotations__)
    n, fields, put = len(names), tuple(enumerate(names)), object.__setattr__
    tails = [{*names[i:]} for i in range(n + 1)]
    defaults = {k: cls.__dict__[k] for k in names if k in cls.__dict__}
    post, get = getattr(cls, "__post_init__", None), attrgetter(*names) if n else lambda _: ()

    def __init__(self, *args, **kw):
        if kw or len(args) != n:
            if len(args) > n or not kw.keys() <= tails[len(args)] <= {*kw, *defaults}:
                raise TypeError(f"bad arguments for {cls.__name__}{names}: {len(args)}, {[*kw]}")
            args += tuple([kw[k] if k in kw else copy(defaults[k]) for k in names[len(args) :]])
        for i, k in fields:
            put(self, k, args[i])
        if post is not None:
            post(self)

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{k}={getattr(self, k)!r}' for k in names)})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    cls.__eq__ = lambda a, b: get(a) == get(b) if b.__class__ is a.__class__ else NotImplemented
    cls.__hash__, cls.__repr__ = lambda self: hash(get(self)), __repr__
    cls.__setattr__ = cls.__delattr__ = __setattr__
    cls.__init__ = cls.__dict__.get("__init__", __init__)
    return cls
