"""The frozen records built by ``detlam._record.record``.

Each record must behave as the ``dataclass(frozen=True)`` it replaced: value
equality and hashing within its class, no assignment, defaults made for each
instance, its ``__post_init__`` checks, and the dataclass ``repr``. The oracle
is a real dataclass with the same field names, built here from the record's
field values.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

from detlam import combinat, grrcheck, kexpr, quotientlab
from detlam.exactalg import DomainError, StructureError
from detlam.kexpr import Atom, ChainScript, ChainStep, Lam, One, ScriptError, UnsupportedExpression

X = Atom("x")

# each record class and the positional arguments of one valid instance
SAMPLES = {
    kexpr.Atom: ("x",),
    kexpr.One: (),
    kexpr.Twist: (),
    kexpr.Dual: (X,),
    kexpr.Sym: (2, X),
    kexpr.Ten: (X, Atom("y")),
    kexpr.Lin: ((2, X), (-1, One())),
    kexpr.Push: ("b", X),
    kexpr.Lam: (X, 3),
    kexpr.LamProd: (Lam(X), Lam(Atom("y"), 2)),
    kexpr.RewriteAxiom: ("cancel", "a law", len),
    kexpr.ChainStep: ("cancel", 0, {"atom": "x"}, "a note", Lam(X)),
    kexpr.ChainScript: ("s", Lam(X), Lam(X), ()),
    kexpr.ChainReport: ("s", False, 2, "display mismatch", ({"step": 1},), False),
    quotientlab.GradedAlgebra: ((("x", 1, 1), ("y", 2, 0)),),
    quotientlab.FlatnessReport: ("FREE", 8, (1, 1), ("1", "x"), None, True, "a note"),
    combinat.CoeffTable: (1, (9, -6, 1)),
    grrcheck.ComboTerm: (2, 1, 0, True),
    grrcheck.UniversalReport: (1, (grrcheck.ComboTerm(1, 0, 0),), "ch", "td", "defect", True, False),
    grrcheck.AllLinesReport: (("h", "s"), (), ((1, 0), 2)),
    grrcheck.DeduceReport: (["a", "b"], [1, 0], True, [0, 0]),
}

CLASSES = sorted(SAMPLES, key=lambda cls: (cls.__module__, cls.__name__))
IDS = [cls.__name__ for cls in CLASSES]

CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ),
}


def fields(cls):
    return tuple(cls.__annotations__)


def values(rec):
    return tuple(getattr(rec, k) for k in fields(type(rec)))


def oracle(rec):
    """The frozen dataclass with ``rec``'s class name, fields and values."""
    cls = dataclasses.make_dataclass(type(rec).__name__, fields(type(rec)), frozen=True)
    return cls(*values(rec))


def test_samples_cover_every_record_class():
    found = set()
    for module in (combinat, grrcheck, kexpr, quotientlab):
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                if obj.__setattr__.__qualname__ == "record.<locals>.__setattr__":
                    found.add(obj)
    assert found == set(SAMPLES) and len(found) == 21


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
class TestEveryRecord:
    def test_equal_and_hash_by_field_values(self, cls):
        a, b = cls(*SAMPLES[cls]), cls(*SAMPLES[cls])
        assert a is not b and a == b and not a != b
        assert values(a) == values(b)
        try:
            want = hash(oracle(a))
        except TypeError:  # a dict or list field, as in the dataclass
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert {a: 1}[b] == 1
            if len(fields(cls)) != 1:  # the dataclass hashes a 1-tuple of one field
                assert hash(a) == want

    def test_unequal_to_another_class_with_the_same_values(self, cls):
        a = cls(*SAMPLES[cls])
        assert a != oracle(a) and oracle(a) != a
        assert a != values(a) and a != object()

    def test_unequal_when_one_field_differs(self, cls):
        a = cls(*SAMPLES[cls])
        for i, name in enumerate(fields(cls)):
            other = object.__new__(cls)
            for j, k in enumerate(fields(cls)):
                object.__setattr__(other, k, ("changed",) if i == j else getattr(a, k))
            assert a != other, name

    def test_assignment_raises(self, cls):
        a = cls(*SAMPLES[cls])
        for name in fields(cls) + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(a, name, 0)
        for name in fields(cls):
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == cls(*SAMPLES[cls])

    def test_repr_is_the_dataclass_form(self, cls):
        a = cls(*SAMPLES[cls])
        assert repr(a) == repr(oracle(a))
        assert repr(a).startswith(cls.__name__ + "(")

    def test_keywords_build_the_same_record(self, cls):
        a = cls(*SAMPLES[cls])
        if "__init__" in cls.__dict__:  # Ten, Lin and LamProd take their parts
            return
        by_name = dict(zip(fields(cls), SAMPLES[cls]))
        assert cls(**by_name) == a
        if by_name:
            rest = fields(cls)[1:]
            assert cls(SAMPLES[cls][0], **{k: by_name[k] for k in rest}) == a

    def test_bad_arguments_raise_type_error(self, cls):
        if "__init__" in cls.__dict__:
            return
        args = SAMPLES[cls]
        with pytest.raises(TypeError):
            cls(*args, None)  # one too many
        with pytest.raises(TypeError):
            cls(*args, not_a_field=1)
        if args:
            with pytest.raises(TypeError):
                cls(*args, **{fields(cls)[0]: args[0]})  # given twice
            with pytest.raises(TypeError):
                cls()  # the first field has no default


def test_repr_example():
    assert repr(Lam(X)) == "Lam(arg=Atom(name='x'), exp=1)"
    assert repr(kexpr.Ten(X)) == "Ten(factors=(Atom(name='x'),))"


def test_defaults():
    assert Lam(X).exp == 1 and Lam(X) == Lam(X, 1) == Lam(arg=X)
    assert grrcheck.ComboTerm(1, 2, 3).dual is False
    a = ChainStep("cancel", 0, expected=Lam(X))
    b = ChainStep("cancel", 0, expected=Lam(X))
    assert a.args == b.args == {} and a.args is not b.args
    assert (a.note, a.expected) == ("", Lam(X))


def test_a_class_keeps_its_own_init():
    assert kexpr.Ten(X, X).factors == (X, X)
    assert kexpr.LamProd(kexpr.LamProd(Lam(X)), Lam(X)).factors == (Lam(X), Lam(X))
    with pytest.raises(UnsupportedExpression):
        kexpr.LamProd(X)


def test_tree_caches_stay_out_of_equality():
    a, b = Lam(X), Lam(X)
    kexpr.normalize(a)
    assert "_canonical" in a.__dict__ and "_canonical" not in b.__dict__
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: kexpr.Sym(1.5, X), UnsupportedExpression),
        (lambda: Lam(X, "2"), UnsupportedExpression),
        (lambda: ChainStep("no-such-axiom", 0, {}, "", Lam(X)), ScriptError),
        (lambda: ChainStep("cancel", 0.5, {}, "", Lam(X)), ScriptError),
        (lambda: ChainStep("cancel", 0), ScriptError),
        (lambda: ChainScript("s", Lam(X), X, ()), ScriptError),
        (lambda: quotientlab.GradedAlgebra(()), StructureError),
        (lambda: quotientlab.GradedAlgebra((("x", 1, 2),)), StructureError),
        (lambda: combinat.CoeffTable(1, (9, -6, 2)), DomainError),
        (lambda: combinat.CoeffTable(0, (1,)), DomainError),
        (lambda: grrcheck.ComboTerm(1, 0, -1), DomainError),
    ],
    ids=[
        "sym-power",
        "lam-exponent",
        "step-axiom",
        "step-position",
        "step-expected",
        "script-end",
        "algebra-empty",
        "algebra-parity",
        "table-leading",
        "table-dim",
        "combo-sym",
    ],
)
def test_post_init_checks_still_raise(build, error):
    with pytest.raises(error):
        build()


def test_post_init_normalizes_fields():
    assert combinat.CoeffTable(1, [9, -6, 1]).entries == (9, -6, 1)
    algebra = quotientlab.GradedAlgebra([["x", 1, 1]])
    assert algebra.variables == (("x", 1, 1),)


def test_only_main_report_is_a_dataclass_after_import():
    probe = (
        "import sys, detlam.cli\n"
        "found = sorted(f'{m.__name__}.{k}' for m in list(sys.modules.values())\n"
        "    if m.__name__.startswith('detlam') for k, v in vars(m).items()\n"
        "    if isinstance(v, type) and v.__module__ == m.__name__\n"
        "    and '__dataclass_fields__' in vars(v))\n"
        "print(found)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['detlam.grrcheck.MainReport']"
