"""Every value class declared with `records.record` behaves as the
`dataclasses.dataclass` it replaces, and the credit terms, which are tagged
tuples instead, keep the same contract.

Each class's twin is built by `dataclasses.make_dataclass` from the
class's declaration in the source: frozen, as every record and term is,
with each annotated field and its default or its default factory, and the
methods the class body defines.  The record or term and its twin are then
built in every form, printed, compared, hashed, frozen and replaced, and
must agree each time; a term hashes as its tuple (class, *fields) does
where a dataclass hashes its field tuple.  `record` takes no options and
`field` only ``default_factory``.
"""

import ast
import copy
import dataclasses
import importlib
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from timecredits import credits, records
from timecredits.assertions import Emp, Top
from timecredits.credits import (
    UNIT,
    AddE,
    CallAtom,
    CeilDivE,
    ConstE,
    ExprAtom,
    FloorDivE,
    MulE,
    SubE,
    UnitAtom,
    VarAtom,
    VarE,
)
from timecredits.heap import empty_heap
from timecredits.landau import PolyLog
from timecredits.recurrence import RecTerm

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "timecredits"
ABSENT = object()


def _declarations():
    """(module, class node, twin options) of every record class and every
    credit term class; each is frozen."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(("timecredits",) + path.relative_to(PACKAGE).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for deco in node.decorator_list:
                if isinstance(deco, ast.Name) and deco.id in ("record", "_term"):
                    yield module, node, {"frozen": True}


def _twin(module_name, node, options):
    """The record class, its dataclass twin and its fields as
    (name, required, built by a factory)."""
    module = importlib.import_module(module_name)
    cls = getattr(module, node.name)
    fields, spec = [], []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        name = stmt.target.id
        value = stmt.value
        if value is None:
            spec.append((name, object))
            fields.append((name, True, False))
        elif isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
            (factory,) = value.keywords  # `default_factory`, the one option `field` takes
            factory = eval(ast.unparse(factory.value), vars(module))
            spec.append((name, object, dataclasses.field(default_factory=factory)))
            fields.append((name, False, True))
        else:
            spec.append((name, object, cls.__dict__[name]))
            fields.append((name, False, False))
    body = {
        stmt.name: cls.__dict__[stmt.name]
        for stmt in node.body if isinstance(stmt, ast.FunctionDef)
    }
    # a term's bases are tuples, which a dataclass cannot build on
    bases = () if _is_term(cls) else cls.__bases__
    twin = dataclasses.make_dataclass(
        node.name, spec, bases=bases, namespace=body, frozen=options.get("frozen", False)
    )
    return cls, twin, fields


def _is_term(cls):
    return issubclass(cls, credits._Term)


TWINS = {decl[1].name: _twin(*decl) for decl in _declarations()}
RECORD_NAMES = sorted(name for name, (cls, _, _) in TWINS.items() if not _is_term(cls))

# the classes whose __post_init__ checks its fields: two valid argument
# tuples each, which differ
SAMPLES = {
    "PartialHeap": ((empty_heap(), frozenset(), 3), (empty_heap(), frozenset(), 4)),
    "Credits": ((2,), (3,)),
    "ThetaWitness": ((Fraction(1), Fraction(2), 3), (Fraction(1), Fraction(5, 2), 3)),
    "RecTerm": ((Fraction(2), Fraction(1, 2)), (Fraction(2), Fraction(1, 3), "floor")),
    "AkraBazziSpec": (
        (1, [RecTerm(Fraction(2), Fraction(1, 2))], PolyLog(1, 0)),
        (2, [RecTerm(Fraction(1), Fraction(1, 2))], PolyLog(0, 0), None, None, {0: 1}, "x"),
    ),
    "LinearRecSpec": ((1, {1: 2}), (2, {0: 1, 1: 2}, {1: 5}, 1)),
}


def _samples(name, fields):
    """Two argument tuples for the class, the first of its required
    fields only."""
    if name in SAMPLES:
        return SAMPLES[name]
    required = [f"a:{field}" for field, needed, _ in fields if needed]
    full = [f"b:{field}" for field, _, _ in fields]
    return tuple(required), tuple(full)


def _outcome(build):
    """What a call gives: its value, or the type of what it raised."""
    try:
        return "value", build()
    except Exception as exc:  # the two sides must raise alike
        return "raises", type(exc)


def _state(obj, fields):
    """Everything observable of an instance: repr and field values."""
    return repr(obj), [getattr(obj, name, ABSENT) for name, *_ in fields]


def _hash_key(obj, fields):
    """What obj's hash must equal: a term's tuple (class, *fields), or a
    dataclass twin's field tuple."""
    values = tuple(getattr(obj, name) for name, *_ in fields)
    return (type(obj), *values) if _is_term(type(obj)) else values


def _agree(cls, twin, fields, make):
    """make(cls) and make(twin) give the same state, or raise alike."""
    def observed(c):
        return _outcome(lambda: _state(make(c), fields))
    assert observed(cls) == observed(twin)


@pytest.mark.parametrize("name", sorted(TWINS))
def test_construction_forms_match_the_dataclass(name):
    cls, twin, fields = TWINS[name]
    assert cls.__match_args__ == twin.__match_args__
    init = [field for field, _, _ in fields]
    for args in _samples(name, fields):
        keywords = dict(zip(init, args))
        forms = [
            lambda c: c(*args),
            lambda c: c(**keywords),
            lambda c: c(*args[:1], **dict(list(keywords.items())[1:])),
            lambda c: c(*args, "one too many", *[None] * len(init)),
            lambda c: c(*args, no_such_field=1),
        ]
        if args:
            forms.append(lambda c: c(*args, **{init[0]: args[0]}))
        if any(needed for _, needed, _ in fields):
            forms.append(lambda c: c())
        for make in forms:
            _agree(cls, twin, fields, make)


@pytest.mark.parametrize("name", sorted(TWINS))
def test_equality_hash_and_repr_match_the_dataclass(name):
    cls, twin, fields = TWINS[name]
    first, second = _samples(name, fields)
    sides = []
    for c in (cls, twin):
        a, b, other = c(*first), c(*first), c(*second)
        if _is_term(cls):
            hashed = _outcome(lambda: hash(a) == hash(_hash_key(a, fields)))
        else:
            hashed = _outcome(lambda: hash(a))
        sides.append((
            a == b, a != b, a == other, a != other, a == object(), a.__eq__(object()),
            _outcome(lambda: hash(a) == hash(b)), hashed,
            repr(a), repr(other), c.__hash__ is None,
        ))
    assert sides[0] == sides[1]


@pytest.mark.parametrize("name", sorted(TWINS))
def test_immutability_and_default_factories_match_the_dataclass(name):
    cls, twin, fields = TWINS[name]
    first, _ = _samples(name, fields)
    for target in (fields[0][0] if fields else "x", "not_a_field"):
        def assign(c):
            obj = c(*first)
            setattr(obj, target, "new")
            return obj
        _agree(cls, twin, fields, assign)

        def delete(c):
            obj = c(*first)
            delattr(obj, target)
            return obj
        _agree(cls, twin, fields, delete)
    for field, _, by_factory in fields:
        if by_factory:
            a, b = cls(*first), cls(*first)
            assert getattr(a, field) == getattr(twin(*first), field)
            assert getattr(a, field) is not getattr(b, field)


@pytest.mark.parametrize("name", sorted(TWINS))
def test_replace_matches_the_dataclass(name):
    cls, twin, fields = TWINS[name]
    first, second = _samples(name, fields)
    init = [field for field, _, _ in fields]
    for changes in ({}, dict(zip(init, second))):
        got = records.replace(cls(*first), **changes)
        assert _state(got, fields) == _state(dataclasses.replace(twin(*first), **changes), fields)


def test_every_record_class_has_a_twin():
    assert len(RECORD_NAMES) == 32
    assert len(TWINS) - len(RECORD_NAMES) == 11


def test_record_and_field_take_no_other_options():
    for build in (
        lambda: records.field(init=False),
        lambda: records.field(default=1),
        lambda: records.field(hash=False),
        lambda: records.record(frozen=True),
    ):
        with pytest.raises(TypeError):
            build()

    @records.record
    class Holder:
        items: dict = records.field(default_factory=dict)

    a, b = Holder(), Holder()
    assert a.items == {} and a.items is not b.items and "items" not in vars(Holder)


def test_same_fields_in_different_classes_are_unequal():
    ta, tb = TWINS["Emp"][1](), TWINS["Top"][1]()
    a, b = Emp(), Top()
    assert (a == b, a != b, hash(a) == hash(b)) == (ta == tb, ta != tb, hash(ta) == hash(tb))
    assert (a == b, a != b) == (False, True)
    # a term's class is part of its value
    term, atom = VarE("n"), VarAtom("n")
    assert (term == atom, term != atom, {term: 1}.get(atom)) == (False, True, None)


def test_no_class_is_a_dataclass_after_the_cli_is_imported():
    code = (
        "import sys, timecredits, timecredits.cli\n"
        "print(sorted(f'{m}.{k}' for m, mod in list(sys.modules.items())"
        " if m.startswith('timecredits') for k, v in vars(mod).items()"
        " if isinstance(v, type) and hasattr(v, '__dataclass_params__')))\n"
        "print('dataclasses' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.split() == ["[]", "False"]


def test_a_reloaded_rec_term_hashes_as_its_field_tuple(tmp_path):
    # hashed and pickled under one seed and loaded under another, a frozen
    # record hashes as its own field tuple does in the loading process, and
    # a credit term as a fresh term does
    build = (
        "import pickle, sys\n"
        "from fractions import Fraction\n"
        "from timecredits.credits import CallAtom, FloorDivE, VarE\n"
        "from timecredits.recurrence import RecTerm\n"
        "rec = RecTerm(Fraction(1), Fraction(1, 2), 'floor')\n"
        "term = CallAtom('f', (FloorDivE(VarE('n'), 2),))\n"
        "hash(rec), hash(term)\n"
        "open(sys.argv[1], 'wb').write(pickle.dumps((rec, term)))\n"
    )
    load = (
        "import pickle, sys\n"
        "from fractions import Fraction\n"
        "from timecredits.credits import CallAtom, FloorDivE, VarE\n"
        "from timecredits.recurrence import RecTerm\n"
        "rec, term = pickle.loads(open(sys.argv[1], 'rb').read())\n"
        "fresh_rec = RecTerm(Fraction(1), Fraction(1, 2), 'floor')\n"
        "fresh = CallAtom('f', (FloorDivE(VarE('n'), 2),))\n"
        "print(rec == fresh_rec, hash(rec) == hash(fresh_rec)"
        " == hash((Fraction(1), Fraction(1, 2), 'floor')), {fresh_rec: 1}.get(rec))\n"
        "print(term == fresh, hash(term) == hash(fresh), {fresh: 1}.get(term))\n"
    )
    dump = tmp_path / "values.pickle"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for code, seed in ((build, "1"), (load, "2")):
        done = subprocess.run([sys.executable, "-c", code, str(dump)], capture_output=True,
                              text=True, check=True, env={**env, "PYTHONHASHSEED": seed})
    assert done.stdout.split() == ["True", "True", "1"] * 2


# ---------------------------------------------------------------------------
# credit terms: tuples (class, *fields), declared with `credits._term`
# ---------------------------------------------------------------------------

_N = VarE("n")
# per term class: its fields, and two argument tuples that differ
TERMS = {
    VarE: (("name",), ("n",), ("m",)),
    ConstE: (("value",), (3,), (4,)),
    AddE: (("left", "right"), (_N, ConstE(1)), (_N, ConstE(2))),
    SubE: (("left", "right"), (_N, ConstE(1)), (ConstE(1), _N)),
    MulE: (("factor", "inner"), (2, _N), (3, _N)),
    FloorDivE: (("inner", "divisor"), (_N, 2), (_N, 3)),
    CeilDivE: (("inner", "divisor"), (_N, 2), (MulE(7, _N), 10)),
    UnitAtom: ((), (), ()),
    VarAtom: (("name",), ("n",), ("m",)),
    ExprAtom: (("expr",), (FloorDivE(_N, 2),), (CeilDivE(_N, 2),)),
    CallAtom: (("fn", "args"), ("f", (FloorDivE(_N, 2),)), ("f", (SubE(_N, FloorDivE(_N, 2)),))),
}
ALL_TERMS = [cls(*args) for cls, (_, args, other) in TERMS.items()] + [
    cls(*other) for cls, (_, args, other) in TERMS.items()
]


def test_every_term_class_is_listed():
    declared = {
        v for v in vars(credits).values()
        if isinstance(v, type) and issubclass(v, credits._Term) and "__match_args__" in vars(v)
    }
    assert declared == set(TERMS)
    assert {TWINS[cls.__name__][0] for cls in TERMS} == declared


@pytest.mark.parametrize("cls", TERMS, ids=lambda cls: cls.__name__)
def test_term_construction_forms_and_arity_errors(cls):
    names, args, _ = TERMS[cls]
    keywords = dict(zip(names, args))
    term = cls(*args)
    assert cls.__match_args__ == names
    assert type(term) is cls and tuple(term) == (cls, *args)
    assert [getattr(term, name) for name in names] == list(args)
    assert cls(**keywords) == term
    assert cls(*args[:1], **dict(list(keywords.items())[1:])) == term
    bad = [
        lambda: cls(*args, "one too many"),
        lambda: cls(*args, no_such_field=1),
        lambda: cls(*args, **{"no_such_field": 1}),
    ]
    if args:
        bad += [
            lambda: cls(),
            lambda: cls(*args[:-1]),
            lambda: cls(*args, **{names[0]: args[0]}),
            lambda: cls(**dict(list(keywords.items())[1:])),
        ]
    for build in bad:
        with pytest.raises(TypeError):
            build()


def test_term_repr_of_nested_terms():
    window = SubE(SubE(_N, FloorDivE(_N, 2)), ConstE(1))
    assert repr(CallAtom("bsearch_time", (window,))) == "bsearch_time(((n - (n div 2)) - 1))"
    assert repr(CallAtom("g", (_N, AddE(MulE(2, CeilDivE(_N, 5)), ConstE(3))))) == (
        "g(n, (2*ceil(n/5) + 3))"
    )
    assert repr(ExprAtom(CeilDivE(MulE(7, _N), 10))) == "ceil(7*n/10)"
    assert [repr(UNIT), repr(VarAtom("n")), repr(ConstE(0))] == ["1", "n", "0"]
    assert f"{CallAtom('f', ())}" == str(CallAtom("f", ())) == "f()"


@pytest.mark.parametrize("cls", TERMS, ids=lambda cls: cls.__name__)
def test_term_equality_hash_and_repr_are_by_class_and_fields(cls):
    _, args, other = TERMS[cls]
    a, b, c = cls(*args), cls(*args), cls(*other)
    assert (a == b, a != b, hash(a) == hash(b), {b: 1}.get(a), repr(a) == repr(b)) == (
        True, False, True, 1, True)
    if args != other:
        assert (a == c, a != c, repr(a) == repr(c)) == (False, True, False)
    assert all(a != t and not a == t for t in ALL_TERMS if type(t) is not cls)
    assert a != object() and a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("cls", TERMS, ids=lambda cls: cls.__name__)
def test_term_fields_cannot_be_assigned_or_deleted(cls):
    names, args, _ = TERMS[cls]
    term = cls(*args)
    for name in (*names, "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(term, name, "new")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(term, name)
    assert tuple(term) == (cls, *args) and not hasattr(term, "__dict__")


@pytest.mark.parametrize("other", [VarE("m"), VarAtom("n"), ("n",), (), 2], ids=repr)
def test_terms_have_no_order_and_no_tuple_arithmetic(other):
    term = VarE("n")
    for op in (
        lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b,
        lambda a, b: a + b, lambda a, b: a * b,
    ):
        for a, b in ((term, other), (other, term), (term, term)):
            with pytest.raises(TypeError):
                op(a, b)


@pytest.mark.parametrize("cls", TERMS, ids=lambda cls: cls.__name__)
def test_replace_builds_a_term_with_fields_changed(cls):
    names, args, other = TERMS[cls]
    term = cls(*args)
    assert records.replace(term) == term
    changed = records.replace(term, **dict(zip(names, other)))
    assert type(changed) is cls and changed == cls(*other)
    if names:
        with pytest.raises(TypeError):
            records.replace(term, no_such_field=1)


@pytest.mark.parametrize("cls", TERMS, ids=lambda cls: cls.__name__)
def test_terms_survive_copy_and_pickle(cls):
    _, args, other = TERMS[cls]
    for term in (cls(*args), cls(*other)):
        twins = [copy.copy(term), copy.deepcopy(term), copy.deepcopy([term, term])[1]]
        twins += [pickle.loads(pickle.dumps(term, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert type(twin) is cls and twin == term and hash(twin) == hash(term)
            assert repr(twin) == repr(term)
