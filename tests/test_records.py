"""Every value class declared with `records.record` behaves as the
`dataclasses.dataclass` it replaces.

Each class's twin is built by `dataclasses.make_dataclass` from the class's
declaration in the source: the decorator's `frozen`, each annotated field
with its default or its `field(...)` options, and the methods the class
body defines.  The record and its twin are then built in every form,
printed, compared, hashed, frozen and replaced, and must agree each time.
"""

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from timecredits import records
from timecredits.assertions import Emp, Top
from timecredits.credits import VarAtom, VarE
from timecredits.heap import empty_heap
from timecredits.landau import PolyLog
from timecredits.recurrence import RecTerm

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "timecredits"
ABSENT = object()


def _declarations():
    """(module, class node, decorator keywords) of every record class."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(("timecredits",) + path.relative_to(PACKAGE).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for deco in node.decorator_list:
                call = deco if isinstance(deco, ast.Call) else None
                name = call.func if call else deco
                if isinstance(name, ast.Name) and name.id == "record":
                    keywords = call.keywords if call else ()
                    yield module, node, {kw.arg: ast.literal_eval(kw.value) for kw in keywords}


def _twin(module_name, node, options):
    """The record class, its dataclass twin and its fields as
    (name, init, required, built by a factory)."""
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
            fields.append((name, True, True, False))
        elif isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
            kwargs = {kw.arg: eval(ast.unparse(kw.value), vars(module)) for kw in value.keywords}
            if "default" in kwargs:
                kwargs["default"] = cls.__dict__[name]  # the very object the record keeps
            spec.append((name, object, dataclasses.field(**kwargs)))
            init = kwargs.get("init", True)
            required = "default" not in kwargs and "default_factory" not in kwargs
            fields.append((name, init, init and required, "default_factory" in kwargs))
        else:
            spec.append((name, object, cls.__dict__[name]))
            fields.append((name, True, False, False))
    body = {
        stmt.name: cls.__dict__[stmt.name]
        for stmt in node.body if isinstance(stmt, ast.FunctionDef)
    }
    twin = dataclasses.make_dataclass(
        node.name, spec, bases=cls.__bases__, namespace=body, frozen=options.get("frozen", False)
    )
    return cls, twin, fields


TWINS = {decl[1].name: _twin(*decl) for decl in _declarations()}

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
    required = [f"a:{field}" for field, _, needed, _ in fields if needed]
    full = [f"b:{field}" for field, init, _, _ in fields if init]
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


def _agree(cls, twin, fields, make):
    """make(cls) and make(twin) give the same state, or raise alike."""
    def observed(c):
        return _outcome(lambda: _state(make(c), fields))
    assert observed(cls) == observed(twin)


@pytest.mark.parametrize("name", sorted(TWINS))
def test_construction_forms_match_the_dataclass(name):
    cls, twin, fields = TWINS[name]
    assert cls.__match_args__ == twin.__match_args__
    init = [field for field, is_init, _, _ in fields if is_init]
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
        if any(needed for _, _, needed, _ in fields):
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
        sides.append((
            a == b, a != b, a == other, a != other, a == object(), a.__eq__(object()),
            _outcome(lambda: hash(a) == hash(b)), _outcome(lambda: hash(a)),
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
    for field, _, _, by_factory in fields:
        if by_factory:
            a, b = cls(*first), cls(*first)
            assert getattr(a, field) == getattr(twin(*first), field)
            assert getattr(a, field) is not getattr(b, field)


@pytest.mark.parametrize("name", sorted(TWINS))
def test_replace_matches_the_dataclass(name):
    cls, twin, fields = TWINS[name]
    first, second = _samples(name, fields)
    init = [field for field, is_init, _, _ in fields if is_init]
    for changes in ({}, dict(zip(init, second))):
        got = records.replace(cls(*first), **changes)
        assert _state(got, fields) == _state(dataclasses.replace(twin(*first), **changes), fields)


def test_every_record_class_has_a_twin():
    assert len(TWINS) == 43


def test_same_fields_in_different_classes_are_unequal():
    twins = {name: TWINS[name][1] for name in ("VarE", "VarAtom", "Emp", "Top")}
    for (a, b), (ta, tb) in (
        ((VarE("n"), VarAtom("n")), (twins["VarE"]("n"), twins["VarAtom"]("n"))),
        ((Emp(), Top()), (twins["Emp"](), twins["Top"]())),
    ):
        assert (a == b, a != b, hash(a) == hash(b)) == (ta == tb, ta != tb, hash(ta) == hash(tb))
        assert (a == b, a != b) == (False, True)


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


def test_a_kept_hash_is_not_carried_across_string_hash_seeds(tmp_path):
    # hashed and pickled under one seed and loaded under another, a credit
    # term hashes as its own field tuple does in the loading process
    dump = tmp_path / "term.pickle"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    build = (
        "import pickle, sys\n"
        "from timecredits.credits import CallAtom, FloorDivE, VarE\n"
        "term = CallAtom('f', (FloorDivE(VarE('n'), 2),))\n"
        "hash(term)\n"
        "open(sys.argv[1], 'wb').write(pickle.dumps(term))\n"
    )
    load = (
        "import pickle, sys\n"
        "from timecredits.credits import CallAtom, FloorDivE, VarE\n"
        "term = pickle.loads(open(sys.argv[1], 'rb').read())\n"
        "fresh = CallAtom('f', (FloorDivE(VarE('n'), 2),))\n"
        "print(term == fresh, hash(term) == hash(fresh) == hash(('f', fresh.args)),"
        " {fresh: 1}.get(term))\n"
    )
    for code, seed in ((build, "1"), (load, "2")):
        done = subprocess.run([sys.executable, "-c", code, str(dump)], capture_output=True,
                              text=True, check=True, env={**env, "PYTHONHASHSEED": seed})
    assert done.stdout.split() == ["True", "True", "1"]
