"""The record contract: every `Record` of the package constructs from
positional and keyword arguments alike, fills its defaults, validates in
`__post_init__`, refuses assignment, and compares by value only where its
class asks for it."""

import numpy as np
import pytest

import stlbayes as sb
from stlbayes import feasibility
from stlbayes.chance import AT_LEAST
from stlbayes.record import Record, replace
from stlbayes.rng import RngStream
from stlbayes.stl import TRUE, _children, _rebuild

from conftest import random_formula

_P = sb.LinearPredicate(0.5, (1.0, -1.0))
_LEAF = sb.ChanceConstraint(_P, 2, AT_LEAST, 0.9, "p", ("c0",))
_BOX = sb.Box([-1.0], [1.0])

# One valid field tuple per record class, positional order.
EXAMPLES = {
    RngStream: (7, ("a", 1)),
    sb.TrueNode: (),
    sb.LinearPredicate: (0.5, (1.0, -1.0)),
    sb.OutputPredicate: (0.5, (1.0,)),
    sb.Pred: ("p", _P),
    sb.Not: (TRUE,),
    sb.And: (TRUE, sb.Pred("p", _P)),
    sb.Or: (TRUE, sb.Pred("p", _P)),
    sb.Until: (TRUE, sb.Pred("p", _P), 1, 3),
    sb.Eventually: (sb.Pred("p", _P), 0, 2),
    sb.Always: (sb.Pred("p", _P), 0, 2),
    sb.ChanceConstraint: (_P, 2, AT_LEAST, 0.9, "p", ("c0",)),
    sb.DecompositionResult: ((_LEAF,),),
    sb.WeightScheme: ({"": [0.25, 0.75]},),
    sb.Box: ([0.0, 0.0], [1.0, 2.0], "feasible"),
    sb.ParametricLti: ([[0.5]], [[1.0]], [[1.0]], [[1.0]], ([[1.0]],),
                       [[0.1]], [[0.2]], _BOX),
    sb.DataSet: ([[0.1], [0.2]], [[1.0], [2.0]], [0.0]),
    sb.InputSampler: ("gaussian", -1.0, 1.0, 0.5, 2.0),
    sb.PosteriorDensity: (_BOX, len, 0.0, 1.0, 0.0, 0.0, 0, ()),
    sb.ConfidenceEstimate: (0.5, 0.5, "pwa", 10, 0.01, 0.1, 0.3, 0.9,
                            (0.4, 0.6), ()),
    feasibility._LeafGeometry: (2, 0.5, np.ones(2), np.zeros((2, 2)),
                                np.zeros(2), np.ones((2, 2)), np.eye(2),
                                -1.6, -np.ones(2), np.ones(2)),
}

# Records that compare and hash by value; every other one by identity.
BY_VALUE = {RngStream, sb.TrueNode, sb.LinearPredicate, sb.OutputPredicate,
            sb.Pred, sb.Not, sb.And, sb.Or, sb.Until, sb.Eventually,
            sb.Always, sb.ChanceConstraint, sb.DecompositionResult, sb.WeightScheme, sb.InputSampler,
            sb.ConfidenceEstimate}

records = pytest.mark.parametrize("cls", list(EXAMPLES),
                                  ids=lambda c: c.__name__)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_package_record_has_an_example():
    """A record with its own `__init__` (`Cells`) is outside the contract,
    and so are the two abstract bases that only add behaviour."""
    package = {c for c in _subclasses(Record)
               if c.__module__.startswith("stlbayes.")
               and "__init__" not in vars(c)}
    abstract = {sb.stl._Affine, sb.stl._Window}
    assert package - abstract == set(EXAMPLES)


@records
def test_positional_and_keyword_construction_agree(cls):
    values = EXAMPLES[cls]
    assert len(cls._fields) == len(values)
    by_position = cls(*values)
    by_name = cls(**dict(zip(cls._fields, values)))
    assert repr(by_position) == repr(by_name)
    assert repr(by_position).startswith(f"{cls.__qualname__}(")


@records
def test_arguments_are_checked(cls):
    values = EXAMPLES[cls]
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    if values:
        with pytest.raises(TypeError):  # given twice
            cls(*values, **{cls._fields[0]: values[0]})
        required = [n for n in cls._fields if n not in cls._defaults]
        if required:
            with pytest.raises(TypeError, match=repr(required[-1])):
                cls(*values[:cls._fields.index(required[-1])])


@records
def test_defaults_fill_the_missing_fields(cls):
    """Leaving a field out is passing its default, which `__post_init__`
    may then normalize (a `None` weight dict becomes `{}`)."""
    required = [n for n in cls._fields if n not in cls._defaults]
    values = EXAMPLES[cls][:len(required)]
    record = cls(*values)
    explicit = cls(*values, **cls._defaults)
    for name, default in cls._defaults.items():
        value = getattr(record, name)
        assert value == getattr(explicit, name)
        assert value == default or default is None


def test_a_default_factory_makes_one_object_per_record():
    """A mutable field defaults to `None`, and `__post_init__` puts a fresh
    object in its place for every record."""
    first, second = sb.WeightScheme(), sb.WeightScheme()
    assert first.weights == second.weights == {}
    assert first.weights is not second.weights


@pytest.mark.parametrize("make, error", [
    (lambda: sb.Box([1.0], [0.0]), ValueError),
    (lambda: sb.Box([0.0], [1.0, 2.0]), ValueError),
    (lambda: sb.Until(TRUE, TRUE, 3, 1), sb.StlError),
    (lambda: sb.Always(TRUE, 0, 1.5), sb.StlError),
    (lambda: sb.ChanceConstraint(_P, 1, AT_LEAST, 1.0), ValueError),
    (lambda: sb.ChanceConstraint(_P, 1, "sideways", 0.5), ValueError),
    (lambda: sb.WeightScheme({"": [0.5, 0.6]}), ValueError),
    (lambda: sb.InputSampler("uniform", low=1.0, high=0.0), ValueError),
    (lambda: sb.DataSet(np.zeros((0, 1)), np.zeros((0, 1)), [0.0]),
     ValueError),
    (lambda: sb.ParametricLti(*EXAMPLES[sb.ParametricLti][:7],
                              sb.Box([0.0, 0.0], [1.0, 1.0])), ValueError),
], ids=["box-order", "box-shape", "until-window", "always-integer",
        "leaf-threshold", "leaf-direction", "weights-sum", "sampler-range",
        "dataset-empty", "model-input-box"])
def test_post_init_still_validates(make, error):
    with pytest.raises(error):
        make()


def test_post_init_normalizes_fields():
    pred = sb.LinearPredicate(1, [2, 3])
    assert pred.offset == 1.0 and type(pred.offset) is float
    assert pred.gradient == (2.0, 3.0)
    box = sb.Box([[0, 1]], [2, 3])
    assert box.lower.dtype == float and box.lower.shape == (2,)


@records
def test_records_are_frozen(cls):
    record = cls(*EXAMPLES[cls])
    for name in cls._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == repr(cls(*EXAMPLES[cls]))


@records
def test_equality_by_value_or_by_identity(cls):
    first, second = cls(*EXAMPLES[cls]), cls(*EXAMPLES[cls])
    assert first == first and not first != first
    if cls in BY_VALUE:
        assert first == second
        if cls is not sb.WeightScheme:  # see the next test
            assert hash(first) == hash(second)
    else:
        assert first != second
        assert len({first, second}) == 2


def test_weights_compare_but_do_not_hash():
    """A dict field makes a value record unhashable, as a tuple holding a
    dict is."""
    assert sb.WeightScheme() == sb.WeightScheme()
    with pytest.raises(TypeError):
        hash(sb.WeightScheme())


def test_posterior_repr_leaves_out_the_prefetched_arrays():
    rows = np.zeros((3, 1))
    post = sb.PosteriorDensity(_BOX, len, 0.0, 1.0, 0.0, 0.0, 3,
                               ((rows, np.ones(3)),))
    assert "prefetched" not in repr(post)
    assert repr(post) == repr(replace(post, prefetched=()))
    assert repr(post).startswith(f"PosteriorDensity(prior={_BOX!r}, ")


def test_formula_value_semantics():
    gen = np.random.default_rng(5)
    for _ in range(100):
        seed = int(gen.integers(2 ** 32))
        f = random_formula(np.random.default_rng(seed), depth=3)
        g = random_formula(np.random.default_rng(seed), depth=3)
        assert f is not g or isinstance(f, sb.TrueNode)
        assert f == g and hash(f) == hash(g)
        assert {f: 1}[g] == 1
    left, right = sb.Pred("p", _P), TRUE
    assert sb.Eventually(left, 0, 1) != sb.Always(left, 0, 1)
    assert sb.LinearPredicate(0.5, (1.0,)) != sb.OutputPredicate(0.5, (1.0,))
    assert sb.Until(left, right, 0, 1) != sb.Until(left, right, 0, 2)
    assert sb.And(left, right) != sb.And(right, left)


def test_rebuild_replaces_the_children_and_revalidates():
    gen = np.random.default_rng(9)
    for _ in range(100):
        f = random_formula(gen, depth=3)
        assert _rebuild(f, _children(f)) == f
    p, q = sb.Pred("p", _P), sb.Pred("q", sb.LinearPredicate(0.0, (1.0, 0.0)))
    until = sb.Until(p, p, 1, 2)
    swapped = _rebuild(until, (q, TRUE))
    assert swapped == sb.Until(q, TRUE, 1, 2) and until.left == p
    assert replace(until, a=0) == sb.Until(p, p, 0, 2)
    with pytest.raises(sb.StlError):
        replace(until, a=5)
