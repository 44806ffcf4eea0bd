"""Self-time arithmetic and wrapper installation of the benchmark tracer."""

import sys
import types

import pytest

from spans import Tracer, self_times


class FakeClock:
    """A clock that returns scripted instants, one per reading."""

    def __init__(self, instants):
        self.instants = iter(instants)

    def __call__(self):
        return next(self.instants)


def test_self_times_of_nested_tree():
    # root [0, 10] > a [1, 6] > (b [2, 3], c [4, 5.5]); root > d [7, 9]
    starts = [0.0, 1.0, 2.0, 4.0, 7.0]
    ends = [10.0, 6.0, 3.0, 5.5, 9.0]
    parents = [-1, 0, 1, 1, 0]
    selfs = self_times(starts, ends, parents)
    assert selfs == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0])
    assert sum(selfs) == pytest.approx(ends[0] - starts[0])


def test_overlapping_children_count_once_and_clip_to_parent():
    # children [1, 4] and [3, 6] cover [1, 6]; a child running past the
    # parent's end is clipped to it
    selfs = self_times([0.0, 1.0, 3.0, 8.0], [10.0, 4.0, 6.0, 12.0], [-1, 0, 0, 0])
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tracer_spans_follow_the_call_stack():
    clock = FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 9.0])
    tracer = Tracer(clock)
    root = tracer.open("bench.pass")
    outer = tracer.open("a.outer")
    inner = tracer.open("b.inner")
    tracer.close(inner)
    tracer.close(outer)
    tracer.close(root)
    assert tracer.parents == [-1, 0, 1]
    summary = tracer.summary()
    assert summary["layer_self_s"] == pytest.approx({"bench": 6.0, "a": 2.0, "b": 1.0})
    assert summary["inclusive_s"]["a.outer"] == pytest.approx(3.0)


def test_install_patches_every_binding_and_uninstall_restores():
    library = types.ModuleType("fakelib")

    def square(x):
        return x * x

    def numbers(n):
        yield from range(n)

    class Model:
        def size(self):
            return 3

    library.square, library.numbers, library.Model = square, numbers, Model
    user = types.ModuleType("fakeuser")
    user.sq = square
    sys.modules["fakelib"], sys.modules["fakeuser"] = library, user
    seen = []
    tracer = Tracer()
    try:
        tracer.install([
            (library, "square", lambda t, args, kwargs, result: seen.append(result)),
            (library, "numbers", None),
            (library, "Model.size", None),
        ])
        assert user.sq(3) == 9 and library.square(2) == 4
        assert list(library.numbers(2)) == [0, 1]
        assert Model().size() == 3
        assert seen == [9, 4]
        assert tracer.calls == {"fakelib.square": 2, "fakelib.numbers": 1, "fakelib.Model.size": 1}
        # one span per generator resumption, including the final one
        assert tracer.names.count("fakelib.numbers") == 3
    finally:
        tracer.uninstall()
        del sys.modules["fakelib"], sys.modules["fakeuser"]
    assert user.sq is square and library.square is square
    assert library.numbers is numbers and Model.__dict__["size"].__name__ == "size"
    assert "__wrapped__" not in Model.__dict__["size"].__dict__
