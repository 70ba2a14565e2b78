"""The tracers build their own Routes and facet images with geometry._record,
without the re-checks of public construction. Each must equal its public
twin, Route(vertices, facet_ids) and RmImage.from_planes of the facets'
planes: the same fields, each array with the same bytes, dtype, shape and
strides, held the same way. CPython 3.11 keeps an instance's fields as
values laid out by keys its class shares, until something reads the
instance's __dict__; filling a record through __dict__.update makes that
dict, and the record takes about 1.6 times the memory. The garbage
collector's referents tell the two apart: the field values, or the dict.
(sys.getsizeof of __dict__ does not: reading it makes the dict on both
sides.)
"""

import gc

import numpy as np
import pytest

from reflectmimo import RmImage, Route, trace_paths, trace_sequence
from scenelib import random_scene, rich_room


def assert_same_record(got, want):
    assert type(got) is type(want)
    # before vars() below makes the dicts
    assert [type(x) for x in gc.get_referents(got)] == [type(x) for x in gc.get_referents(want)]
    assert list(vars(got)) == list(vars(want))
    for name, value in vars(want).items():
        mine = getattr(got, name)
        if isinstance(value, np.ndarray):
            layout = (value.dtype, value.shape, value.strides, value.tobytes())
            assert (mine.dtype, mine.shape, mine.strides, mine.tobytes()) == layout
        else:
            assert mine == value
            assert [type(x) for x in mine or ()] == [type(x) for x in value or ()]


def scenes():
    for seed in range(6):
        yield pytest.param(*rich_room(np.random.default_rng(seed)), 3, id=f"rich_room-{seed}")
    rng = np.random.default_rng(7)
    for k in range(4):
        yield pytest.param(*random_scene(rng), 2, id=f"random_scene-{k}")


@pytest.mark.parametrize("scene, ref, bounces", scenes())
def test_traced_records_equal_their_public_twins(scene, ref, bounces):
    paths = trace_paths(scene, ref.tx_ref, ref.rx_ref, bounces)
    assert any(p.bounces for p in paths)
    for p in paths:
        ids = p.route.facet_ids
        assert_same_record(p.route, Route(p.route.vertices, ids))
        planes = [(scene.facets[i].normal, scene.facets[i].intercept) for i in ids]
        assert_same_record(p.image, RmImage.from_planes(planes))
        # numpy integer indices come back as ints, as Route makes them
        for sequence in (ids, tuple(np.array(ids, dtype=np.int64))):
            route = trace_sequence(scene, sequence, ref.tx_ref, ref.rx_ref)
            assert_same_record(route, Route(route.vertices, ids))
            assert route.vertices.tobytes() == p.route.vertices.tobytes()
