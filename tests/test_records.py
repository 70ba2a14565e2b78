"""The per-path and per-pair records are slotted frozen dataclasses: each
holds its fields in slots, with no instance dict, and still pickles,
deep-copies, goes through dataclasses.replace and converts with
dataclasses.asdict. vars() does not take them; fields() and asdict() do.

The tracers build their own Routes and facet images with geometry._record,
without the re-checks of public construction. Each must equal its public
twin, Route(vertices, facet_ids) and RmImage.from_planes of the facets'
planes: the same fields, each array with the same bytes, dtype, shape and
strides, held the same way. The garbage collector's referents of a slotted
record are the values its slots hold, so a field left unset shows there.
"""

import copy
import gc
import pickle
from dataclasses import asdict, fields, is_dataclass, replace

import numpy as np
import pytest

from reflectmimo import (
    GammaSolution,
    PairObservation,
    PwaPath,
    ReferencePair,
    RmImage,
    RmPath,
    Route,
    TracedPath,
    fit_rm_rt,
    to_pwa,
    trace_paths,
    trace_sequence,
)
from scenelib import random_scene, rich_room


def assert_same(got, want):
    """got holds want's values: the same type and fields, recursively, each
    array with the same bytes, dtype, shape and strides and each element of
    the same type; a dict where want is a record holds the record's fields,
    as asdict gives them."""
    if is_dataclass(want):
        names = [f.name for f in fields(want)]
        if isinstance(got, dict):
            assert list(got) == names
        else:
            assert type(got) is type(want)
        for name in names:
            mine = got[name] if isinstance(got, dict) else getattr(got, name)
            assert_same(mine, getattr(want, name))
    elif isinstance(want, np.ndarray):
        layout = (want.dtype, want.shape, want.strides, want.tobytes())
        assert (got.dtype, got.shape, got.strides, got.tobytes()) == layout
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want)
        for mine, value in zip(got, want):
            assert_same(mine, value)
    else:
        assert type(got) is type(want)
        assert got == want


def assert_same_record(got, want):
    """assert_same, and got holds its values the same way: the garbage
    collector's referents are the values of its slots."""
    assert [type(x) for x in gc.get_referents(got)] == [type(x) for x in gc.get_referents(want)]
    assert_same(got, want)


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


@pytest.fixture(scope="module")
def records() -> dict:
    """One record of each slotted type, from a traced bounce in a rich room."""
    scene, ref = rich_room(np.random.default_rng(0))
    traced = next(p for p in trace_paths(scene, ref.tx_ref, ref.rx_ref, 2) if p.bounces)
    pwa = to_pwa(traced, ref)
    return {
        Route: traced.route,
        TracedPath: traced,
        PwaPath: pwa,
        RmPath: fit_rm_rt(traced, ref),
        RmImage: traced.image,
        ReferencePair: ref,
        PairObservation: PairObservation(ref.tx_ref, ref.rx_ref, (pwa,)),
        GammaSolution: GammaSolution(s=-1, gamma=0.25, residual=1e-20),
    }


SLOTTED = pytest.mark.parametrize(
    "cls",
    [Route, TracedPath, PwaPath, RmPath, RmImage, ReferencePair, PairObservation, GammaSolution],
    ids=lambda cls: cls.__name__,
)


@SLOTTED
def test_record_holds_its_fields_in_slots(cls, records):
    record = records[cls]
    assert type(record) is cls
    declared = [name for k in reversed(cls.__mro__) for name in k.__dict__.get("__slots__", ())]
    assert list(dict.fromkeys(declared)) == [f.name for f in fields(cls)]
    assert not hasattr(record, "__dict__")
    with pytest.raises(TypeError):
        vars(record)


@SLOTTED
def test_record_round_trips(cls, records):
    record = records[cls]
    assert_same(pickle.loads(pickle.dumps(record)), record)
    assert_same(copy.deepcopy(record), record)
    assert_same(replace(record), record)
    assert_same(asdict(record), record)
