"""The per-path and per-pair records are slotted frozen dataclasses: each
holds its fields in slots, with no instance dict, and still pickles,
deep-copies, goes through dataclasses.replace and converts with
dataclasses.asdict. vars() does not take them; fields() and asdict() do.

The pipeline builds its own records with geometry._record, without the
re-checks of public construction: the tracers their Routes, TracedPaths
and facet images, to_pwa, fit_rm_rt and fit_rm_dp their paths. Each must
equal its public twin, the record its constructor makes of the same field
values, or RmImage.from_planes of the facets' planes: the same fields, each
array with the same bytes, dtype, shape and strides and each number of the
same type, held the same way. The garbage collector's referents of a slotted
record are the values its slots hold, so a field left unset shows there.

Public construction checks every field annotated float, complex or
float | None of every record the package exports, found here from the
annotations: each of BAD_REALS raises a ValueError there.
"""

import copy
import gc
import pickle
from dataclasses import asdict, fields, is_dataclass, replace
from typing import get_type_hints

import numpy as np
import pytest

import reflectmimo
from reflectmimo import (
    C_LIGHT,
    Facet,
    GammaSolution,
    LinkBudget,
    PairObservation,
    PwaPath,
    RateModel,
    ReferencePair,
    RmImage,
    RmPath,
    Route,
    Scene,
    TracedPath,
    fit_rm_dp,
    fit_rm_rt,
    make_facet,
    to_pwa,
    trace_paths,
    trace_sequence,
)
from reflectmimo import fileio
from scenelib import BAD_REALS, observe, random_scene, rich_room


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


def twin(record):
    """The record its public constructor makes of record's field values."""
    return type(record)(*[getattr(record, f.name) for f in fields(record)])


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
        for record in (p, to_pwa(p, ref), fit_rm_rt(p, ref)):
            assert_same_record(record, twin(record))
        planes = [(scene.facets[i].normal, scene.facets[i].intercept) for i in ids]
        assert_same_record(p.image, RmImage.from_planes(planes))
        # numpy integer indices come back as ints, as Route makes them
        for sequence in (ids, tuple(np.array(ids, dtype=np.int64))):
            route = trace_sequence(scene, sequence, ref.tx_ref, ref.rx_ref)
            assert_same_record(route, Route(route.vertices, ids))
            assert route.vertices.tobytes() == p.route.vertices.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_displaced_pair_fit_equals_its_public_twins(seed):
    scene, ref = rich_room(np.random.default_rng(seed))
    reference, _ = observe(scene, ref.tx_ref, ref.rx_ref)
    # two displaced pairs a few millimetres off the reference
    displaced = [
        observe(scene, ref.tx_ref + offset, ref.rx_ref - offset)[0]
        for offset in (np.array([0.004, 0.0, 0.0]), np.array([0.0, 0.003, 0.002]))
    ]
    fitted = fit_rm_dp(reference, displaced, ref)
    assert fitted
    for path in fitted:
        assert_same_record(path, twin(path))


# computed results the package returns, not arguments: no constructor checks them
RESULTS = ("SweepCell", "GammaSolution", "ErrorRecord")
TX, RX = np.array([0.0, 0.0, 1.0]), np.array([4.0, 0.0, 1.0])
# one valid instance of each public record with a real or complex field
VALID = {
    LinkBudget: LinkBudget(),
    RateModel: RateModel(),
    PwaPath: PwaPath(1.0 + 0j, 1e-8, 0.1, 0.2, 0.3, 0.4),
    RmPath: RmPath(1.0 + 0j, 1e-8, 0.1, 0.2, 0.3, 0.4, 0.5, -1),
    Facet: make_facet((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), half_u=1.0, half_v=2.0),
    Scene: Scene(facets=(), carrier_freq=28e9),
    TracedPath: TracedPath(Route(np.array([TX, RX])), 1.0 + 0j, 4.0 / C_LIGHT),
    fileio.PathExport: fileio.PathExport(TX, RX, 28e9, ()),
}


def real_fields():
    """(record class, field) for every field set at construction and annotated
    float, complex or float | None of every dataclass exported by the package
    or fileio, RESULTS apart."""
    for module in (reflectmimo, fileio):
        for name in module.__all__:
            cls = getattr(module, name)
            if not (isinstance(cls, type) and is_dataclass(cls)) or name in RESULTS:
                continue
            hints = get_type_hints(cls)
            for f in fields(cls):
                if f.init and hints[f.name] in (float, complex, float | None):
                    yield pytest.param(cls, f.name, id=f"{name}.{f.name}")


@pytest.mark.parametrize("bad", BAD_REALS.values(), ids=BAD_REALS.keys())
@pytest.mark.parametrize("cls, name", real_fields())
def test_every_real_field_of_a_public_record_is_checked(cls, name, bad):
    # PwaPath(True, True, 0, 0, 0, 0) and TracedPath(route, "x", nan) constructed
    assert cls in VALID, f"{cls.__name__} has a real field and no valid instance here"
    with pytest.raises(ValueError):
        replace(VALID[cls], **{name: bad})


def test_every_record_with_a_real_field_is_found():
    found = {param.values[0] for param in real_fields()}
    assert found == set(VALID)


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
