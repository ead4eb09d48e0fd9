"""The flat pickle form of :class:`Segment`.

A segment pickles as one reconstructor call over
``(start.x, start.y, end.x, end.y, label, _fp)``.  These tests pin that
it round-trips exactly — coordinates with their types, the label and the
float-filter coefficients — through the allowlisted unpickler every
decoder uses, and that bytes in the older slot-state form still decode.
"""

import copyreg
import io
import pickle
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Segment
from repro.iosim import restricted_loads

#: Small ints, ints past 2**53, and ints with no finite double at all.
ints = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-(2 ** 70), 2 ** 70),
    st.sampled_from([10 ** 400, -(10 ** 400)]),
)
fractions = st.builds(Fraction, st.integers(-(10 ** 6), 10 ** 6),
                      st.integers(1, 10 ** 6))
coords = st.one_of(ints, fractions)
labels = st.one_of(
    st.none(),  # the default label: the endpoint-tuple pair
    st.integers(),
    st.text(max_size=8),
    st.tuples(st.text(max_size=3), st.integers()),
)


@st.composite
def segments(draw):
    x1, y1, y2 = draw(coords), draw(coords), draw(coords)
    # Vertical segments (shared x) are their own case in the filter.
    x2 = draw(st.one_of(st.just(x1), coords))
    assume((x1, y1) != (x2, y2))
    return Segment.from_coords(x1, y1, x2, y2, label=draw(labels))


def _assert_same(got: Segment, want: Segment) -> None:
    assert type(got) is Segment
    assert got.start == want.start and got.end == want.end
    for a, b in ((got.start, want.start), (got.end, want.end)):
        assert type(a) is Point
        assert (type(a.x), type(a.y)) == (type(b.x), type(b.y))
    assert got.label == want.label
    assert got._fp == want._fp
    assert got == want and hash(got) == hash(want)


def _slot_state_dumps(obj) -> bytes:
    """Pickle ``obj`` with segments and points in the default slot-state
    form (``__newobj__`` plus ``(None, slots)``) that files and frames
    written before the flat form carry."""

    class SlotStatePickler(pickle.Pickler):
        def reducer_override(self, o):
            if type(o) in (Segment, Point):
                slots = {name: getattr(o, name) for name in type(o).__slots__}
                return copyreg.__newobj__, (type(o),), (None, slots)
            return NotImplemented

    out = io.BytesIO()
    SlotStatePickler(out, pickle.HIGHEST_PROTOCOL).dump(obj)
    return out.getvalue()


@given(segments())
@example(Segment.from_coords(0, 0, 10 ** 400, 1))  # no finite float: _fp None
@example(Segment.from_coords(4, 1, 4, 9))  # vertical
@example(Segment.from_coords(3, 1, 0, 2))  # default label, swapped ends
@settings(max_examples=300, deadline=None)
def test_round_trip_is_exact(seg):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        _assert_same(restricted_loads(pickle.dumps(seg, protocol)), seg)


@given(segments())
@settings(max_examples=100, deadline=None)
def test_slot_state_form_still_decodes(seg):
    _assert_same(restricted_loads(_slot_state_dumps(seg)), seg)


def test_flat_form_is_smaller_than_slot_state():
    batch = [Segment.from_coords(i, i + 1, i + 7, 3 * i, label=("g", i))
             for i in range(64)]
    flat = pickle.dumps(batch, pickle.HIGHEST_PROTOCOL)
    assert b"Point" not in flat
    assert len(flat) < 0.75 * len(_slot_state_dumps(batch))
    assert restricted_loads(flat) == batch
