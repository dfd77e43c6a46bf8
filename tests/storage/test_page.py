"""Tests for the slotted page."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BadSlotError, PageError, PageFullError
from repro.storage.page import PAGE_SIZE, Page, records_per_page


class TestPageBasics:
    def test_new_page_is_empty(self):
        page = Page(3)
        assert page.page_id == 3
        assert page.slot_count == 0
        assert page.live_count() == 0

    def test_insert_and_read(self):
        page = Page(0)
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"

    def test_slots_are_sequential(self):
        page = Page(0)
        assert [page.insert(b"x") for _ in range(5)] == list(range(5))

    def test_empty_record_rejected(self):
        with pytest.raises(PageError):
            Page(0).insert(b"")

    def test_read_bad_slot(self):
        page = Page(0)
        with pytest.raises(BadSlotError):
            page.read(0)
        page.insert(b"a")
        with pytest.raises(BadSlotError):
            page.read(1)

    def test_paper_packing_nine_objects_per_page(self):
        """Section 6: 96-byte objects (+10-byte stored OID) pack 9/page."""
        assert records_per_page(106) == 9
        page = Page(0)
        for _ in range(9):
            page.insert(b"\x01" * 106)
        with pytest.raises(PageFullError):
            page.insert(b"\x01" * 106)

    def test_records_per_page_counts_the_inserts_a_page_accepts(self):
        """The closed form agrees with filling a fresh page, for every
        record size a page can be asked to hold."""
        for size in range(1, PAGE_SIZE + 1):
            page = Page(0)
            accepted = 0
            while page.fits(size):
                page.insert(b"\x01" * size)
                accepted += 1
            assert records_per_page(size) == accepted, size

    def test_free_space_decreases(self):
        page = Page(0)
        before = page.free_space
        page.insert(b"abcd")
        assert page.free_space == before - 4 - 4  # record + slot entry

    def test_fits(self):
        page = Page(0)
        assert page.fits(page.free_space - 4)
        assert not page.fits(page.free_space)


class TestDeleteUpdate:
    def test_delete_tombstones(self):
        page = Page(0)
        slot = page.insert(b"dead")
        page.delete(slot)
        with pytest.raises(BadSlotError):
            page.read(slot)
        assert page.live_count() == 0
        assert page.slot_count == 1  # tombstone remains

    def test_double_delete(self):
        page = Page(0)
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(BadSlotError):
            page.delete(slot)

    def test_delete_keeps_other_slots_valid(self):
        page = Page(0)
        a = page.insert(b"aaa")
        b = page.insert(b"bbb")
        page.delete(a)
        assert page.read(b) == b"bbb"

    def test_update_same_length(self):
        page = Page(0)
        slot = page.insert(b"old")
        page.update(slot, b"new")
        assert page.read(slot) == b"new"

    def test_update_wrong_length(self):
        page = Page(0)
        slot = page.insert(b"old")
        with pytest.raises(PageError):
            page.update(slot, b"longer")

    def test_update_deleted_slot(self):
        page = Page(0)
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(BadSlotError):
            page.update(slot, b"y")


class TestSerialization:
    def test_roundtrip(self):
        page = Page(9)
        page.insert(b"one")
        page.insert(b"two")
        page.delete(0)
        image = page.to_bytes()
        assert len(image) == PAGE_SIZE
        restored = Page.from_bytes(9, image)
        assert restored.read(1) == b"two"
        with pytest.raises(BadSlotError):
            restored.read(0)

    def test_wrong_id_rejected(self):
        image = Page(1).to_bytes()
        with pytest.raises(PageError):
            Page.from_bytes(2, image)

    def test_wrong_size_rejected(self):
        with pytest.raises(PageError):
            Page.from_bytes(0, b"\x00" * 10)

    def test_records_iterates_live_only(self):
        page = Page(0)
        page.insert(b"a")
        page.insert(b"b")
        page.insert(b"c")
        page.delete(1)
        assert list(page.records()) == [(0, b"a"), (2, b"c")]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.binary(min_size=1, max_size=40),
        min_size=1,
        max_size=20,
    )
)
def test_page_matches_model(records):
    """Insert/read over random records agrees with a list model."""
    page = Page(0)
    stored = []
    for record in records:
        if page.fits(len(record)):
            slot = page.insert(record)
            stored.append((slot, record))
    for slot, record in stored:
        assert page.read(slot) == record
    # Serialization preserves everything.
    restored = Page.from_bytes(0, page.to_bytes())
    for slot, record in stored:
        assert restored.read(slot) == record


# -- page images and copy on write --------------------------------------------


@st.composite
def page_programs(draw):
    """Random insert / delete / update sequences against one page.

    Slots and update lengths are drawn loosely, so a program also tries
    dead slots, out-of-range slots and wrong-length updates.
    """
    return draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), st.binary(min_size=1, max_size=60)),
                st.tuples(st.just("delete"), st.integers(-1, 12)),
                st.tuples(
                    st.just("update"),
                    st.integers(-1, 12),
                    st.integers(0, 255),  # fill byte
                    st.sampled_from([0, 0, 0, 1, -1]),  # length error
                ),
            ),
            max_size=30,
        )
    )


def apply_program(page, program, model=None):
    """Run ``program`` on ``page``; returns the model ``{slot: bytes|None}``.

    ``model`` is what the page holds before the program (empty page
    when ``None``); it is updated in place.
    """
    model = {} if model is None else model
    for op in program:
        if op[0] == "insert":
            record = op[1]
            if page.fits(len(record)):
                model[page.insert(record)] = record
            else:
                with pytest.raises(PageFullError):
                    page.insert(record)
        elif op[0] == "delete":
            slot = op[1]
            if model.get(slot) is not None:
                page.delete(slot)
                model[slot] = None
            else:
                with pytest.raises(BadSlotError):
                    page.delete(slot)
        else:
            _kind, slot, fill, error = op
            live = model.get(slot)
            length = (len(live) if live is not None else 3) + error
            record = bytes([fill]) * max(length, 1)
            if live is not None and len(record) == len(live):
                page.update(slot, record)
                model[slot] = record
            else:
                with pytest.raises((BadSlotError, PageError)):
                    page.update(slot, record)
    return model


def read_or_none(page, slot):
    try:
        return page.read(slot)
    except BadSlotError:
        return None


def slot_reads(page):
    """What ``read`` returns for every slot (``None`` for a dead one)."""
    return [read_or_none(page, slot) for slot in range(page.slot_count)]


def read_violations(page, model):
    """Slots where ``read`` disagrees with the model."""
    found = []
    for slot in range(-2, page.slot_count + 2):
        current = read_or_none(page, slot) if slot >= 0 else None
        if current != model.get(slot):
            found.append(("read", slot))
    return found


def image_violations(page_cls, program):
    """Where an image ``to_bytes`` handed out stopped meaning what it did.

    Records, before the program and after each operation, the image the
    page returns, a copy of its bytes and what every slot read.  The
    page must end as the model says, each image must still equal its
    bytes, a page built from it must read every slot as the page did
    then, and so must the page itself whenever its image is one
    recorded before.
    """
    page = page_cls(4)
    model = {}
    recorded = []
    found = []
    for step in range(len(program) + 1):
        if step:
            apply_program(page, program[step - 1 : step], model)
        image = page.to_bytes()
        reads = slot_reads(page)
        for earlier, _content, then in recorded:
            if earlier is image and reads != then:
                found.append(("page changed under its image", step))
        recorded.append((image, bytes(image), reads))
    found.extend(read_violations(page, model))
    for step, (image, content, reads) in enumerate(recorded):
        if image != content:
            found.append(("image written", step))
        if slot_reads(Page(4, bytes(image))) != reads:
            found.append(("image reads differently", step))
    return found


def cow_violations(page_cls, program):
    """Writes that reach an image the page was built from."""
    base = page_cls(5)
    loaded = apply_program(
        base, [op for op in program if op[0] == "insert"][:4]
    )
    image = base.to_bytes()
    original = bytes(image)
    found = []
    shared = page_cls(5, image)
    twin = page_cls(5, image)
    apply_program(shared, program, dict(loaded))
    if image != original or twin.to_bytes() != original:
        found.append("bytes image written")
    source = bytearray(original)
    private = page_cls(5, source)
    model = apply_program(private, program, dict(loaded))
    if bytes(source) != original:
        found.append("bytearray aliased")
    restored = page_cls(5, private.to_bytes())
    if restored.to_bytes() != private.to_bytes():
        found.append("round trip")
    if read_violations(restored, model):
        found.append("round trip lost records")
    return found


class _HandsOutItsBuffer(Page):
    """Mutant: ``to_bytes`` returns the live buffer, frozen or not."""

    __slots__ = ()

    def to_bytes(self):
        return self.buf


class _SharesItsImage(Page):
    """Mutant: writes into whatever buffer it was built from."""

    __slots__ = ()

    def __init__(self, page_id, data=None):
        super().__init__(page_id, data)
        if data is not None:
            self.buf = data


class TestHoldsAndCopyOnWrite:
    @settings(max_examples=80, deadline=None)
    @given(page_programs())
    def test_every_image_keeps_what_it_held(self, program):
        assert image_violations(Page, program) == []

    @settings(max_examples=60, deadline=None)
    @given(page_programs())
    def test_a_write_never_reaches_the_image(self, program):
        assert cow_violations(Page, program) == []

    def test_unwritten_page_hands_back_its_image(self):
        image = Page(2).to_bytes()
        assert Page(2, image).to_bytes() is image
        source = bytearray(image)
        assert Page(2, source).to_bytes() is not source

    def test_accessor_handing_out_its_buffer_is_caught(self):
        program = [("insert", b"abc"), ("update", 0, 0x7A, 0)]
        assert ("image written", 1) in image_violations(
            _HandsOutItsBuffer, program
        )

    def test_page_writing_its_image_is_caught(self):
        program = [("insert", b"abc"), ("update", 1, 0x7A, 0)]
        assert "bytearray aliased" in cow_violations(_SharesItsImage, program)
