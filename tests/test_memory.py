"""Known answers for the load and store paths the ISS and the pipeline share.

Lockstep runs cannot catch a fault in `machine.load_from` or
`machine.store_effect`, because both executors call them. The expected
values here come from `int.from_bytes` and `bytearray` slices of the
little-endian word, not from either model.
"""

import pytest

from glitchbench import machine

BASE = 0x2000                        # a word-aligned data address
WORDS = (0x80FF7F81, 0xF00D8E01, 0x7F80FF00)  # sign bits set in many lanes
VALUE = 0xC3A59681                   # stored; every byte has its sign bit set
LOADS = {"lb": (1, True), "lbu": (1, False), "lh": (2, True),
         "lhu": (2, False), "lw": (4, False)}
STORES = {"sb": 1, "sh": 2, "sw": 4}


def _state(word=None, strict=False):
    mem = {} if word is None else {BASE >> 2: word}
    return machine.ArchState(mem=mem, strict=strict)


def _aligned(width):
    return [off for off in range(4) if off % width == 0]


def _misaligned(width):
    return [off for off in range(4) if off % width]


@pytest.mark.parametrize("word", WORDS)
@pytest.mark.parametrize("mnemonic", LOADS)
def test_loads_extract_and_extend_every_aligned_lane(mnemonic, word):
    width, signed = LOADS[mnemonic]
    for off in _aligned(width):
        lane = word.to_bytes(4, "little")[off:off + width]
        want = int.from_bytes(lane, "little", signed=signed) & 0xFFFFFFFF
        state = _state(word)
        assert machine.load_from(state, mnemonic, BASE + off) == (want, None)
        assert state.unmapped_reads == 0


@pytest.mark.parametrize("word", WORDS)
@pytest.mark.parametrize("mnemonic", STORES)
def test_stores_insert_into_every_aligned_lane(mnemonic, word):
    width = STORES[mnemonic]
    for off in _aligned(width):
        buf = bytearray(word.to_bytes(4, "little"))
        buf[off:off + width] = VALUE.to_bytes(4, "little")[:width]
        want = int.from_bytes(buf, "little")
        state = _state(word)
        assert machine.store_effect(state, mnemonic, BASE + off, VALUE) == \
            ((BASE + off, word, want, width), None, None, None)
        assert state.mem == {BASE >> 2: want}
        assert state.output_log == [] and not state.halted


@pytest.mark.parametrize("mnemonic", STORES)
def test_sub_word_stores_to_unmapped_words_start_from_zero(mnemonic):
    width = STORES[mnemonic]
    state = _state()
    mem_write = machine.store_effect(state, mnemonic, BASE, VALUE)[0]
    want = int.from_bytes(VALUE.to_bytes(4, "little")[:width], "little")
    assert mem_write == (BASE, 0, want, width)
    assert state.mem == {BASE >> 2: want}


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("mnemonic", ["lw", "lh", "lhu"])
def test_misaligned_loads_trap_before_the_memory_lookup(mnemonic, strict):
    # an unmapped strict load would trap UNMAPPED_LOAD: misalignment wins
    for word in (WORDS[0], None):
        for off in _misaligned(LOADS[mnemonic][0]):
            state = _state(word, strict)
            assert machine.load_from(state, mnemonic, BASE + off) == \
                (None, "MISALIGNED_LOAD")
            assert state.unmapped_reads == 0


@pytest.mark.parametrize("mnemonic", ["sw", "sh"])
def test_misaligned_stores_trap_and_leave_memory_alone(mnemonic):
    for off in _misaligned(STORES[mnemonic]):
        state = _state(WORDS[0])
        assert machine.store_effect(state, mnemonic, BASE + off, VALUE) == \
            (None, None, None, "MISALIGNED_STORE")
        assert state.mem == {BASE >> 2: WORDS[0]}


@pytest.mark.parametrize("mnemonic", LOADS)
def test_unmapped_loads_read_zero_or_trap_when_strict(mnemonic):
    lax = _state()
    assert machine.load_from(lax, mnemonic, BASE) == (0, None)
    assert lax.unmapped_reads == 1
    strict = _state(strict=True)
    assert machine.load_from(strict, mnemonic, BASE) == \
        (None, "UNMAPPED_LOAD")
    assert strict.unmapped_reads == 0 and strict.mem == {}
