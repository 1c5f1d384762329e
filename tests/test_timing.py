import hashlib
import json
import math
import pathlib

import pytest

from glitchbench.isa import IClass
from glitchbench.latches import FIELD_WIDTH, LATCH_FIELDS, LATCHES, bubble
from glitchbench.rat import SCAN_STEP_NS
from glitchbench.timing import (REFERENCE_TIMING, TimingError, load_timing,
                                reference_timing, timing_from_dict)

FIXTURE = pathlib.Path(__file__).resolve().parents[1] / \
    "src/glitchbench/fixtures/timing_ref.json"


@pytest.fixture(scope="module")
def tm():
    return load_timing(FIXTURE)


def test_shipped_fixture_is_frozen():
    # the fixture is the only statement of the reference model
    assert hashlib.sha256(FIXTURE.read_bytes()).hexdigest() == \
        "568942f3b6c5413f320793ace9340be2000f09ec4fae93169493fcb0e44c084e"


def test_fixture_scalars(tm):
    assert tm.clock_period_ns == 10.0
    assert tm.setup_ns == 0.2
    assert tm.min_glitch_ns == 1.0
    # hand-checked rows of the table
    assert tm.crit("LOAD", "IF_ID") == 8.6
    assert tm.crit("MULDIV", "ID_EX") == 8.2
    assert tm.crit("SYSTEM", "EX_WB") == 3.5
    assert tm.slack("LOAD", "IF_ID") == pytest.approx(10.0 - 0.2 - 8.6)
    assert tm.slack("BRANCH", "ID_EX") == pytest.approx(10.0 - 0.2 - 7.8)
    for iclass in (c.value for c in IClass):
        for latch in LATCHES:
            assert tm.slack(iclass, latch) > 0


def test_violation_boundary_is_strict(tm):
    hi = tm.crit("LOAD", "IF_ID") + tm.setup_ns
    assert hi - 1e-9 < tm.threshold("LOAD", "IF_ID")
    assert not hi < tm.threshold("LOAD", "IF_ID")  # meeting setup is safe
    assert 8.3 < tm.threshold("LOAD", "IF_ID")
    assert not 3.7 + 1e-9 < tm.threshold("SYSTEM", "EX_WB")
    assert 3.7 - 1e-9 < tm.threshold("SYSTEM", "EX_WB")


def test_offset_domain_checked(tm):
    with pytest.raises(TimingError):
        tm.check_offset(0.5)   # below smallest producible glitch
    with pytest.raises(TimingError):
        tm.check_offset(10.0)  # not shorter than the period
    tm.check_offset(1.0)       # inclusive lower bound


def test_bit_arrivals_shape(tm):
    for iclass in (c.value for c in IClass):
        for latch in LATCHES:
            for fname, width in LATCH_FIELDS[latch]:
                arr = tm.bit_arrivals(iclass, latch, fname)
                peak = tm.crit(iclass, latch) * tm.field_factors[latch][fname]
                assert len(arr) == width
                assert max(arr) == peak          # one bit rides the full path
                assert arr.count(peak) >= 1
                for a in arr:
                    assert 0.3 * peak - 1e-12 <= a <= peak


def test_bit_arrivals_deterministic(tm):
    again = load_timing(FIXTURE)
    for latch in LATCHES:
        for fname, _ in LATCH_FIELDS[latch]:
            assert tm.bit_arrivals("LOAD", latch, fname) == \
                again.bit_arrivals("LOAD", latch, fname)


def test_seed_changes_spread():
    doc = json.loads(REFERENCE_TIMING.read_text())
    doc["bit_spread_seed"] = 12345
    other = timing_from_dict(doc)
    base = reference_timing()
    assert base.bit_arrivals("LOAD", "IF_ID", "instr_word") != \
        other.bit_arrivals("LOAD", "IF_ID", "instr_word")


def test_late_bits_monotone_in_offset(tm):
    prev = None
    for step in range(0, 90):
        offset = 1.0 + step * 0.1
        bits = set(tm.late_bits("LOAD", "IF_ID", "instr_word", offset))
        if prev is not None:
            assert bits <= prev  # lengthening the cycle can only help
        prev = bits
    assert tm.late_bits("LOAD", "IF_ID", "instr_word", 8.799999) == (3,)
    assert tm.late_bits("LOAD", "IF_ID", "instr_word", 8.8 + 0.2) == ()


def test_violates_agrees_with_late_bits():
    # no IF_ID field factor is 1.0, so the threshold sits below crit + setup
    doc = json.loads(REFERENCE_TIMING.read_text())
    doc["field_factors"]["IF_ID"] = {"instr_word": 0.5, "pc": 0.5,
                                     "valid": 0.12}
    model = timing_from_dict(doc)
    assert model.threshold("LOAD", "IF_ID") == pytest.approx(4.5)
    for iclass in (c.value for c in IClass):
        edge = model.threshold(iclass, "IF_ID")
        for offset in (1.0, edge - 1e-9, edge, edge + 1e-9, 6.0, 9.9):
            late = any(model.late_bits(iclass, "IF_ID", fname, offset)
                       for fname, _width in LATCH_FIELDS["IF_ID"])
            model.check_offset(offset)
            assert (offset < model.threshold(iclass, "IF_ID")) == late, \
                (iclass, offset)
    assert not 6.0 < model.threshold("LOAD", "IF_ID")


def test_threshold_uses_max_factor(tm):
    # every latch in the reference set has a unit factor field
    for latch in LATCHES:
        assert max(tm.field_factors[latch].values()) == 1.0
    assert tm.threshold("LOAD", "IF_ID") == pytest.approx(8.8)
    assert tm.threshold("MULDIV", "ID_EX") == pytest.approx(8.4)


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("setup_ns"), "missing key"),
    (lambda d: d.__setitem__("setup_ns", 0.0), "setup_ns"),
    (lambda d: d.__setitem__("setup_ns", 11.0), "setup_ns"),
    (lambda d: d["crit_ns"].pop("LOAD"), "crit_ns"),
    (lambda d: d["crit_ns"].__setitem__("EXTRA", d["crit_ns"]["LOAD"]),
     "crit_ns"),
    (lambda d: d["crit_ns"]["LOAD"].pop("IF_ID"), "LOAD"),
    (lambda d: d["crit_ns"]["LOAD"].__setitem__("IF_ID", 9.95), "IF_ID"),
    (lambda d: d["crit_ns"]["LOAD"].__setitem__("IF_ID", -1.0), "IF_ID"),
    (lambda d: d["field_factors"]["IF_ID"].__setitem__("pc", 0.0), "pc"),
    (lambda d: d["field_factors"]["IF_ID"].__setitem__("pc", 1.5), "pc"),
    (lambda d: d["field_factors"]["IF_ID"].pop("valid"), "IF_ID"),
    (lambda d: d["field_factors"]["IF_ID"].__setitem__("bogus", 0.5), "IF_ID"),
    (lambda d: d.__setitem__("min_glitch_ns", 4.0), "min_glitch_ns"),
    (lambda d: d.__setitem__("bit_spread_seed", "x"), "bit_spread_seed"),
    (lambda d: d.__setitem__("bit_spread_seed", True), "non-negative integer"),
    (lambda d: d.__setitem__("clock_period_ns", math.inf),
     "clock_period_ns must be a finite number"),
    (lambda d: d.__setitem__("clock_period_ns", "10.0"),
     "must be a finite number"),
    (lambda d: d["crit_ns"]["LOAD"].__setitem__("IF_ID", math.nan), "IF_ID"),
])
def test_validation_rejects(mutate, fragment):
    doc = json.loads(REFERENCE_TIMING.read_text())
    mutate(doc)
    with pytest.raises(TimingError, match=fragment):
        timing_from_dict(doc)


def test_load_rejects_bad_file(tmp_path):
    p = tmp_path / "t.json"
    p.write_text("{not json")
    with pytest.raises(TimingError):
        load_timing(p)
    with pytest.raises(TimingError):
        load_timing(tmp_path / "missing.json")


def test_fixture_copy_loads_the_same_model(tm, tmp_path):
    # a custom model starts from a copy of the fixture
    p = tmp_path / "copy.json"
    p.write_text(REFERENCE_TIMING.read_text())
    assert load_timing(p) == tm
    assert REFERENCE_TIMING.resolve() == FIXTURE  # the frozen fixture


def _shared_factor_model():
    # another setup and seed, and IF_ID instr_word and pc share a factor, so
    # their designated bits land on one key
    doc = json.loads(REFERENCE_TIMING.read_text())
    doc["setup_ns"] = 0.23
    doc["bit_spread_seed"] = 0xC0FFEE
    doc["field_factors"]["IF_ID"]["pc"] = 1.0
    return timing_from_dict(doc)


@pytest.mark.parametrize("model, shared", [
    (reference_timing(), False), (_shared_factor_model(), True)],
    ids=["reference", "shared_factor"])
def test_late_fields_match_late_bits(model, shared):
    thresholds = [model.threshold(c.value, latch)
                  for c in IClass for latch in LATCHES]
    probes = [model.min_glitch_ns]
    probes += [1.0 + k * 0.07 for k in range(127)]   # the C7 grid
    for lo in thresholds:                            # RAT verify scans
        off = lo + SCAN_STEP_NS / 2
        while off < model.clock_period_ns:
            probes.append(off)
            off += SCAN_STEP_NS
    shared_keys = 0
    for iclass in (c.value for c in IClass):
        for latch in LATCHES:
            names = [name for name, _ in LATCH_FIELDS[latch]]
            keys = [t + model.setup_ns for name in names
                    for t in model.bit_arrivals(iclass, latch, name)]
            shared_keys += len(keys) - len(set(keys))
            offsets = list(probes)
            for k in keys:
                offsets += [math.nextafter(k, -math.inf), k,
                            math.nextafter(k, math.inf)]
            edge = model.threshold(iclass, latch)
            for offset in offsets:
                rows = model.late_fields(iclass, latch, offset)
                plain = [(name, model.late_bits(iclass, latch, name, offset))
                         for name in names]
                assert [(f, bits) for f, bits, _ in rows] == \
                    [(f, bits) for f, bits in plain if bits], (iclass, offset)
                for _f, bits, mask in rows:
                    assert mask == sum(1 << b for b in bits)
                assert (rows == ()) == (offset >= edge), (iclass, offset)
    assert bool(shared_keys) == shared  # equal keys across fields
