"""Working-memory dynamics, emotion-tag learning, and signature keys."""

import json
import math
import random
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogchess.memory import (
    DECAY_TAU_MS, Entity, EmotionTag, LongTermMemory, NEUTRAL_TAG,
    WorkingMemory, descriptors, situation_signature,
)


def ent(name, activation):
    return Entity(name, activation)


def test_insert_below_capacity():
    wm = WorkingMemory(capacity=4)
    for i in range(3):
        assert wm.insert(ent(f"e{i}", 0.5))
    assert wm.insert(ent("e3", 0.5))
    assert len(wm.slots) == 4


def test_insert_evicts_weakest():
    wm = WorkingMemory(capacity=4)
    for name, a in zip("abcd", (0.9, 0.8, 0.7, 0.2)):
        wm.insert(ent(name, a))
    assert wm.insert(ent("e", 0.5))
    ids = {e.id for e in wm.slots}
    assert "d" not in ids and "e" in ids
    assert len(wm.slots) == 4


def test_insert_rejected_when_too_weak():
    wm = WorkingMemory(capacity=4)
    for name in "abcd":
        wm.insert(ent(name, 0.6))
    before = [(e.id, e.activation) for e in wm.slots]
    assert not wm.insert(ent("e", 0.5))
    assert [(e.id, e.activation) for e in wm.slots] == before


def test_tick_zero_is_identity():
    wm = WorkingMemory()
    wm.insert(ent("a", 0.8))
    wm.tick(0)
    assert wm.slots[0].activation == 0.8
    assert wm.clock_ms == 0


def test_unrehearsed_entity_dies_at_thirty_seconds():
    wm = WorkingMemory()
    wm.insert(ent("a", 1.0))
    wm.tick(30_000)
    # exp(-30/13) ~ 0.0995, below the 0.1 retention threshold
    assert math.exp(-30_000 / DECAY_TAU_MS) < 0.1
    assert wm.slots == []


def test_survives_twenty_seconds():
    wm = WorkingMemory()
    wm.insert(ent("a", 1.0))
    wm.tick(20_000)
    assert len(wm.slots) == 1


def test_tick_semigroup_property():
    wm1 = WorkingMemory()
    wm1.insert(ent("a", 1.0))
    wm1.tick(9_000)
    wm1.tick(9_000)
    wm2 = WorkingMemory()
    wm2.insert(ent("a", 1.0))
    wm2.tick(18_000)
    assert abs(wm1.slots[0].activation - wm2.slots[0].activation) < 1e-12


def test_decay_monotone():
    rng = random.Random(5)
    wm = WorkingMemory()
    for i in range(5):
        wm.insert(ent(f"e{i}", rng.uniform(0.5, 1.0)))
    before = {e.id: e.activation for e in wm.slots}
    wm.tick(777)
    for e in wm.slots:
        assert e.activation <= before[e.id]


def test_spread_empty_links_is_noop():
    wm = WorkingMemory()
    wm.insert(ent("a", 1.0))
    assert wm.spread_and_replace({}) == []
    assert [e.id for e in wm.slots] == ["a"]


def test_spread_strong_unit_replaces_weakest():
    wm = WorkingMemory(capacity=4)
    wm.insert(ent("src", 1.0))
    wm.insert(ent("weak", 0.5))
    replaced = wm.spread_and_replace({"src": {"ltm:pattern": 0.9}})
    assert replaced == ["weak"]
    assert any(e.id == "ltm:pattern" and abs(e.activation - 0.9) < 1e-12
               for e in wm.slots)


def test_spread_fanout_dilution_blocks_replacement():
    wm = WorkingMemory(capacity=4)
    wm.insert(ent("src", 1.0))
    wm.insert(ent("weak", 0.5))
    links = {"src": {f"u{i}": 0.1 for i in range(10)}}
    assert wm.spread_and_replace(links) == []
    assert {e.id for e in wm.slots} == {"src", "weak"}


def test_spread_rejects_overweight_links():
    wm = WorkingMemory()
    wm.insert(ent("src", 1.0))
    with pytest.raises(ValueError):
        wm.spread_and_replace({"src": {"a": 0.7, "b": 0.7}})


def test_capacity_never_exceeded_under_fuzz():
    rng = random.Random(99)
    wm = WorkingMemory(capacity=5)
    for step in range(5_000):
        op = rng.random()
        if op < 0.5:
            wm.insert(ent(f"e{step}", rng.uniform(0.01, 1.0)))
        elif op < 0.8:
            wm.tick(rng.randint(0, 4_000))
        else:
            targets = {f"u{rng.randint(0, 30)}": rng.uniform(0, 0.5) for _ in range(2)}
            srcs = [e.id for e in wm.slots]
            if srcs:
                wm.spread_and_replace({rng.choice(srcs): targets})
        assert len(wm.slots) <= 5
        assert all(e.activation >= 0 for e in wm.slots)


# -- emotion tags ------------------------------------------------------------

def test_tag_ranges_enforced():
    with pytest.raises(ValueError):
        EmotionTag(valence=1.5)
    with pytest.raises(ValueError):
        EmotionTag(arousal=-0.1)
    with pytest.raises(ValueError):
        EmotionTag(dominance=2.0)


def test_lookup_unseen_returns_neutral():
    ltm = LongTermMemory()
    assert ltm.lookup("nothing") == NEUTRAL_TAG


def test_update_arithmetic_first_reward():
    ltm = LongTermMemory()
    tag = ltm.update("sig", +1.0)
    assert tag.valence == pytest.approx(0.3)
    assert tag.arousal == pytest.approx(0.3)
    assert tag.visits == 1
    assert tag.dominance == pytest.approx(1 / 6)


def test_lookup_is_read_only():
    ltm = LongTermMemory()
    ltm.update("sig", 0.5)
    first = ltm.lookup("sig")
    second = ltm.lookup("sig")
    assert first == second
    assert ltm.lookup("other") == NEUTRAL_TAG
    assert "other" not in ltm.entries


def test_zero_rewards_drive_valence_down_dominance_up():
    ltm = LongTermMemory()
    ltm.update("sig", 0.9)
    prev_v, prev_d = 1.0, 0.0
    for _ in range(60):
        tag = ltm.update("sig", 0.0)
        assert abs(tag.valence) <= prev_v
        assert tag.dominance >= prev_d
        prev_v, prev_d = abs(tag.valence), tag.dominance
    assert abs(ltm.lookup("sig").valence) < 1e-4
    assert ltm.lookup("sig").dominance > 0.9


def test_alternating_rewards_stay_bounded():
    ltm = LongTermMemory()
    for i in range(500):
        tag = ltm.update("sig", 1.0 if i % 2 == 0 else -1.0)
        assert -1.0 < tag.valence < 1.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=60))
def test_tag_ranges_hold_for_any_reward_sequence(rewards):
    ltm = LongTermMemory()
    for r in rewards:
        tag = ltm.update("sig", r)
        assert -1.0 <= tag.valence <= 1.0
        assert 0.0 <= tag.arousal <= 1.0
        assert 0.0 <= tag.dominance < 1.0


def test_persistence_round_trip():
    ltm = LongTermMemory()
    ltm.update("sig-a", 0.7)
    ltm.update("sig-a", -0.2)
    ltm.update("sig-b", 1.0)
    text = ltm.dump()
    again = LongTermMemory.load(text)
    assert again.entries == ltm.entries
    assert again.alpha == ltm.alpha and again.k == ltm.k
    assert again.dump() == text


def test_persistence_rejects_bad_version():
    with pytest.raises(ValueError):
        LongTermMemory.load('{"ltm_version": 3, "alpha": 0.3, "k": 5, "entries": {}}')


@pytest.mark.parametrize("doc, message", [
    ([], "long-term memory must be a JSON object"),
    ({"ltm_version": 1, "k": 5, "entries": {}}, "long-term memory missing 'alpha'"),
    ({"ltm_version": 1, "alpha": 0.3, "k": 5},
     "long-term memory missing 'entries'"),
    ({"ltm_version": 1, "alpha": 0.3, "k": 5, "entries": []},
     "malformed long-term memory: 'list' object has no attribute 'items'"),
    ({"ltm_version": 1, "alpha": 0.3, "k": 5, "entries": {"s": 1}},
     "malformed long-term memory: 'int' object is not subscriptable"),
    ({"ltm_version": 1, "alpha": 0.3, "k": 5,
      "entries": {"s": {"valence": 0.0, "arousal": 0.0, "visits": 0}}},
     "long-term memory missing 'dominance'"),
])
def test_persistence_rejects_malformed_document(doc, message):
    with pytest.raises(ValueError) as e:
        LongTermMemory.load(json.dumps(doc))
    assert str(e.value) == message


def test_persistence_rejects_out_of_range():
    bad = ('{"ltm_version": 1, "alpha": 0.3, "k": 5, "entries": '
           '{"s": {"valence": 4.0, "arousal": 0.0, "dominance": 0.0, "visits": 0}}}')
    with pytest.raises(ValueError):
        LongTermMemory.load(bad)


# -- situation signatures ------------------------------------------------------

FakeEntity = namedtuple("FakeEntity", "etype label color")
FakeRelation = namedtuple("FakeRelation", "name entities")


def test_signature_entity_order_irrelevant():
    info = {"r1": ("rook", "w"), "k1": ("king", "b")}
    ents = [FakeEntity("piece", "rook", "w"), FakeEntity("chunk", "wall-of-pawns", "b")]
    rels = [FakeRelation("threatens", ("r1", "k1"))]
    a = situation_signature(*descriptors("w", ents, rels, info))
    b = situation_signature(*descriptors("w", list(reversed(ents)), rels, info))
    assert a == b


def test_signature_location_abstracted():
    # same abstract content built from pieces on different squares
    info_left = {"wR-a1": ("rook", "w"), "bK-a8": ("king", "b")}
    info_right = {"wR-h1": ("rook", "w"), "bK-h8": ("king", "b")}
    ents = [FakeEntity("piece", "rook", "w"), FakeEntity("piece", "king", "b")]
    a = situation_signature(*descriptors(
        "w", ents, [FakeRelation("threatens", ("wR-a1", "bK-a8"))], info_left))
    b = situation_signature(*descriptors(
        "w", ents, [FakeRelation("threatens", ("wR-h1", "bK-h8"))], info_right))
    assert a == b


def test_signature_color_normalized():
    # colors swapped and mover swapped: same own/enemy structure
    info_w = {"wR": ("rook", "w"), "bK": ("king", "b")}
    info_b = {"bR": ("rook", "b"), "wK": ("king", "w")}
    a = situation_signature(*descriptors(
        "w",
        [FakeEntity("piece", "rook", "w"), FakeEntity("piece", "king", "b")],
        [FakeRelation("threatens", ("wR", "bK"))], info_w))
    b = situation_signature(*descriptors(
        "b",
        [FakeEntity("piece", "rook", "b"), FakeEntity("piece", "king", "w")],
        [FakeRelation("threatens", ("bR", "wK"))], info_b))
    assert a == b


def test_signature_distinguishes_distinct_structures():
    info = {"wR": ("rook", "w"), "bK": ("king", "b")}
    ents = [FakeEntity("piece", "rook", "w"), FakeEntity("piece", "king", "b")]
    with_rel = situation_signature(*descriptors(
        "w", ents, [FakeRelation("threatens", ("wR", "bK"))], info))
    without_rel = situation_signature(*descriptors("w", ents, [], info))
    assert with_rel != without_rel


def test_signature_no_collisions_across_generated_suite():
    """Distinct canonical descriptor sets must map to distinct keys."""
    rng = random.Random(42)
    kinds = ["pawn", "knight", "bishop", "rook", "queen", "king"]
    chunks = ["wall-of-pawns", "battery", "trapped-king"]
    seen = {}
    built = 0
    while built < 1000:
        n = rng.randint(1, 4)
        ents = []
        info = {}
        for i in range(n):
            color = rng.choice("wb")
            if rng.random() < 0.4:
                ents.append(FakeEntity("chunk", rng.choice(chunks), color))
            else:
                kind = rng.choice(kinds)
                pid = f"p{i}"
                info[pid] = (kind, color)
                ents.append(FakeEntity("piece", kind, color))
        rels = []
        pids = list(info)
        if len(pids) >= 2 and rng.random() < 0.7:
            a, b = rng.sample(pids, 2)
            rels.append(FakeRelation(rng.choice(["threatens", "protects"]), (a, b)))
        descriptor = (tuple(sorted(f"{e.etype}:{e.label}:{e.color}" for e in ents)),
                      tuple(sorted((r.name,) + tuple(info[p][0] + info[p][1]
                                                     for p in r.entities)
                                   for r in rels)))
        key = situation_signature(*descriptors("w", ents, rels, info))
        if descriptor in seen:
            continue
        for other_desc, other_key in seen.items():
            assert other_key != key, (descriptor, other_desc)
        seen[descriptor] = key
        built += 1
