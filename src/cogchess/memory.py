"""Capacity-limited working memory and emotion-tagged long-term memory.

Working memory holds at most `capacity` entities (default 7, configurable
4..9). Activations decay exponentially with time constant 13 s, tuned so
an unrehearsed entity falls below the retention threshold (10% of its
insertion activation) after roughly 30 simulated seconds. When full,
insertion evicts the weakest slot only if the newcomer is stronger.

Long-term memory maps location-abstracted situation signatures to
(valence, arousal, dominance) tags learned by exponential moving average:

    valence  <- (1 - alpha) * valence + alpha * reward
    arousal  <- (1 - alpha) * arousal + alpha * |reward|
    dominance = visits / (visits + k)

with alpha = 0.3 and k = 5 by default. LTM supports concurrent reads and
exclusive, per-key-atomic writes, and persists to a versioned JSON file.

A signature is written from descriptors of entities and relations:
`descriptors` formats them once per solve, and `situation_signature`
sorts and joins those of one candidate situation.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass

DECAY_TAU_MS = 13_000.0
RETENTION_FRACTION = 0.1
DEFAULT_CAPACITY = 7
DEFAULT_ALPHA = 0.3
DEFAULT_DOMINANCE_K = 5
LTM_VERSION = 1
# The keys of a long-term memory document and of each of its entries (an
# `EmotionTag`'s fields, in order); `LongTermMemory.load` rejects any other.
LTM_KEYS = ("ltm_version", "alpha", "k", "entries")
LTM_ENTRY_KEYS = ("valence", "arousal", "dominance", "visits")


@dataclass
class Entity:
    """One working-memory slot: a reference to a piece or chunk instance."""

    id: str
    activation: float
    base_activation: float = 0.0

    def __post_init__(self):
        if self.activation < 0:
            raise ValueError("activation must be >= 0")
        if self.base_activation <= 0:
            self.base_activation = self.activation


def check_capacity(capacity: int) -> None:
    """ValueError unless `capacity` is a working-memory capacity (4..9)."""
    if not 4 <= capacity <= 9:
        raise ValueError(f"capacity must be in 4..9, got {capacity}")


class WorkingMemory:
    """Bounded buffer of active entities with exponential decay.

    Mutable, but confined to one reasoning session; never share an
    instance between threads.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        check_capacity(capacity)
        self.capacity = capacity
        self.slots: list = []
        self.clock_ms = 0

    def insert(self, entity: Entity) -> bool:
        """Insert an entity; returns False when it was rejected.

        A full memory evicts its minimum-activation slot only if the
        newcomer's activation strictly exceeds it.
        """
        if entity.activation <= 0:
            raise ValueError("inserted entities need positive activation")
        if len(self.slots) < self.capacity:
            self.slots.append(entity)
            return True
        weakest = min(range(len(self.slots)), key=lambda i: (self.slots[i].activation, i))
        if entity.activation > self.slots[weakest].activation:
            self.slots[weakest] = entity
            return True
        return False

    def tick(self, dt_ms: int) -> None:
        """Advance the clock, decay activations, drop forgotten slots."""
        if dt_ms < 0:
            raise ValueError("dt must be >= 0")
        self.clock_ms += dt_ms
        if dt_ms == 0:
            return
        factor = math.exp(-dt_ms / DECAY_TAU_MS)
        survivors = []
        for e in self.slots:
            e.activation *= factor
            if e.activation >= RETENTION_FRACTION * e.base_activation:
                survivors.append(e)
        self.slots = survivors

    def spread_and_replace(self, links: dict) -> list:
        """Spread activation into LTM units; strong units take over slots.

        `links` maps a WM entity id to {unit_id: weight} with weights
        summing to at most 1 per source, so fan-out dilutes the energy a
        unit can accumulate. Any unit whose accumulated energy exceeds
        the current minimum slot activation replaces that slot. Returns
        the ids of replaced entities.
        """
        by_id = {e.id: e for e in self.slots}
        energy: dict = {}
        for src_id, fan in links.items():
            src = by_id.get(src_id)
            if src is None:
                continue
            total = sum(fan.values())
            if total > 1.0 + 1e-9:
                raise ValueError(f"weights for {src_id} sum to {total} > 1")
            for unit, weight in fan.items():
                energy[unit] = energy.get(unit, 0.0) + src.activation * weight

        replaced = []
        for unit, e in sorted(energy.items(), key=lambda kv: (-kv[1], kv[0])):
            if not self.slots:
                break
            weakest = min(range(len(self.slots)),
                          key=lambda i: (self.slots[i].activation, i))
            if e > self.slots[weakest].activation:
                replaced.append(self.slots[weakest].id)
                self.slots[weakest] = Entity(unit, e)
        return replaced


@dataclass(frozen=True)
class EmotionTag:
    valence: float = 0.0
    arousal: float = 0.0
    dominance: float = 0.0
    visits: int = 0

    def __post_init__(self):
        if not -1.0 <= self.valence <= 1.0:
            raise ValueError(f"valence out of range: {self.valence}")
        if not 0.0 <= self.arousal <= 1.0:
            raise ValueError(f"arousal out of range: {self.arousal}")
        if not 0.0 <= self.dominance <= 1.0:
            raise ValueError(f"dominance out of range: {self.dominance}")
        if self.visits < 0:
            raise ValueError("visits must be >= 0")


NEUTRAL_TAG = EmotionTag()


def _number(doc: dict, key: str, integer: bool = False):
    """`doc[key]`, or ValueError unless it is a number (with `integer`,
    an int); a bool is neither."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"malformed long-term memory: {key!r} must be {kind}, got {value!r}")
    return value


class LongTermMemory:
    """Signature -> EmotionTag store with EMA updates."""

    def __init__(self, alpha: float = DEFAULT_ALPHA, k: int = DEFAULT_DOMINANCE_K):
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.alpha = alpha
        self.k = k
        self.entries: dict = {}
        self._lock = threading.Lock()

    def lookup(self, key: str) -> EmotionTag:
        """Stored tag, or the neutral default for unseen keys. Read-only."""
        return self.entries.get(key, NEUTRAL_TAG)

    def update(self, key: str, reward: float) -> EmotionTag:
        """Fold one reward in [-1, 1] into the tag for `key`."""
        if not -1.0 <= reward <= 1.0:
            raise ValueError(f"reward out of range: {reward}")
        with self._lock:
            old = self.entries.get(key, NEUTRAL_TAG)
            visits = old.visits + 1
            tag = EmotionTag(
                valence=(1 - self.alpha) * old.valence + self.alpha * reward,
                arousal=(1 - self.alpha) * old.arousal + self.alpha * abs(reward),
                dominance=visits / (visits + self.k),
                visits=visits,
            )
            self.entries[key] = tag
            return tag

    # -- persistence --------------------------------------------------------

    def dump(self) -> str:
        """Serialize to versioned JSON text (keys sorted, reproducible)."""
        doc = {
            "ltm_version": LTM_VERSION,
            "alpha": self.alpha,
            "k": self.k,
            "entries": {
                key: {name: getattr(t, name) for name in LTM_ENTRY_KEYS}
                for key, t in sorted(self.entries.items())
            },
        }
        return json.dumps(doc, indent=1, sort_keys=True)

    @classmethod
    def load(cls, text: str) -> "LongTermMemory":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("long-term memory must be a JSON object")
        if doc.get("ltm_version") != LTM_VERSION:
            raise ValueError(f"unsupported ltm_version {doc.get('ltm_version')!r}")
        try:
            ltm = cls(alpha=_number(doc, "alpha"), k=_number(doc, "k", True))
            for key, t in doc["entries"].items():
                ltm.entries[key] = EmotionTag(
                    *(_number(t, name, name == "visits") for name in LTM_ENTRY_KEYS))
        except KeyError as exc:
            raise ValueError(f"long-term memory missing {exc.args[0]!r}") from None
        except (AttributeError, TypeError) as exc:
            raise ValueError(f"malformed long-term memory: {exc}") from None
        unknown = [key for key in doc if key not in LTM_KEYS] + [
            key for t in doc["entries"].values() for key in t if key not in LTM_ENTRY_KEYS]
        if unknown:
            raise ValueError(f"malformed long-term memory: unknown key {unknown[0]!r}")
        return ltm


def descriptors(mover, entities, relations, kinds) -> tuple:
    """The signature descriptors of `entities` and of `relations`, as two
    lists, with color normalized to own/enemy relative to `mover`.

    An entity reads `etype:label:own|enemy` (chunk pattern name or piece
    kind as its label), a relation `name(kind:side>kind:side[,kind:side])`
    over its piece endpoints, which `kinds` maps from piece id to (kind
    label, color). Squares never enter a descriptor, so translated or
    mirrored instances of the same abstract situation collide on purpose.
    """
    def side(color) -> str:
        return "own" if color == mover else "enemy"

    def end(pid) -> str:
        kind, color = kinds[pid]
        return f"{kind}:{side(color)}"

    return ([f"{e.etype}:{e.label}:{side(e.color)}" for e in entities],
            [f"{r.name}({end(r.entities[0])}>{','.join(map(end, r.entities[1:]))})"
             for r in relations])


def situation_signature(entity_descriptors, relation_descriptors) -> str:
    """Canonical location-abstracted key of a situation: the sorted join of
    its entities' descriptors, `||`, then the sorted join of its relations'
    descriptors (see `descriptors`)."""
    return ("|".join(sorted(entity_descriptors)) + "||"
            + "|".join(sorted(relation_descriptors)))
