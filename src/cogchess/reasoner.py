"""Situation-model reasoner: solves Mate-in-N puzzles in four phases.

Orientation (`orient`) perceives the board once, as one `Perception`:
the relations, the chunks recognized from them, the entity pool, one bit
per board piece and each entity's and relation's piece bitmask, each
entity's relation cover counted from those masks, and the entities it
loaded into a working memory of `SolveLimits.wm_capacity` slots (the
trace's `working-memory` event lists them; exploration does not read
them). Exploration (`explore`) enumerates candidate situations (at most
4 entities each) on the perception's bitmasks, scores each by its
signature with the emotion tag recalled from long-term memory, and
ranks them; a `SituationModel` is built only for each situation selected
for investigation. Investigation runs a budgeted AND-OR search whose
root move ordering prefers moves proposed by the chosen situation.
Validation replays a claimed mating line full-width, with no pruning and
no budget, so a solved verdict is always exact; every investigated
situation feeds a reward back into long-term memory. `solve` calls each
phase through this module's globals and writes the whole trace.

Inside the solver a move is the kernel's `(frm, to, promo)` key: a
situation model proposes keys, the search runs on the kernel's move
tuples, and validation finds each move of a line by its key. `Move`s
are built only for the lines investigation returns. The search and the
full-width validation read one mate rule, `_mover_moves`: the last mover
move must be a check with no reply, and a stalemate never counts.

Trace timestamps use a simulated clock (1 ms per searched node plus small
fixed phase costs), never wall time, so runs are reproducible byte for
byte.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Optional

from . import board as _board
from .board import (
    Board, Color, Move, _move_from_tuple, _move_to_tuple, _uci_key, emit_fen,
)
from .chunks import ChunkInstance, load_catalog, recognize_chunks
from .memory import (
    EmotionTag, LongTermMemory, Entity, WorkingMemory, check_capacity,
    descriptors, situation_signature,
)
from .relations import extract_relations

TRACE_VERSION = 1

ENTITY_CAP = 4
MAX_CANDIDATES = 64
POOL_RANK_LIMIT = 14

# simulated-clock costs, in milliseconds
_COST_PER_NODE_MS = 1
_COST_ORIENT_MS = 50
_COST_EXPLORE_MS = 20
_COST_VALIDATE_MS = 25


class LineError(ValueError):
    """A candidate mating line contains an illegal move."""


@dataclass(frozen=True)
class SituationEntity:
    """One entity of a situation model: a chunk instance or a single piece."""

    id: str
    etype: str  # "chunk" | "piece"
    label: str  # pattern name or piece kind
    color: Color
    piece_ids: tuple


@dataclass(frozen=True)
class SituationModel:
    """A bounded partial description of the position: its entities (1 to
    4), and `proposed`, the `(frm, to, promo)` keys of the legal moves of
    their pieces."""

    entities: tuple
    proposed: frozenset

    def __post_init__(self):
        if not 1 <= len(self.entities) <= ENTITY_CAP:
            raise ValueError(f"situation must hold 1..{ENTITY_CAP} entities")

    @property
    def entity_ids(self) -> tuple:
        return tuple(e.id for e in self.entities)


# How each player style reads a recalled valence: defensive players
# prioritize unfavorable situations, aggressive players favorable ones,
# neutral players any strong valence.
STYLES = {
    "defensive": lambda v: max(0.0, -v),
    "aggressive": lambda v: max(0.0, v),
    "neutral": abs,
}


@dataclass(frozen=True)
class PlayerProfile:
    style: str  # a key of STYLES
    base_budget: int = 3000

    def __post_init__(self):
        if self.style not in STYLES:
            raise ValueError(f"unknown style {self.style!r}")
        if self.base_budget < 1:
            raise ValueError("base_budget must be >= 1")


PROFILES = {s: PlayerProfile(s) for s in STYLES}


@dataclass(frozen=True)
class TraceEvent:
    t_ms: int
    phase: str  # orientation / exploration / investigation / validation
    event: str
    episode: Optional[int]
    data: dict


class ReasoningTrace:
    """Ordered phase-annotated event log of one solve session."""

    def __init__(self, header: dict):
        self.header = dict(header)
        self.header["trace_version"] = TRACE_VERSION
        self.events: list = []

    def add(self, t_ms, phase, event, episode, data):
        self.events.append(TraceEvent(t_ms, phase, event, episode, dict(data)))

    def to_jsonl(self) -> str:
        lines = [json.dumps(self.header, sort_keys=True, separators=(",", ":"))]
        for e in self.events:
            lines.append(json.dumps(
                {"t": e.t_ms, "phase": e.phase, "event": e.event,
                 "episode": e.episode, "data": e.data},
                sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"


@dataclass
class SolveLimits:
    max_total_nodes: int = 50_000
    max_situations: int = 16
    entity_cap: int = ENTITY_CAP
    wm_capacity: int = 7

    def __post_init__(self):
        if self.max_total_nodes < 1:
            raise ValueError(f"max_total_nodes must be >= 1, got {self.max_total_nodes}")
        if self.max_situations < 1:
            raise ValueError(f"max_situations must be >= 1, got {self.max_situations}")
        check_capacity(self.wm_capacity)
        check_entity_cap(self.entity_cap)


@dataclass
class SolveResult:
    verdict: str  # solved / unsolved
    line: list
    nodes: int
    situations_investigated: int
    trace: ReasoningTrace


# -- orientation ---------------------------------------------------------------


def _piece_entity(piece) -> SituationEntity:
    return SituationEntity(piece.id, "piece", piece.kind.value, piece.color,
                           (piece.id,))


def _chunk_entity(chunk: ChunkInstance) -> SituationEntity:
    return SituationEntity(chunk.id, "chunk", chunk.pattern, chunk.color,
                           chunk.members)


@dataclass(frozen=True)
class Perception:
    """What orientation perceives of one board, read by working memory and
    by exploration alike.

    `relations` are the board's relations sorted by id, `pool` the
    entities (the chunk instances of the catalog's patterns, then single
    pieces), `masks` maps each entity id to the bits of its pieces (one
    bit per board piece, so a single piece's entity is its own bit),
    `relation_masks` holds each relation's bits in `relations` order and
    `cover` maps each entity id to the number of relations that involve
    one of its pieces. `loaded` and `rejected` are the ids working memory
    took and refused, in load order.
    """

    relations: tuple
    pool: tuple
    masks: dict
    relation_masks: tuple
    cover: dict
    loaded: tuple
    rejected: tuple


def orient(board: Board, catalog, capacity: int) -> Perception:
    """Orientation: the board's relations and `catalog`'s chunks, their
    bitmasks and cover, and the entities loaded into a working memory of
    `capacity` slots, chunks first, then by cover (more first), then by
    id, each with an activation that grows with its cover."""
    relations = tuple(sorted(extract_relations(board), key=lambda r: r.id))
    chunks = recognize_chunks(board, catalog, relations)
    pool = tuple([_chunk_entity(c) for c in chunks]
                 + [_piece_entity(p) for p in board.pieces])
    bit = {p.id: 1 << i for i, p in enumerate(board.pieces)}

    def mask(pids) -> int:
        return functools.reduce(operator.or_, (bit[pid] for pid in pids), 0)

    masks = {e.id: mask(e.piece_ids) for e in pool}
    relation_masks = tuple(mask(r.entities) for r in relations)
    cover = {e.id: sum(1 for rm in relation_masks if rm & masks[e.id])
             for e in pool}

    max_cover = max(cover.values(), default=0) or 1
    wm = WorkingMemory(capacity=capacity)
    loaded, rejected = [], []
    for e in sorted(pool, key=lambda e: (e.etype != "chunk", -cover[e.id], e.id)):
        activation = 0.5 + 0.5 * cover[e.id] / max_cover
        if wm.insert(Entity(e.id, activation)):
            loaded.append(e.id)
        else:
            rejected.append(e.id)
    return Perception(relations, pool, masks, relation_masks, cover,
                      tuple(loaded), tuple(rejected))


# -- exploration ---------------------------------------------------------------


def check_entity_cap(cap: int) -> None:
    """ValueError unless `cap` is an entity cap exploration can use."""
    if cap not in (2, 3, 4):
        raise ValueError(f"entity cap must be 2..4, got {cap}")


def check_mate_depth(n: int) -> None:
    """ValueError unless `n` is a mate depth `solve` accepts."""
    if not 1 <= n <= 6:
        raise ValueError(f"mate depth must be 1..6, got {n}")


def enumerate_situations(board: Board, perception: Perception,
                         cap: int = ENTITY_CAP) -> list:
    """Candidate situations, deterministically pre-ranked, each as
    `(signature, size, model)`, where `model()` builds its `SituationModel`.

    `perception` is what `orient` perceived of this board. Candidates are
    subsets (size <= cap, at most `MAX_CANDIDATES` of them) of the pool
    that contain at least one entity of each color and propose at least
    one mover move. To keep enumeration bounded, subsets are drawn from
    the `POOL_RANK_LIMIT` entities covering the most relations. The
    pre-rank orders candidates by size, then by covered relations (more
    first), then by entity ids. Subsets are ranked on the perception's
    piece bitmasks, and enumeration stops at the size that fills
    `MAX_CANDIDATES`. The legal moves are the kernel's `legal_moves`
    tuples, each mover's bit read from the board's square index. Each
    candidate's inside relations are found once, as indices; its
    signature joins the descriptors formatted once per call, and no model
    is built until `model()` is called. A model's proposed keys are read
    off the kernel tuples; no `Move` is built.
    """
    check_entity_cap(cap)
    cover, masks = perception.cover, perception.masks
    ranked = sorted(perception.pool, key=lambda e: (-cover[e.id], e.id))
    selected = ranked[:POOL_RANK_LIMIT]
    for color in (Color.WHITE, Color.BLACK):
        if not any(e.color is color for e in selected):
            extra = next((e for e in ranked[POOL_RANK_LIMIT:] if e.color is color), None)
            if extra is not None:
                selected.append(extra)
    # in id order, index tuples of combinations sort as their id tuples do
    selected.sort(key=lambda e: e.id)

    legal = _board._mg.legal_moves(*_state(board)[:4])
    move_masks = [masks[board._by_index[m[0]].id] for m in legal]
    movers = functools.reduce(operator.or_, move_masks, 0)
    entity_masks = [masks[e.id] for e in selected]
    entity_colors = [1 if e.color is Color.WHITE else 2 for e in selected]
    relation_masks = perception.relation_masks

    keys = []
    for size in range(2, cap + 1):
        if len(keys) >= MAX_CANDIDATES:
            break  # size leads the pre-rank key: no larger subset can be kept
        for combo in itertools.combinations(range(len(selected)), size):
            members = colors = 0
            for i in combo:
                members |= entity_masks[i]
                colors |= entity_colors[i]
            # both colors, and at least one move to propose
            if colors != 3 or not members & movers:
                continue
            outside = ~members
            inside = [j for j, rm in enumerate(relation_masks) if not rm & outside]
            keys.append((size, -len(inside), combo, members, inside))
    keys.sort()  # total: no two subsets share an index tuple

    kinds = {p.id: (p.kind.value, p.color) for p in board.pieces}
    entity_desc, relation_desc = descriptors(board.side_to_move, selected,
                                             perception.relations, kinds)

    def model(combo, members) -> SituationModel:
        return SituationModel(
            tuple(selected[i] for i in combo),
            frozenset(m[:3] for m, mm in zip(legal, move_masks) if mm & members))

    return [(situation_signature([entity_desc[i] for i in combo],
                                 [relation_desc[j] for j in inside]),
             size, functools.partial(model, combo, members))
            for size, _, combo, members, inside in keys[:MAX_CANDIDATES]]


def explore(board: Board, perception: Perception, ltm: LongTermMemory,
            profile: PlayerProfile, cap: int) -> list:
    """Exploration: the candidates of `enumerate_situations`, each scored
    with the emotion tag `ltm` recalls for its signature, as `(score, tag,
    signature, size, model)`, best first; the sort is stable, so full ties
    keep the enumeration pre-rank (the cold-start fallback)."""
    scored = []
    for sig, size, model in enumerate_situations(board, perception, cap):
        tag = ltm.lookup(sig)
        scored.append((score_situation(tag, profile), tag, sig, size, model))
    scored.sort(key=lambda t: (-t[0], -t[1].dominance))
    return scored


def score_situation(tag: EmotionTag, profile: PlayerProfile) -> float:
    """Selection priority: arousal plus the profile style's view of valence
    (`STYLES`)."""
    return tag.arousal + STYLES[profile.style](tag.valence)


def effort_budget(tag: EmotionTag, profile: PlayerProfile) -> int:
    """Node budget for investigating one situation; grows with dominance."""
    return math.ceil(profile.base_budget * (0.25 + 0.75 * tag.dominance))


# -- investigation -------------------------------------------------------------
#
# The search and the validation run on the raw kernel state
# (squares, stm, castling, ep, halfmove, fullmove) and on the kernel's
# (frm, to, promo, flags) move tuples; Move objects are built only for the
# returned line. The kernel is looked up on `cogchess.board` at call time,
# so whatever that module selects (or wraps) is the one used.


class _BudgetExhausted(Exception):
    pass


@dataclass
class InvestigationResult:
    line: Optional[list]  # Moves, mover and opponent interleaved
    nodes: int
    exhausted: bool


def _state(board: Board) -> tuple:
    return (board._squares, board._stm, board.castling.mask, board._ep,
            board.halfmove_clock, board.fullmove_number)


def _ordered(checks, moves) -> list:
    """(move, gives_check) for each of `moves`: checks, then captures,
    then the rest, in kernel order within each class.

    `checks` are the moves of `moves` that give check, as the kernel's
    `checking_moves` returns them; no move is made to find them.
    """
    giving = set(checks)
    rest = [m for m in moves if m not in giving]
    return ([(m, True) for m in checks]
            + [(m, False) for m in rest if m[3] & 1]
            + [(m, False) for m in rest if not m[3] & 1])


def _apply(mg, state, m) -> tuple:
    return mg.apply_move(*state, *m)


def _mover_moves(mg, state, moves, movers_left: int):
    """(move, child, replies) for each of `moves` that mates or leaves the
    opponent a reply, in `_ordered`'s order; `replies` is empty for a mate.

    This is the mate rule that the search and the full-width validation
    share: the last mover move must be a check with no reply, and a
    stalemate never counts. Which moves give check comes from the
    kernel's `checking_moves`, before any move is made. So at the last
    mover ply only the checking moves are made, in kernel order; every
    other move there is dropped unmade.
    """
    checks = mg.checking_moves(*state[:4], moves)
    if movers_left == 1:
        for m in checks:
            child = _apply(mg, state, m)
            if not mg.has_legal_move(*child[:4]):
                yield m, child, ()
        return
    for m, check in _ordered(checks, moves):
        child = _apply(mg, state, m)
        replies = mg.legal_moves(*child[:4])
        if replies or check:
            yield m, child, replies


def investigate(board: Board, situation: SituationModel, n: int,
                budget: int, table: Optional[dict] = None) -> InvestigationResult:
    """Depth-limited AND-OR search for a forced mate in <= n mover moves.

    Root moves are ordered situation-first (checks, captures, quiet within
    each group); opponent replies are always exhaustive. Expands at most
    `budget` nodes; an exhausted budget is a failure for this situation,
    not an error.

    `table` maps `(squares, stm, castling, ep, movers_left)` to `(line,
    nodes)` for every non-root OR node whose subtree completed; `solve`
    passes one table to all its situations so that each subtree is
    searched once per solve (`None` means a fresh table). A hit charges
    the nodes the subtree spent when it was searched, clamped to
    `budget + 1` where that runs out, which is exactly where the search
    itself would have stopped; so the result and the node count are the
    same as without the table. The root is never stored, because its
    move order depends on the situation, and neither is a subtree that
    ran out of budget. `movers_left` falls strictly along a path, so a
    key never recurs inside its own subtree.
    """
    if n < 1 or budget < 1:
        raise ValueError("need n >= 1 and budget >= 1")
    mg = _board._mg
    preferred = situation.proposed
    table = {} if table is None else table
    counter = {"nodes": 0}

    def spend():
        counter["nodes"] += 1
        if counter["nodes"] > budget:
            raise _BudgetExhausted

    def or_node(state, movers_left: int, at_root: bool) -> Optional[list]:
        spend()
        moves = mg.legal_moves(*state[:4])
        groups = (moves,)
        if at_root:  # the rest is made only if the proposed moves fail
            groups = ([m for m in moves if m[:3] in preferred],
                      [m for m in moves if m[:3] not in preferred])
        for group in groups:
            for m, child, replies in _mover_moves(mg, state, group, movers_left):
                if not replies:
                    return [m]
                reply_line = and_node(child, replies, movers_left - 1)
                if reply_line is not None:
                    return [m] + reply_line
        return None

    def inner_or_node(state, movers_left: int) -> Optional[list]:
        # halfmove and fullmove are not in the key: no kernel move, check
        # or child depends on them (there is no fifty-move or repetition rule)
        key = state[:4] + (movers_left,)
        hit = table.get(key)
        if hit is not None:
            line, spent = hit
            counter["nodes"] += spent
            if counter["nodes"] > budget:
                counter["nodes"] = budget + 1
                raise _BudgetExhausted
            return line
        start = counter["nodes"]
        line = or_node(state, movers_left, False)
        table[key] = (line, counter["nodes"] - start)
        return line

    def and_node(state, replies, movers_left: int) -> Optional[list]:
        spend()
        pv = None
        for reply in replies:
            cont = inner_or_node(_apply(mg, state, reply), movers_left)
            if cont is None:
                return None
            if pv is None:
                pv = [reply] + cont
        return pv

    try:
        line = or_node(_state(board), n, True)
    except _BudgetExhausted:
        return InvestigationResult(None, counter["nodes"], True)
    if line is not None:
        line = [_move_from_tuple(t) for t in line]
    return InvestigationResult(line, counter["nodes"], False)


# -- validation ----------------------------------------------------------------


def _proves(mg, state, movers_left: int, script=()) -> bool:
    """Full-width forced-mate proof on a raw state.

    With a `script` (a tuple of the kernel's move tuples, mover and
    opponent interleaved), the mover plays only the scripted move; after
    the scripted reply the proof follows the rest of the script, and
    every other reply is proved full-width.
    """
    if movers_left < 1:
        return False
    moves = script[:1] or mg.legal_moves(*state[:4])
    expected = script[1] if len(script) > 1 else None
    for _, child, replies in _mover_moves(mg, state, moves, movers_left):
        if all(_proves(mg, _apply(mg, child, r), movers_left - 1,
                       script[2:] if r == expected else ())
               for r in replies):
            return True
    return False


def _prove_mate(board: Board, movers_left: int) -> bool:
    """Full-width forced-mate proof, no budget, no situation pruning."""
    return _proves(_board._mg, _state(board), movers_left)


def _find(mg, state, m):
    """The legal move tuple of `state` that `m`, a Move or UCI text, names
    by its `(frm, to, promo)` key, or LineError."""
    is_move = isinstance(m, Move)
    key = _move_to_tuple(m) if is_move else _uci_key(str(m))
    for t in mg.legal_moves(*state[:4]):
        if t[:3] == key:
            return t
    raise LineError(f"illegal move {m.uci if is_move else str(m)!r} in line")


def validate_line(board: Board, line, n: int) -> bool:
    """Does the line force mate in <= n mover moves against every defense?

    `line` holds Moves or UCI strings. Each is found by its key among the
    kernel's legal move tuples of its ply, and those tuples are the
    proof's script: the mover follows the scripted moves while the
    opponent complies with the line; on any deviation the continuation
    is re-proved full-width. Raises LineError if the line itself is not
    a legal sequence.
    """
    if not line or len(line) > 2 * n - 1:
        raise ValueError(f"line length must be 1..{2 * n - 1}")
    mg = _board._mg
    start = pos = _state(board)
    script = []
    for m in line:
        script.append(_find(mg, pos, m))
        pos = _apply(mg, pos, script[-1])
    return _proves(mg, start, n, tuple(script))


# -- the solver ----------------------------------------------------------------


def solve(board: Board, n: int, profile: PlayerProfile,
          ltm: Optional[LongTermMemory] = None,
          catalog=None, limits: Optional[SolveLimits] = None,
          seed: int = 0, puzzle_id: str = "",
          time_limit_ms: Optional[float] = None) -> SolveResult:
    """Run the four reasoning phases on one puzzle.

    A "solved" verdict always carries a validated line. With a
    `time_limit_ms`, no further situation is selected once the simulated
    clock has reached it, just as when `max_total_nodes` is spent. The
    long-term memory is updated in place: +1 for a situation whose own
    proposed move opened the validated line, -1 for every situation that
    was refuted, budget-exhausted, or rescued only by the fallback moves.
    Deterministic given identical inputs and seed.
    """
    check_mate_depth(n)
    if time_limit_ms is not None and not time_limit_ms > 0:
        raise ValueError(f"time_limit_ms must be > 0, got {time_limit_ms}")
    limits = limits or SolveLimits()
    ltm = ltm or LongTermMemory()
    catalog = catalog if catalog is not None else load_catalog()
    trace = ReasoningTrace({"puzzle": puzzle_id, "fen": emit_fen(board), "mate_in": n,
                            "profile": profile.style, "seed": seed})

    perception = orient(board, catalog, limits.wm_capacity)
    clock = _COST_ORIENT_MS
    relation_ids = [r.id for r in perception.relations]
    trace.add(clock, "orientation", "chunks", None,
              {"instances": [e.id for e in perception.pool if e.etype == "chunk"]})
    trace.add(clock, "orientation", "relations", None,
              {"count": len(relation_ids), "ids": relation_ids})
    trace.add(clock, "orientation", "working-memory", None,
              {"loaded": list(perception.loaded),
               "rejected": list(perception.rejected), "capacity": limits.wm_capacity})

    scored = explore(board, perception, ltm, profile, limits.entity_cap)
    clock += _COST_EXPLORE_MS
    trace.add(clock, "exploration", "ranking", None, {"candidates": [
        {"signature": sig, "score": round(score, 9),
         "dominance": round(tag.dominance, 9), "entities": size}
        for score, tag, sig, size, _ in scored]})

    nodes_total = investigated = 0
    table = {}  # investigate's OR-node results, shared by this solve only
    for episode, (score, tag, sig, _, model) in enumerate(scored, start=1):
        if (investigated >= limits.max_situations
                or nodes_total >= limits.max_total_nodes
                or (time_limit_ms is not None and clock >= time_limit_ms)):
            break
        budget = min(effort_budget(tag, profile), limits.max_total_nodes - nodes_total)
        situation = model()
        trace.add(clock, "exploration", "selected", episode,
                  {"signature": sig, "score": round(score, 9), "budget": budget,
                   "entities": list(situation.entity_ids)})
        result = investigate(board, situation, n, budget, table)
        investigated += 1
        nodes_total += result.nodes
        clock += result.nodes * _COST_PER_NODE_MS
        ucis = [m.uci for m in result.line] if result.line else None
        trace.add(clock, "investigation", "searched", episode,
                  {"nodes": result.nodes, "exhausted": result.exhausted, "line": ucis})

        if result.line:
            valid = validate_line(board, result.line, n)
            clock += _COST_VALIDATE_MS
            proposed = _move_to_tuple(result.line[0]) in situation.proposed
            trace.add(clock, "validation", "checked", episode,
                      {"line": ucis, "valid": valid, "proposed": proposed})
            if valid:
                # credit the situation only if its own proposal started the line;
                # a mate found through the fallback moves refuted its proposals first
                ltm.update(sig, 1.0 if proposed else -1.0)
                trace.add(clock, "validation", "verdict", episode,
                          {"verdict": "solved", "line": ucis, "nodes": nodes_total})
                return SolveResult("solved", ucis, nodes_total, investigated, trace)
        ltm.update(sig, -1.0)

    trace.add(clock, "exploration", "exhausted", None,
              {"verdict": "unsolved", "nodes": nodes_total, "situations": investigated})
    return SolveResult("unsolved", [], nodes_total, investigated, trace)
