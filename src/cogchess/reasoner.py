"""Situation-model reasoner: solves Mate-in-N puzzles in four phases.

Orientation recognizes chunks and relations and loads entities into
working memory. Exploration enumerates candidate situation models (at
most 4 entities each), scores them with the emotion tags recalled from
long-term memory, and ranks them. Investigation runs a budgeted AND-OR
search whose root move ordering prefers moves proposed by the chosen
situation. Validation replays a claimed mating line full-width, with no
pruning and no budget, so a solved verdict is always exact; every
investigated situation feeds a reward back into long-term memory.

Trace timestamps use a simulated clock (1 ms per searched node plus small
fixed phase costs), never wall time, so runs are reproducible byte for
byte.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from . import board as _board
from .board import Board, Color, Move, _move_from_tuple, _move_to_tuple
from .chunks import ChunkInstance, load_catalog, recognize_chunks
from .memory import (
    EmotionTag, LongTermMemory, Entity, WorkingMemory, situation_signature,
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
    """A bounded partial description of the position (<= 4 entities)."""

    color: Color
    entities: tuple
    relations: tuple
    moves: tuple
    piece_info: dict = field(compare=False, hash=False, default_factory=dict)
    emotion: EmotionTag = EmotionTag()

    def __post_init__(self):
        if not 1 <= len(self.entities) <= ENTITY_CAP:
            raise ValueError(f"situation must hold 1..{ENTITY_CAP} entities")

    @property
    def entity_ids(self) -> tuple:
        return tuple(e.id for e in self.entities)


@dataclass(frozen=True)
class PlayerProfile:
    style: str  # defensive / aggressive / neutral
    arousal_weight: float = 1.0
    valence_weight: float = 1.0
    base_budget: int = 3000

    def __post_init__(self):
        if self.style not in ("defensive", "aggressive", "neutral"):
            raise ValueError(f"unknown style {self.style!r}")
        if not (math.isfinite(self.arousal_weight) and math.isfinite(self.valence_weight)):
            raise ValueError("weights must be finite")
        if self.arousal_weight < 0 or self.valence_weight < 0:
            raise ValueError("weights must be >= 0")
        if self.base_budget < 1:
            raise ValueError("base_budget must be >= 1")


PROFILES = {
    "defensive": PlayerProfile("defensive"),
    "aggressive": PlayerProfile("aggressive"),
    "neutral": PlayerProfile("neutral"),
}


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
    max_candidates: int = MAX_CANDIDATES
    wm_capacity: int = 7
    reward_scale: float = 1.0
    survival_check: bool = False


@dataclass
class SolveResult:
    verdict: str  # solved / unsolved / hopeless
    line: list
    nodes: int
    situations_investigated: int
    trace: ReasoningTrace
    forced_loss_in: Optional[int] = None


# -- exploration ---------------------------------------------------------------


def _piece_entity(piece) -> SituationEntity:
    return SituationEntity(piece.id, "piece", piece.kind.value, piece.color,
                           (piece.id,))


def _chunk_entity(chunk: ChunkInstance) -> SituationEntity:
    return SituationEntity(chunk.id, "chunk", chunk.pattern, chunk.color,
                           chunk.members)


def enumerate_situations(board: Board, chunks, cap: int = ENTITY_CAP,
                         max_candidates: int = MAX_CANDIDATES) -> list:
    """Candidate situation models, deterministically pre-ranked.

    Candidates are subsets (size <= cap, at most `max_candidates` of them)
    of the entity pool {chunk instances} + {single pieces} that contain at
    least one entity of each color and propose at least one mover move.
    To keep enumeration bounded, subsets are drawn from the
    `POOL_RANK_LIMIT` entities covering the most relations. The pre-rank
    orders candidates by size, then by covered relations (more first),
    then by entity ids.
    """
    if cap not in (2, 3, 4):
        raise ValueError(f"entity cap must be 2..4, got {cap}")
    relations = sorted(extract_relations(board), key=lambda r: r.id)
    pool = [_chunk_entity(c) for c in chunks] + [_piece_entity(p) for p in board.pieces]

    def coverage(entity):
        members = set(entity.piece_ids)
        return sum(1 for r in relations if members & set(r.entities))

    ranked = sorted(pool, key=lambda e: (-coverage(e), e.id))
    selected = ranked[:POOL_RANK_LIMIT]
    for color in (Color.WHITE, Color.BLACK):
        if not any(e.color is color for e in selected):
            extra = next((e for e in ranked[POOL_RANK_LIMIT:] if e.color is color), None)
            if extra is not None:
                selected.append(extra)

    legal = board.legal_moves()
    pid_at = {p.square.index: p.id for p in board.pieces}
    piece_info = {p.id: (p.kind.value, p.color) for p in board.pieces}

    candidates = []
    seen = set()
    mover = board.side_to_move
    for size in range(2, cap + 1):
        for combo in itertools.combinations(selected, size):
            ids = frozenset(e.id for e in combo)
            if ids in seen:
                continue
            seen.add(ids)
            colors = {e.color for e in combo}
            if len(colors) != 2:
                continue
            member_pieces = set()
            for e in combo:
                member_pieces.update(e.piece_ids)
            inside = tuple(r for r in relations
                           if set(r.entities) <= member_pieces)
            moves = tuple(m for m in legal
                          if pid_at[m.from_sq.index] in member_pieces)
            if not moves:  # a situation must propose at least one move
                continue
            entities = tuple(sorted(combo, key=lambda e: e.id))
            info = {pid: piece_info[pid] for pid in member_pieces}
            candidates.append(SituationModel(mover, entities, inside, moves, info))

    candidates.sort(key=lambda s: (len(s.entities), -len(s.relations), s.entity_ids))
    return candidates[:max_candidates]


def score_situation(situation: SituationModel, tag: EmotionTag,
                    profile: PlayerProfile) -> float:
    """Selection priority: arousal plus a style-dependent view of valence.

    Defensive players prioritize unfavorable situations, aggressive
    players favorable ones, neutral players any strong valence.
    """
    if profile.style == "defensive":
        g = max(0.0, -tag.valence)
    elif profile.style == "aggressive":
        g = max(0.0, tag.valence)
    else:
        g = abs(tag.valence)
    return profile.arousal_weight * tag.arousal + profile.valence_weight * g


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


def _ordered(mg, state, moves) -> list:
    """(move, child, gives_check) for each of `moves`: checks, then
    captures, then the rest, in kernel order within each class."""
    sq, stm, castling, ep, half, full = state
    child_white = stm == 1
    ranks = ([], [], [])
    for m in moves:
        child = mg.apply_move(sq, stm, castling, ep, half, full, *m)
        check = mg.in_check(child[0], child_white)
        ranks[0 if check else 2 - (m[3] & 1)].append((m, child, check))
    return ranks[0] + ranks[1] + ranks[2]


def _apply(mg, state, m) -> tuple:
    return mg.apply_move(*state, *m)


def investigate(board: Board, situation: SituationModel, n: int,
                budget: int) -> InvestigationResult:
    """Depth-limited AND-OR search for a forced mate in <= n mover moves.

    Root moves are ordered situation-first (checks, captures, quiet within
    each group); opponent replies are always exhaustive. Expands at most
    `budget` nodes; an exhausted budget is a failure for this situation,
    not an error.
    """
    if n < 1 or budget < 1:
        raise ValueError("need n >= 1 and budget >= 1")
    mg = _board._mg
    preferred = {_move_to_tuple(m)[:3] for m in situation.moves}
    counter = {"nodes": 0}

    def spend():
        counter["nodes"] += 1
        if counter["nodes"] > budget:
            raise _BudgetExhausted

    def or_node(state, movers_left: int, at_root: bool) -> Optional[list]:
        spend()
        ordered = _ordered(mg, state, mg.legal_moves(*state[:4]))
        if at_root:
            ordered = ([t for t in ordered if t[0][:3] in preferred]
                       + [t for t in ordered if t[0][:3] not in preferred])
        for m, child, check in ordered:
            if movers_left == 1 and not check:
                continue  # the last mover move must mate, so must check
            replies = mg.legal_moves(*child[:4])
            if not replies:
                if check:
                    return [m]
                continue  # stalemate
            if movers_left > 1:
                reply_line = and_node(child, replies, movers_left - 1)
                if reply_line is not None:
                    return [m] + reply_line
        return None

    def and_node(state, replies, movers_left: int) -> Optional[list]:
        spend()
        pv = None
        for reply in replies:
            cont = or_node(_apply(mg, state, reply), movers_left, False)
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


def _proves(mg, state, movers_left: int) -> bool:
    """Full-width forced-mate proof on a raw state."""
    if movers_left < 1:
        return False
    for _, child, check in _ordered(mg, state, mg.legal_moves(*state[:4])):
        if movers_left == 1 and not check:
            continue
        replies = mg.legal_moves(*child[:4])
        if not replies:
            if check:
                return True
            continue
        if movers_left > 1 and all(
                _proves(mg, _apply(mg, child, r), movers_left - 1) for r in replies):
            return True
    return False


def _prove_mate(board: Board, movers_left: int) -> bool:
    """Full-width forced-mate proof, no budget, no situation pruning."""
    return _proves(_board._mg, _state(board), movers_left)


def _uci(m) -> str:
    return _move_from_tuple(m).uci


def _find(mg, state, uci: str):
    """The legal move of `state` spelled `uci`, or LineError."""
    for m in mg.legal_moves(*state[:4]):
        if _uci(m) == uci:
            return m
    raise LineError(f"illegal move {uci!r} in line")


def validate_line(board: Board, line, n: int) -> bool:
    """Does the line force mate in <= n mover moves against every defense?

    The mover follows the scripted moves while the opponent complies with
    the line; on any deviation the continuation is re-proved full-width.
    Raises LineError if the line itself is not a legal sequence.
    """
    if not line or len(line) > 2 * n - 1:
        raise ValueError(f"line length must be 1..{2 * n - 1}")
    ucis = [m.uci if isinstance(m, Move) else str(m) for m in line]
    mg = _board._mg
    start = pos = _state(board)
    for u in ucis:
        pos = _apply(mg, pos, _find(mg, pos, u))

    def follow(state, script, movers_left: int) -> bool:
        if movers_left < 1:
            return False
        if not script:
            return _proves(mg, state, movers_left)
        child = _apply(mg, state, _find(mg, state, script[0]))
        check = mg.in_check(child[0], child[1] == 0)
        if movers_left == 1 and not check:
            return False
        replies = mg.legal_moves(*child[:4])
        if not replies:
            return check
        if movers_left == 1:
            return False
        expected = script[1] if len(script) > 1 else None
        for reply in replies:
            after = _apply(mg, child, reply)
            if expected is not None and _uci(reply) == expected:
                if not follow(after, script[2:], movers_left - 1):
                    return False
            else:
                if not _proves(mg, after, movers_left - 1):
                    return False
        return True

    return follow(start, ucis, n)


def forced_loss_in(board: Board, n: int) -> Optional[int]:
    """Smallest k <= n such that the opponent mates the mover in k of the
    opponent's own moves against any defense, or None."""
    mg = _board._mg
    state = _state(board)
    moves = mg.legal_moves(*state[:4])
    if not moves:
        return None
    for k in range(1, n + 1):
        if all(_proves(mg, _apply(mg, state, m), k) for m in moves):
            return k
    return None


# -- the solver ----------------------------------------------------------------


def solve(board: Board, n: int, profile: PlayerProfile,
          wm: Optional[WorkingMemory] = None,
          ltm: Optional[LongTermMemory] = None,
          catalog=None, limits: Optional[SolveLimits] = None,
          seed: int = 0, puzzle_id: str = "") -> SolveResult:
    """Run the four reasoning phases on one puzzle.

    A "solved" verdict always carries a validated line. The long-term
    memory is updated in place: +1 for a situation whose own proposed move
    opened the validated line, -1 for every situation that was refuted,
    budget-exhausted, or rescued only by the fallback moves (scaled by
    `limits.reward_scale`). Deterministic given identical inputs and seed.
    """
    if not 1 <= n <= 6:
        raise ValueError(f"mate depth must be 1..6, got {n}")
    limits = limits or SolveLimits()
    wm = wm or WorkingMemory(capacity=limits.wm_capacity)
    ltm = ltm or LongTermMemory()
    catalog = catalog if catalog is not None else load_catalog()

    from .board import emit_fen
    trace = ReasoningTrace({
        "puzzle": puzzle_id, "fen": emit_fen(board), "mate_in": n,
        "profile": profile.style, "seed": seed,
    })
    clock = 0

    # Orientation: perceive chunks and relations, load entities into WM.
    chunks = recognize_chunks(board, catalog)
    relations = sorted(extract_relations(board), key=lambda r: r.id)
    clock += _COST_ORIENT_MS
    trace.add(clock, "orientation", "chunks", None,
              {"instances": [c.id for c in chunks]})
    trace.add(clock, "orientation", "relations", None,
              {"count": len(relations), "ids": [r.id for r in relations]})

    pool = [_chunk_entity(c) for c in chunks] + \
           [_piece_entity(p) for p in board.pieces]
    cover = {e.id: sum(1 for r in relations if set(e.piece_ids) & set(r.entities))
             for e in pool}
    max_cover = max(cover.values(), default=0) or 1
    accepted, rejected = [], []
    for e in sorted(pool, key=lambda e: (e.etype != "chunk", -cover[e.id], e.id)):
        activation = 0.5 + 0.5 * cover[e.id] / max_cover
        if wm.insert(Entity(e.id, activation)):
            accepted.append(e.id)
        else:
            rejected.append(e.id)
    trace.add(clock, "orientation", "working-memory", None,
              {"loaded": accepted, "rejected": rejected,
               "capacity": wm.capacity})

    # Exploration: enumerate, score with recalled emotion, rank.
    candidates = enumerate_situations(board, chunks, limits.entity_cap,
                                      limits.max_candidates)
    scored = []
    for s in candidates:
        sig = situation_signature(s)
        tag = ltm.lookup(sig)
        scored.append((score_situation(s, tag, profile), tag, sig,
                       replace(s, emotion=tag)))
    # stable: full ties keep the enumeration pre-rank (cold-start fallback)
    scored.sort(key=lambda t: (-t[0], -t[1].dominance))
    clock += _COST_EXPLORE_MS
    trace.add(clock, "exploration", "ranking", None,
              {"candidates": [{"signature": sig, "score": round(score, 9),
                               "dominance": round(tag.dominance, 9),
                               "entities": len(s.entities)}
                              for score, tag, sig, s in scored]})

    nodes_total = 0
    investigated = 0
    for episode, (score, tag, sig, situation) in enumerate(scored, start=1):
        if investigated >= limits.max_situations:
            break
        if nodes_total >= limits.max_total_nodes:
            break
        budget = min(effort_budget(tag, profile),
                     limits.max_total_nodes - nodes_total)
        trace.add(clock, "exploration", "selected", episode,
                  {"signature": sig, "score": round(score, 9),
                   "budget": budget,
                   "entities": list(situation.entity_ids)})

        result = investigate(board, situation, n, budget)
        investigated += 1
        nodes_total += result.nodes
        clock += result.nodes * _COST_PER_NODE_MS
        wm.tick(result.nodes * _COST_PER_NODE_MS)
        trace.add(clock, "investigation", "searched", episode,
                  {"nodes": result.nodes, "exhausted": result.exhausted,
                   "line": [m.uci for m in result.line] if result.line else None})

        if result.line:
            ucis = [m.uci for m in result.line]
            valid = validate_line(board, ucis, n)
            clock += _COST_VALIDATE_MS
            proposed = ucis[0] in {m.uci for m in situation.moves}
            trace.add(clock, "validation", "checked", episode,
                      {"line": ucis, "valid": valid, "proposed": proposed})
            if valid:
                # credit the situation only if its own proposal started the
                # line; a mate found through the fallback moves means the
                # situation's proposals were refuted first
                ltm.update(sig, limits.reward_scale if proposed
                           else -limits.reward_scale)
                trace.add(clock, "validation", "verdict", episode,
                          {"verdict": "solved", "line": ucis,
                           "nodes": nodes_total})
                return SolveResult("solved", ucis, nodes_total, investigated, trace)
            ltm.update(sig, -limits.reward_scale)
        else:
            ltm.update(sig, -limits.reward_scale)

    loss = None
    verdict = "unsolved"
    if limits.survival_check:
        loss = forced_loss_in(board, n)
        if loss is not None:
            verdict = "hopeless"
    trace.add(clock, "exploration", "exhausted", None,
              {"verdict": verdict, "nodes": nodes_total,
               "situations": investigated, "forced_loss_in": loss})
    return SolveResult(verdict, [], nodes_total, investigated, trace, loss)
