"""Layer spans for the traced run.

Each wrapper is installed where its caller looks the name up (a module
global such as `cogchess.reasoner.extract_relations`, a class attribute
such as `Board.apply_move`, or the `_mg` kernel that `cogchess.board`
calls through), so the program itself is unchanged. A span is opened and
closed around every call; its parent is the span open below it on the
one caller's stack. When a span closes, its duration less the time its
child spans covered goes to its layer's self time, and its duration goes
to its parent's child time. Spans are folded into per-layer sums as they
close rather than kept, because a `desk` round opens several hundred
thousand of them.
"""

from __future__ import annotations

import time
import types
from dataclasses import dataclass

KERNEL_CALLS = ("legal_moves", "apply_move", "in_check", "perft",
                "attack_targets", "attackers")


@dataclass
class Layer:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.layers: dict = {}
        self.counts: dict = {}
        self._open: list = []  # child time of each open span, innermost last
        self._installed: list = []

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, counter=None):
        """`fn` inside a span of layer `name`; `counter(tracer, result)`
        may record work counts taken from the result."""
        layer = self.layers.setdefault(name, Layer())
        stack = self._open
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                layer.calls += 1
                layer.self_s += duration - children
            if counter is not None:
                counter(self, result)
            return result

        return spanned

    def replace(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, owner, attr: str, name: str, counter=None) -> None:
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), counter))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, value = self._installed.pop()
            setattr(owner, attr, value)


def _investigated(tracer, result):
    tracer.count("reasoner.investigate.nodes", result.nodes)


def _enumerated(tracer, result):
    tracer.count("reasoner.candidates", len(result))


def _parsed(tracer, session):
    tracer.count("ingest.records",
                 len(session.au_stream) + len(session.skeleton_stream)
                 + len(session.pupil_stream) + len(session.markers)
                 + len(session.passthrough) + len(session.line_errors))
    tracer.count("ingest.bad_lines", len(session.line_errors))


def install_all(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    from cogchess import affect, board, chunks, cli, memory, reasoner

    kernel = board._mg
    proxy = types.SimpleNamespace(**{
        n: getattr(kernel, n) for n in dir(kernel) if not n.startswith("__")})
    for fn in KERNEL_CALLS:
        setattr(proxy, fn, tracer.wrap(f"movegen.{fn}", getattr(kernel, fn)))
    tracer.replace(board, "_mg", proxy)

    for method in ("apply_move", "legal_moves", "game_status"):
        tracer.install(board.Board, method, f"board.{method}")

    tracer.install(reasoner, "solve", "reasoner.solve")
    tracer.install(cli, "solve", "reasoner.solve")
    tracer.install(reasoner, "investigate", "reasoner.investigate", _investigated)
    tracer.install(reasoner, "validate_line", "reasoner.validate")
    tracer.install(reasoner, "enumerate_situations", "reasoner.enumerate",
                   _enumerated)
    tracer.install(reasoner, "extract_relations", "relations.extract")
    tracer.install(chunks, "extract_relations", "relations.extract")
    tracer.install(reasoner, "recognize_chunks", "chunks.recognize")
    tracer.install(reasoner, "situation_signature", "memory.signature")
    tracer.install(memory.LongTermMemory, "lookup", "memory.ltm_lookup")
    tracer.install(memory.LongTermMemory, "update", "memory.ltm_update")

    tracer.install(cli, "parse_recording", "ingest.parse", _parsed)
    tracer.install(cli, "compute_arousal", "affect.arousal")
    tracer.install(cli, "compute_agitation", "affect.agitation")
    tracer.install(cli, "detect_self_touch_events", "affect.touch")
    tracer.install(affect, "detect_self_touch_events", "affect.touch")
    tracer.install(cli, "task_stats", "affect.task_stats")
    tracer.install(cli, "classify_emotion", "affect.classify")
    tracer.install(affect, "classify_emotion", "affect.classify")

    tracer.install(cli, "run_solve", "cli.solve")
    tracer.install(cli, "run_analyze", "cli.analyze")


# Per-layer metrics of the traced round. `<layer>.calls` and
# `<layer>.self_s` read the layer's spans; the other names are counts
# taken from results, or ratios computed in `layer_metrics`.
SPAN_METRICS = (
    "movegen.legal_moves.calls", "movegen.apply_move.calls",
    "movegen.legal_moves.self_s", "movegen.apply_move.self_s",
    "board.apply_move.self_s", "board.legal_moves.self_s",
    "board.game_status.self_s",
    "reasoner.solve.self_s",
    "reasoner.investigate.calls", "reasoner.investigate.self_s",
    "reasoner.validate.self_s",
    "reasoner.enumerate.calls", "reasoner.enumerate.self_s",
    "relations.extract.calls", "relations.extract.self_s",
    "chunks.recognize.self_s",
    "memory.ltm_lookup.calls", "memory.ltm_update.calls",
    "memory.signature.self_s",
    "ingest.parse.self_s",
    "affect.arousal.calls", "affect.arousal.self_s",
    "affect.agitation.self_s", "affect.touch.self_s",
    "affect.task_stats.self_s", "affect.classify.calls",
    "cli.solve.self_s", "cli.analyze.self_s",
)
COUNT_METRICS = ("reasoner.investigate.nodes", "reasoner.candidates",
                 "ingest.records", "ingest.bad_lines")


def layer_metrics(tracer: Tracer) -> dict:
    """name -> (value, unit) for every span and count metric."""
    out = {}
    for name in SPAN_METRICS:
        layer_name, field = name.rsplit(".", 1)
        layer = tracer.layers.get(layer_name, Layer())
        if field == "calls":
            out[name] = (layer.calls, "count")
        else:
            out[name] = (layer.self_s, "s")
    for name in COUNT_METRICS:
        out[name] = (tracer.counts.get(name, 0), "count")
    positions = tracer.layers.get("movegen.apply_move", Layer()).calls
    nodes = tracer.counts.get("reasoner.investigate.nodes", 0)
    out["reasoner.nodes_per_position"] = (nodes / positions if positions else 0.0,
                                          "ratio")
    return out
