"""The three workloads: `desk`, `guidance` and `analyze`.

A workload's constructor is its set-up: it loads or generates the inputs
for one seed. `operations()` returns one round, a fresh list of
`(label, call, context)` triples; a single caller runs the calls in
order. After the timed region `check(ops, results)` compares one round's
outputs with computations made outside the program (the brute-force
oracle of `tests/oracles.py`, or facts the input generator planted) and
returns one flag per operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
from functools import partial
from pathlib import Path

from cogchess import cli, reasoner
from cogchess.board import parse_fen
from cogchess.memory import LongTermMemory
from cogchess.reasoner import SolveLimits

import motifs
import reference
from recording import make_recording

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DESK_FILE = ROOT / "tests" / "data" / "puzzles_desk40.jsonl"
VARIANTS_FILE = HERE / "motif_variants.txt"


# what reading a missing, truncated or foreign output raises
_MALFORMED = (OSError, ValueError, IndexError, KeyError, StopIteration)


def _holds(predicate, *args) -> bool:
    """predicate(*args), with an unreadable or malformed output as False."""
    try:
        return bool(predicate(*args))
    except _MALFORMED:
        return False


def _cli(argv) -> tuple:
    """One in-process `cogchess` call: (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


class _Oracle:
    """Memoised brute-force mate checks, shared by every round of a run."""

    def __init__(self):
        import oracles

        self.o = oracles
        self._memo: dict = {}

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def mates_in(self, fen: str, n: int) -> bool:
        return self._cached(("mate", fen, n), lambda: self.o.mate_in(
            self.o.from_board(parse_fen(fen)), n))

    def confirms(self, fen: str, line: tuple, n: int) -> bool:
        return self._cached(("line", fen, line, n),
                            lambda: self._confirms(fen, line, n))

    def _confirms(self, fen, line, n):
        """The first move of `line` forces mate in <= n.

        Exhaustive for n <= 2. For deeper lines the principal variation
        is replayed and its remainder proved exhaustively, as acceptance
        criterion 6 does.
        """
        o = self.o
        if not line:
            return False
        pos = o.from_board(parse_fen(fen))

        def play(p, uci):
            return o.apply(p, next(m for m in o.legal_moves(p)
                                   if o.move_uci(m) == uci))

        after = play(pos, line[0])
        if o.game_status(after) == "checkmate":
            return True
        if n <= 2:
            replies = o.legal_moves(after)
            return bool(replies) and all(
                o.mate_in(o.apply(after, r), n - 1) for r in replies)
        for uci in line[1:]:
            after = play(after, uci)
        plies_left = 2 * n - 1 - len(line)
        return o.game_status(after) == "checkmate" or \
            o.mate_in(after, (plies_left + 1) // 2)


class Desk:
    """Each desk-40 puzzle solved at its stated depth by one in-process
    `cogchess solve`, and each mate-in-2 and mate-in-3 also asked one
    move short, which must come back unsolved: 60 operations a round."""

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        puzzles = [json.loads(line) for line in DESK_FILE.read_text().splitlines()
                   if line.strip()]
        asks = [(p, p["mate_in"]) for p in puzzles]
        asks += [(p, p["mate_in"] - 1) for p in puzzles if p["mate_in"] >= 2]
        random.Random(seed).shuffle(asks)
        inputs = out / "inputs"
        inputs.mkdir(parents=True)
        self.asks = []
        for p, n in asks:
            label = f"{p['id']}@{n}"
            path = inputs / f"{label}.jsonl"
            path.write_text(json.dumps(dict(p, mate_in=n)) + "\n")
            self.asks.append((label, p, n, path))
        self.rounds = 0
        self._oracle = None

    def operations(self) -> list:
        self.rounds += 1
        ops = []
        for label, p, n, path in self.asks:
            dest = self.out / f"round{self.rounds}" / label
            ops.append((label, partial(_cli, ["solve", "--puzzles", str(path),
                                              "--seed", str(self.seed),
                                              "--out", str(dest)]),
                        (p, n, dest)))
        return ops

    def check(self, ops, results) -> list:
        self._oracle = self._oracle or _Oracle()
        return [code == 0 and _holds(self._answer_right, p, n, dest)
                for (_, _, (p, n, dest)), (code, _) in zip(ops, results)]

    def _answer_right(self, p, n, dest) -> bool:
        row = (dest / "verdicts.tsv").read_text().splitlines()[1].split("\t")
        verdict, line = row[1], tuple(row[2].split())
        if row[0] != p["id"] or not (dest / "traces" / f"{p['id']}.trace.jsonl").is_file():
            return False
        if n == p["mate_in"]:
            return verdict == "solved" and self._oracle.confirms(p["fen"], line, n)
        return verdict == "unsolved" and not self._oracle.mates_in(p["fen"], n)


class Guidance:
    """The emotion-guidance experiment (acceptance criterion 7) for one
    seed through the Python API: train one long-term memory on 50 motif
    variants, then solve the 10 held-out variants with a snapshot of it
    and with an empty memory: 70 solves a round."""

    TRAIN = 50
    HELD_OUT = 10

    def __init__(self, seed: int, out: Path):
        fens = [line for line in VARIANTS_FILE.read_text().splitlines() if line.strip()]
        # the split of tests/motifs.split_for_seed, on the frozen pool
        rng = random.Random(seed)
        rng.shuffle(fens)
        self.held_out = fens[:self.HELD_OUT]
        rest = fens[self.HELD_OUT:]
        self.train = [rest[i % len(rest)] for i in range(self.TRAIN)]
        rng.shuffle(self.train)
        self.limits = SolveLimits(**motifs.MOTIF_LIMITS)
        self._oracle = None

    def _solve(self, fen, ltm) -> tuple:
        result = reasoner.solve(parse_fen(fen), 2, motifs.MOTIF_PROFILE,
                                ltm=ltm, limits=self.limits, seed=0)
        return result.verdict, tuple(result.line), result.nodes

    def operations(self) -> list:
        ltm = LongTermMemory()
        snapshot = []

        def warm(fen):
            if not snapshot:
                snapshot.append(ltm.dump())
            return self._solve(fen, LongTermMemory.load(snapshot[0]))

        return ([("train", partial(self._solve, f, ltm), f) for f in self.train]
                + [("warm", partial(warm, f), f) for f in self.held_out]
                + [("cold", partial(self._solve, f, None), f) for f in self.held_out])

    def check(self, ops, results) -> list:
        self._oracle = self._oracle or _Oracle()
        flags = [verdict == "solved" and _holds(self._oracle.confirms, fen, line, 2)
                 for (_, _, fen), (verdict, line, _) in zip(ops, results)]
        nodes = {"warm": [], "cold": [], "train": []}
        for (label, _, _), (_, _, n) in zip(ops, results):
            nodes[label].append(n)
        if not (nodes["warm"] and nodes["cold"]
                and statistics.median(nodes["warm"]) < statistics.median(nodes["cold"])):
            # the guidance effect is a property of the evaluation solves
            flags = [ok and label == "train" for (label, _, _), ok in zip(ops, flags)]
        return flags


class Analyze:
    """In-process `cogchess analyze` over seeded synthetic recordings of
    two lengths, both past the 60 s arousal window: one of 70 s (3 tasks)
    and one of 140 s (4 tasks), each task behind a 2 s baseline, in a
    seeded order: 2 operations a round."""

    SHAPES = ((20, 24, 24), (34, 34, 35, 35))

    def __init__(self, seed: int, out: Path):
        self.out = out
        rng = random.Random(seed)
        inputs = out / "inputs"
        inputs.mkdir(parents=True)
        self.recordings = []
        for i, shape in enumerate(self.SHAPES):
            text, facts = make_recording(rng, shape, subject=f"s{i:02d}")
            path = inputs / f"rec{i:02d}.rec"
            path.write_text(text)
            self.recordings.append((f"rec{i:02d}", path, facts))
        rng.shuffle(self.recordings)
        self.recorded_s = sum(f.recorded_s for _, _, f in self.recordings)
        self.rounds = 0
        self._expected = {}

    def operations(self) -> list:
        self.rounds += 1
        ops = []
        for label, path, facts in self.recordings:
            dest = self.out / f"round{self.rounds}" / label
            ops.append((label, partial(_cli, ["analyze", "--recording", str(path),
                                              "--out", str(dest)]),
                        (facts, dest)))
        return ops

    def check(self, ops, results) -> list:
        return [code == 0 and _holds(self._matches, label, dest, facts, err)
                for (label, _, (facts, dest)), (code, err) in zip(ops, results)]

    def _matches(self, label, dest: Path, facts, stderr: str) -> bool:
        """The analyzer's files agree with what the generator planted and
        with the series `reference.py` recomputes from the written values."""
        if label not in self._expected:
            self._expected[label] = (reference.au_series(facts),
                                     reference.skeleton_series(facts))
        au_ref, skeleton_ref = self._expected[label]

        def rows(name):
            return [line.split("\t") for line in
                    (dest / name).read_text().splitlines()[1:]]

        counts = tuple((int(r[0]), int(r[4]), int(r[5])) for r in rows("task_stats.tsv"))
        au = rows("au_series.tsv")
        skeleton = rows("skeleton_series.tsv")
        touches = tuple((int(s), int(e)) for s, e in rows("touch_events.tsv"))
        step = [float(r[2]) for r in au if int(r[0]) == facts.step_t_ms]
        return (counts == facts.tasks
                and touches == facts.touches
                and len(step) == 1 and _printed(step[0], facts.step_arousal)
                and len(au) == len(au_ref) and all(
                    int(r[0]) == t and _printed(float(r[1]), v)
                    and _printed(float(r[2]), a) and r[3] == e
                    for r, (t, v, a), e in zip(au, au_ref, facts.labels))
                and len(skeleton) == len(skeleton_ref) and all(
                    int(r[0]) == t and _printed(float(r[1]), vol)
                    and (r[2] == "" if ag is None else _printed(float(r[2]), ag))
                    for r, (t, vol, ag) in zip(skeleton, skeleton_ref))
                and "pupil_stream records arrived out of order" in stderr)


def _printed(shown: float, exact: float) -> bool:
    """`shown`, a value the analyzer printed with 6 decimals, is `exact`
    rounded: within half a unit in the last place, plus 1e-9 for the
    rounding errors of the program's sums."""
    return abs(shown - exact) <= 5e-7 + 1e-9


WORKLOADS = {"desk": Desk, "guidance": Guidance, "analyze": Analyze}
