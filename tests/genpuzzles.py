"""Generator for the frozen 40-puzzle desk suite (tests/data/).

Every puzzle is verified twice before freezing: the package's own
full-width prover (fast) pre-filters, then the independent brute-force
oracle confirms mate-in-N exactly (mate in N, no mate in N-1). Regenerate
with ``python tests/genpuzzles.py`` from the repository root.
"""

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import oracles
from cogchess import board as _board
from cogchess.board import GameStatus, parse_fen
from cogchess.reasoner import _proves

TIME_LIMITS = {1: 120, 2: 120, 3: 180}


def _try_board(fen):
    try:
        return parse_fen(fen)
    except ValueError:
        return None


def _mate_exactly(board, n):
    """Package-side check: mate in n but not in n - 1."""
    if board.game_status() is not GameStatus.ONGOING:
        return False
    if n > 1 and _proves(_board._mg, board._state, n - 1):
        return False
    return _proves(_board._mg, board._state, n)


def back_rank_boards(rng):
    """Rook or queen mates against a castled-style pawn wall."""
    piece = rng.choice("RQ")
    heavy_file = rng.choice("abcde")
    heavy_rank = rng.randint(1, 6)
    wk = rng.choice(["g1", "h1", "h2", "g2"])
    rows = {8: {"g": "k"}, 7: {"f": "p", "g": "p", "h": "p"},
            heavy_rank: {heavy_file: piece}}
    rows.setdefault(int(wk[1]), {})[wk[0]] = "K"
    grid = []
    for r in range(8, 0, -1):
        row = ""
        run = 0
        for f in "abcdefgh":
            ch = rows.get(r, {}).get(f)
            if ch is None:
                run += 1
            else:
                if run:
                    row += str(run)
                    run = 0
                row += ch
        if run:
            row += str(run)
        grid.append(row)
    return f"{'/'.join(grid)} w - - 0 1"


def queen_corner_boards(rng):
    """Random K+Q vs K placements; caller filters by mate distance."""
    squares = [f + str(r) for f in "abcdefgh" for r in range(1, 9)]
    while True:
        bk, wq, wk = rng.sample(squares, 3)
        fen_map = {bk: "k", wq: "Q", wk: "K"}
        rows = []
        for r in range(8, 0, -1):
            row = ""
            run = 0
            for f in "abcdefgh":
                ch = fen_map.get(f + str(r))
                if ch is None:
                    run += 1
                else:
                    if run:
                        row += str(run)
                        run = 0
                    row += ch
            if run:
                row += str(run)
            rows.append(row)
        return f"{'/'.join(rows)} w - - 0 1"


def rook_corner_boards(rng):
    squares = [f + str(r) for f in "abcdefgh" for r in range(1, 9)]
    bk, wr, wk = rng.sample(squares, 3)
    fen_map = {bk: "k", wr: "R", wk: "K"}
    rows = []
    for r in range(8, 0, -1):
        row = ""
        run = 0
        for f in "abcdefgh":
            ch = fen_map.get(f + str(r))
            if ch is None:
                run += 1
            else:
                if run:
                    row += str(run)
                    run = 0
                row += ch
        if run:
            row += str(run)
        rows.append(row)
    return f"{'/'.join(rows)} w - - 0 1"


def mirror_fen(fen):
    """Flip ranks and swap colors; mate distance is preserved."""
    placement, side, castle, ep, half, full = fen.split()
    rows = placement.split("/")
    flipped = "/".join(r.swapcase() for r in reversed(rows))
    return f"{flipped} {'b' if side == 'w' else 'w'} - - {half} {full}"


def collect(n, count, generators, rng, seen):
    out = []
    attempts = 0
    while len(out) < count and attempts < 60_000:
        attempts += 1
        fen = rng.choice(generators)(rng)
        if rng.random() < 0.35:
            fen = mirror_fen(fen)
        if fen in seen:
            continue
        board = _try_board(fen)
        if board is None or not _mate_exactly(board, n):
            continue
        seen.add(fen)
        out.append(fen)
    if len(out) < count:
        raise RuntimeError(f"only found {len(out)} mate-in-{n} boards")
    return out


def oracle_verify(fen, n):
    pos = oracles.from_board(parse_fen(fen))
    if n > 1 and oracles.mate_in(pos, n - 1):
        return False
    return oracles.mate_in(pos, n)


def main():
    rng = random.Random(20260808)
    seen = set()
    suite = []
    plan = [(1, 20, [back_rank_boards, queen_corner_boards]),
            (2, 15, [queen_corner_boards]),
            (3, 5, [queen_corner_boards, rook_corner_boards])]
    for n, count, gens in plan:
        fens = collect(n, count, gens, rng, seen)
        for i, fen in enumerate(fens, start=1):
            print(f"oracle-verifying m{n} #{i}: {fen}", flush=True)
            assert oracle_verify(fen, n), fen
            suite.append({"id": f"m{n}-{i:03d}", "fen": fen, "mate_in": n,
                          "time_limit_s": TIME_LIMITS[n]})
    out = Path(__file__).parent / "data" / "puzzles_desk40.jsonl"
    out.parent.mkdir(exist_ok=True)
    out.write_text("".join(json.dumps(r) + "\n" for r in suite))
    print(f"wrote {len(suite)} puzzles -> {out}")


if __name__ == "__main__":
    main()
