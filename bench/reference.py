"""Reference answers for the benchmark's queries, from oracle/brute.py.

No answer here comes from tilelab.  Tile sets reach the oracle as the
generator's raw constraint lists and planes as (x, y) -> state functions;
CLI output is decoded from its JSON by hand.  `check` returns None when an
output agrees with the reference and a one-line reason when it does not.

brute's square boxes cannot reach band heights in the thousands, so plane
checks materialize a rectangle that covers every cut plus margins of twice
the block lcm and the window size, then run brute.grid_ok on it and scan
it for periods and occurrences the same obvious way.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from itertools import product
from math import lcm
from pathlib import Path

from oracle import brute

import gen


class OracleCache:
    """Oracle answers kept as JSON files under the exact text of their
    input; a hit needs the stored text to match in full."""

    def __init__(self, root: Path | None):
        self.root = root
        if root is not None:
            root.mkdir(parents=True, exist_ok=True)

    def get(self, key: str, compute):
        if self.root is None:
            return compute()
        path = self.root / (hashlib.sha256(key.encode()).hexdigest() + ".json")
        if path.exists():
            stored = json.loads(path.read_text())
            if stored["key"] == key:
                return stored["value"]
        value = compute()
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"key": key, "value": value}))
        tmp.replace(path)  # a run cut short leaves no half-written answer
        return value


# ---------------------------------------------------------------- decoding

def _grid_from_rows(rows, index) -> tuple:
    """Rows of tokens, top row first, as grid[x][y]."""
    cells = [r.split() for r in rows]
    h, w = len(cells), len(cells[0])
    return tuple(tuple(index[cells[h - 1 - y][x]] for y in range(h)) for x in range(w))


def _plane_from_json(pres: dict, index):
    """(x, y) -> state for a presentation printed by the CLI."""
    xcuts, ycuts = pres["xcuts"], pres["ycuts"]
    blocks = {(r["ix"], r["iy"]): _grid_from_rows(r["rows"], index) for r in pres["regions"]}

    def fn(x, y):
        b = blocks[(bisect_right(xcuts, x), bisect_right(ycuts, y))]
        return b[x % len(b)][y % len(b[0])]

    lx = lcm(*(len(b) for b in blocks.values()))
    ly = lcm(*(len(b[0]) for b in blocks.values()))
    cuts = (min(xcuts, default=0), max(xcuts, default=0), min(ycuts, default=0), max(ycuts, default=0))
    return fn, cuts, (lx, ly)


# ---------------------------------------------------------------- rectangles

def _rect(fn, x0, x1, y0, y1):
    return [[fn(x, y) for y in range(y0, y1 + 1)] for x in range(x0, x1 + 1)]


def _is_period_on(grid, v) -> bool:
    vx, vy = v
    w, h = len(grid), len(grid[0])
    return all(
        grid[x + vx][y + vy] == grid[x][y]
        for x in range(max(0, -vx), min(w, w - vx))
        for y in range(max(0, -vy), min(h, h - vy))
    )


def _count_on(grid, cells) -> int:
    items = sorted(cells.items())
    mx = max(dx for dx, _ in cells)
    my = max(dy for _, dy in cells)
    return sum(
        all(grid[cx + dx][cy + dy] == s for (dx, dy), s in items)
        for cx in range(len(grid) - mx)
        for cy in range(len(grid[0]) - my)
    )


def _box(fn, cuts, lcms, margin):
    x0, x1, y0, y1 = cuts
    lx, ly = lcms
    return _rect(fn, x0 - 2 * lx - margin, x1 + 2 * lx + margin, y0 - 2 * ly - margin, y1 + 2 * ly + margin)


def plane_answer(fn, constraints, cuts, lcms) -> dict:
    """Validity and the periods of a plane whose cuts lie in cuts
    (x0, x1, y0, y1) and whose blocks repeat with lcms: periods in
    [-3, 3]^2 plus the two lcm steps, each tested on a box reaching two
    lcms past the cuts."""
    grid = _box(fn, cuts, lcms, 4)
    small = _box(fn, cuts, (0, 0), 4)
    cands = [(vx, vy) for vx in range(-3, 4) for vy in range(-3, 4) if (vx, vy) != (0, 0)]
    cands += [(lcms[0], 0), (0, lcms[1])]
    periods = [v for v in cands if _is_period_on(small, v) and _is_period_on(grid, v)]
    if not periods:
        rank = 0
    else:
        ax, ay = periods[0]
        rank = 1 if all(vx * ay == vy * ax for vx, vy in periods) else 2
    return {"valid": brute.grid_ok(constraints, grid), "rank": rank}


# ---------------------------------------------------------------- answers

def tileset_answer(kind: str, nstates: int, constraints) -> object:
    if kind == "count":
        return len(brute.squares_recursive(nstates, constraints, 3))
    if kind == "margin":
        full = brute.squares_rect(nstates, constraints, 4, 4)
        return sorted({((g[1][1], g[1][2]), (g[2][1], g[2][2])) for g in full})
    if kind == "torus":
        return sorted(brute.torus_classes(nstates, constraints, 3, 3))
    if kind == "classify":
        for n in range(1, 4):
            if not brute.squares_recursive(nstates, constraints, n):
                return ["empty", n]
        for p, q in sorted(product(range(1, 4), repeat=2), key=lambda s: (max(s), s)):
            if brute.wrapped_grids(nstates, constraints, p, q):
                return ["periodic", p, q]
        return ["unknown", 3]
    if kind == "weak":
        # a tiling needs admissible 3-squares; with none, "not found" is exact
        return bool(brute.squares_recursive(nstates, constraints, 3))
    raise ValueError(kind)


def family_planes(imax: int) -> dict:
    members = gen.family_members(gen.Stripes(None).alphabet, imax)
    return {n: (fn, xs, ys) for n, (_, fn, xs, ys) in members.items()}


def family_answer(cmd: str, imax: int, window: int) -> dict:
    planes = family_planes(imax)
    fns = {n: fn for n, (fn, _, _) in planes.items()}
    if cmd == "order":
        windows = {n: max(window, max(xs, ys) + 3) for n, (_, xs, ys) in planes.items()}
        reach = imax + max(windows.values()) + 2
        le = brute.le_matrix(fns, windows, reach)
        strict = brute.strict_from(le)
        names = sorted(fns)
        grids = {n: brute.box_grid(fns[n], reach) for n in names}
        raw = {(n, m): brute.window_keys(grids[n], m, m) for n in names for m in (window, window + 1)}
        flips = [
            [a, b] for a in names for b in names if a != b and (
                (raw[a, window] <= raw[b, window]) != (raw[a, window + 1] <= raw[b, window + 1]))
        ]
        return {
            "le": [[a, b] for (a, b), v in sorted(le.items()) if v],
            "minimal": brute.order_minimal(names, strict),
            "maximal": brute.order_maximal(names, strict),
            "covers": [list(c) for c in brute.order_covers(names, strict)],
            "levels": brute.order_levels(names, strict),
            "flips": flips,
        }
    bounds = {n: (max(window, xs + 2), max(window, ys + 2)) for n, (_, xs, ys) in planes.items()}
    reach = imax + max(max(b) for b in bounds.values()) + 4
    table, residue = brute.brute_ranks(fns, bounds, reach, reach + 6)
    return {"ranks": table, "residue": sorted(residue)}


class Reference:
    """Expected answers for one workload's queries, computed once per
    distinct input and checked against CLI output."""

    def __init__(self, cache: OracleCache):
        self.cache = cache
        self.answers: dict[str, object] = {}
        self.unverified = 0

    def prepare(self, queries) -> None:
        for q in queries:
            if q.name in self.answers:
                continue
            kind = q.ref[0]
            if kind in gen.TILESET_KINDS:
                _, nstates, constraints, _, key = q.ref
                self.answers[q.name] = self.cache.get(
                    key, lambda: tileset_answer(kind, nstates, constraints))
            elif kind in ("order", "cb"):
                cmd, imax, window, key = q.ref
                self.answers[q.name] = self.cache.get(key, lambda: family_answer(cmd, imax, window))
            else:
                _, constraints, fn, cuts, lcms, _ = q.ref
                self.answers[q.name] = plane_answer(fn, constraints, cuts, lcms)

    def check(self, q, rc, out: str) -> str | None:
        """None when (rc, out) agrees with the reference, else the reason."""
        want = self.answers[q.name]
        kind = q.ref[0]
        try:
            if kind == "count":
                return None if (rc, out) == (0, f"{want}\n") else f"count {out.strip()!r} != {want}"
            obj = json.loads(out)
            return getattr(self, "_check_" + kind)(q, want, rc, obj)
        except (ValueError, KeyError, TypeError, IndexError) as e:
            return f"undecodable output: {type(e).__name__}: {e}"

    def _check_margin(self, q, want, rc, obj):
        index = {t: i for i, t in enumerate(q.ref[3])}
        got = sorted(_grid_from_rows(p["rows"], index) for p in obj["patterns"])
        want = [tuple(map(tuple, g)) for g in want]
        if rc != 0 or obj["count"] != len(want) or got != want:
            return f"margin squares differ: {obj['count']} vs {len(want)}"
        return None

    def _check_torus(self, q, want, rc, obj):
        index = {t: i for i, t in enumerate(q.ref[3])}
        blocks = [_grid_from_rows(t["rows"], index) for t in obj["tilings"]]
        got = sorted(brute.orbit_canonical(b) for b in blocks)
        if any(brute.minimal_period(b) != (t["p"], t["q"]) for b, t in zip(blocks, obj["tilings"])):
            return "torus tiling with wrong minimal period"
        want = [tuple(map(tuple, g)) for g in want]
        if rc != 0 or obj["count"] != len(want) or got != want:
            return f"torus classes differ: {obj['count']} vs {len(want)}"
        return None

    def _check_classify(self, q, want, rc, obj):
        _, nstates, constraints, tokens, _ = q.ref
        if rc != 0 or obj["outcome"] != want[0]:
            return f"classify {obj['outcome']} != {want[0]}"
        if want[0] == "empty" and obj["square"] != want[1]:
            return f"empty at {obj['square']} != {want[1]}"
        if want[0] == "periodic":
            t = obj["tiling"]
            block = _grid_from_rows(t["rows"], {s: i for i, s in enumerate(tokens)})
            if [t["p"], t["q"]] != want[1:] or not brute.grid_ok(constraints, block, wrap=True):
                return f"periodic tiling {t['p']}x{t['q']} wrong (first size {want[1:]})"
        return None

    def _check_weak(self, q, want, rc, obj):
        _, nstates, constraints, tokens, _ = q.ref
        if not obj["found"]:
            if rc != 1:
                return f"not found with exit {rc}"
            if want:
                # no brute referee for a negative answer on a set that tiles
                self.unverified += 1
            return None
        if rc != 0 or not want:
            return "witness reported for a set without admissible 3-squares"
        fn, cuts, (lx, ly) = _plane_from_json(obj["presentation"], {t: i for i, t in enumerate(tokens)})
        reach = max(map(abs, cuts)) + 2 * max(lx, ly) + 3
        if not brute.grid_ok(constraints, brute.box_grid(fn, reach)):
            return "witness is not a tiling"
        lat = obj["period_lattice"]
        if lat["rank"] != 1 or brute.lattice_rank(fn, reach, 3) != 1:
            return "witness lattice is not rank 1"
        (gx, gy), = lat["generators"]
        cross = (lx, 0) if gx == 0 else (0, ly)
        if not brute.is_period(fn, (gx, gy), reach) or brute.is_period(fn, cross, reach):
            return "witness periods wrong"
        return None

    def _check_validate(self, q, want, rc, obj):
        if obj["valid"] != want["valid"] or rc != (0 if want["valid"] else 1):
            return f"valid {obj['valid']} != {want['valid']}"
        return None

    def _check_analyze(self, q, want, rc, obj):
        bad = self._check_validate(q, want, rc, obj)
        if bad:
            return bad
        _, constraints, fn, cuts, lcms, tokens = q.ref
        lat = obj["period_lattice"]
        if lat["rank"] != want["rank"] or len(lat["generators"]) != lat["rank"]:
            return f"rank {lat['rank']} != {want['rank']}"
        grid = _box(fn, cuts, lcms, 4)
        if not all(_is_period_on(grid, tuple(v)) for v in lat["generators"]):
            return "reported generator is not a period"
        kind = obj["type"]["kind"]
        if kind != ("a" if want["rank"] else "b"):
            return f"type {kind} with lattice rank {want['rank']}"
        if kind == "b":
            wit = obj["type"]["witness"]
            cells = _grid_from_rows(wit["rows"], {t: i for i, t in enumerate(tokens)})
            w, h = len(cells), len(cells[0])
            pattern = {(x, y): cells[x][y] for x in range(w) for y in range(h)}
            hits = _count_on(_box(fn, cuts, lcms, max(w, h) + 2), pattern)
            if hits != 1:
                return f"type-b witness occurs {hits} times"
        return None

    def _check_order(self, q, want, rc, obj):
        le = {tuple(p) for p in want["le"]}
        classes = [c["members"] for c in obj["classes"]]
        names = sorted(want["levels"])
        if rc != 0 or sorted(n for c in classes for n in c) != names:
            return "order classes do not partition the family"
        for c in classes:
            if any((a, b) not in le for a in c for b in c):
                return f"class {c} is not mutually extracting"
        reps = [c[0] for c in classes]
        if any((a, b) in le and (b, a) in le for a in reps for b in reps if a < b):
            return "two classes extract into each other"
        for c, rep in zip(obj["classes"], reps):
            if (c["level"], c["minimal"], c["maximal"]) != (
                    want["levels"][rep], rep in want["minimal"], rep in want["maximal"]):
                return f"class of {rep}: level/minimal/maximal differ"
        covers = {(reps[lo], reps[hi]) for lo, hi in obj["covers"]}
        cls_of = {n: c[0] for c in classes for n in c}
        want_covers = {(cls_of[a], cls_of[b]) for a, b in want["covers"]}
        if covers != want_covers:
            return "covers differ"
        flips = sorted([a, b] for a, b in want["flips"] if a in reps and b in reps and a != b)
        stab = obj["stabilization"]
        if sorted(stab["unstable_pairs"]) != flips or stab["stable"] != (not flips):
            return "stabilization differs"
        return None

    def _check_cb(self, q, want, rc, obj):
        table = want["ranks"]
        expected = {n: table.get(n) for n in obj["ranks"]}
        if rc != 0 or obj["ranks"] != expected or set(obj["ranks"]) != set(table) | set(want["residue"]):
            return "ranks differ"
        if obj["family_rank"] != max(table.values(), default=0) or sorted(obj["residue"]) != want["residue"]:
            return "family rank or residue differs"
        return None
