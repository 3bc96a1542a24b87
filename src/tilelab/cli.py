"""Command-line front end: tile-set and presentation files, analysis subcommands.

Tile-set files: an `alphabet` line, an optional `mode allowed|forbidden` line
(default allowed), then constraints: `hpair L R` (left, right), `vpair T B`
(top, bottom), or a `pattern` block of `cell dx dy STATE` lines closed by
`end`.  `#` starts a comment anywhere.

Presentation files: a `presentation` header, optional `xcuts ...`/`ycuts ...`
lines (strictly increasing integers), then one `region IX IY U V` block per
band product, followed by V rows of U tokens, top row first.  Band 0 is the
leftmost/bottommost (unbounded) band.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import islice, permutations
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .cb import ranks
from .core import _PAIR_CELLS, Alphabet, Pattern, TileSet, Vec2, _add_pair, to_forbidden
from .lang import _square_count, extensible_squares
from .order import TilingFamily, hasse, level_of, maximal_classes, minimal_classes
from .presentation import Block, GridPresentation, TypeB, is_valid, period_lattice, type_of
from .solver import Empty, PeriodicFound, _tori, classify, weak_periodic_witness


class ParseError(ValueError):
    def __init__(self, path, line_no: int, msg: str):
        super().__init__(f"{path}:{line_no}: {msg}")


def _content_lines(path) -> list[tuple[int, list[str]]]:
    with open(path, "rb", buffering=0) as f:  # one read: no buffer to set up
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:  # the line of the first bad byte, as splitlines counts lines
        raise ParseError(path, len((data[:e.start].decode("utf-8") + ".").splitlines()), "not UTF-8 text") from None
    out = []
    for no, raw in enumerate(text.splitlines(), 1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            out.append((no, toks))
    return out


def _states(path, no, alphabet: Alphabet, toks: list[str]) -> list[int]:
    """The states of toks, in order; fails on the first token outside the alphabet."""
    try:
        return [alphabet.index[t] for t in toks]
    except KeyError as e:
        raise ParseError(path, no, f"token {e.args[0]!r} not in alphabet") from None


def parse_tileset(path) -> TileSet:
    rest = iter(_content_lines(path))
    alphabet: Alphabet | None = None
    mode: str | None = None
    tables: dict = {}  # sorted shape cells -> allowed keys; every cell checked here, so built unchecked
    for no, toks in rest:
        head, args = toks[0], toks[1:]
        if head == "alphabet":
            if alphabet is not None:
                raise ParseError(path, no, "duplicate alphabet line")
            try:
                alphabet = Alphabet(tuple(args))
            except ValueError as e:
                raise ParseError(path, no, str(e)) from None
        elif head == "mode":
            if mode is not None:
                raise ParseError(path, no, "duplicate mode line")
            if args not in (["allowed"], ["forbidden"]):
                raise ParseError(path, no, "mode must be 'allowed' or 'forbidden'")
            mode = args[0]
        elif head in _PAIR_CELLS:
            if alphabet is None:
                raise ParseError(path, no, "alphabet must come first")
            if len(args) != 2:
                raise ParseError(path, no, f"{head} takes exactly two tokens")
            _add_pair(tables, head, *_states(path, no, alphabet, args))
        elif head == "pattern":
            if alphabet is None:
                raise ParseError(path, no, "alphabet must come first")
            if args:
                raise ParseError(path, no, "pattern starts a cell block; no arguments")
            index, cells = alphabet.index, {}
            for cno, ctoks in rest:
                if ctoks == ["end"]:
                    break
                if ctoks[0] != "cell" or len(ctoks) != 4:
                    raise ParseError(path, cno, "expected 'cell dx dy state' or 'end'")
                try:
                    dx, dy = int(ctoks[1]), int(ctoks[2])
                except ValueError:
                    raise ParseError(path, cno, "cell offsets must be integers") from None
                if (dx, dy) in cells:
                    raise ParseError(path, cno, f"duplicate cell {dx} {dy}")
                try:
                    cells[dx, dy] = index[ctoks[3]]
                except KeyError:
                    raise ParseError(path, cno, f"token {ctoks[3]!r} not in alphabet") from None
            else:
                raise ParseError(path, no, "pattern block not closed with end")
            if not cells:
                raise ParseError(path, no, "pattern has no cells")
            order = sorted(cells)  # keyed by its shape moved to the origin
            x0, y0 = order[0][0], min(y for _, y in order)
            tables.setdefault(tuple(Vec2(x - x0, y - y0) for x, y in order), set()).add(tuple(map(cells.__getitem__, order)))
        else:
            raise ParseError(path, no, f"unknown directive {head!r}")
    if alphabet is None:
        raise ParseError(path, 1, "missing alphabet line")
    if not tables:
        raise ParseError(path, 1, "no constraint line")
    ts = TileSet._tables(alphabet, tables)
    if mode != "forbidden":
        return ts
    # forbidden mode: the declared patterns are complemented inside each shape's cube
    try:
        forbidden = to_forbidden(ts)
    except ValueError:
        raise ParseError(path, 1, "forbidden-mode complement too large") from None
    return TileSet(alphabet, ts.shapes, tuple(forbidden[shape] for shape in ts.shapes))


def parse_presentation(path, alphabet: Alphabet) -> GridPresentation:
    lines = _content_lines(path)
    if not lines or lines[0][1] != ["presentation"]:
        raise ParseError(path, lines[0][0] if lines else 1, "missing presentation header")
    cuts: dict[str, tuple[int, ...]] = {}  # by head, xcuts or ycuts
    blocks: dict[tuple[int, int], Block] = {}
    rest = islice(lines, 1, None)
    for no, toks in rest:
        head, args = toks[0], toks[1:]
        if head in ("xcuts", "ycuts"):
            if head in cuts:
                raise ParseError(path, no, f"duplicate {head} line")
            try:
                cs = cuts[head] = tuple(map(int, args))
            except ValueError:
                raise ParseError(path, no, f"{head} takes integers") from None
            if any(a >= b for a, b in zip(cs, cs[1:])):
                raise ParseError(path, no, f"{head} must be strictly increasing")
        elif head == "region":
            try:
                ix, iy, u, v = map(int, args)
            except ValueError:
                raise ParseError(path, no, "region takes four integers") from None
            if u < 1 or v < 1:
                raise ParseError(path, no, "region block dimensions must be positive")
            if (ix, iy) in blocks:
                raise ParseError(path, no, f"duplicate region {ix} {iy}")
            rows = []
            for rno, row in islice(rest, v):
                if len(row) != u:
                    raise ParseError(path, rno, f"expected {u} tokens in region row")
                rows.append(_states(path, rno, alphabet, row))
            if len(rows) < v:
                raise ParseError(path, no, f"expected {v} rows after region")
            blocks[(ix, iy)] = Block(u, v, tuple(zip(*reversed(rows))))  # data[x][y] reads rows[v - 1 - y][x]
        else:
            raise ParseError(path, no, f"unknown directive {head!r}")
    xcuts, ycuts = cuts.get("xcuts", ()), cuts.get("ycuts", ())
    for ix in range(len(xcuts) + 1):
        for iy in range(len(ycuts) + 1):
            if (ix, iy) not in blocks:
                raise ParseError(path, 1, f"missing region {ix} {iy}")
    for ix, iy in blocks:
        if not (0 <= ix <= len(xcuts) and 0 <= iy <= len(ycuts)):
            raise ParseError(path, 1, f"region {ix} {iy} out of band range")
    regions = tuple(
        tuple(blocks[(ix, iy)] for iy in range(len(ycuts) + 1)) for ix in range(len(xcuts) + 1)
    )
    return GridPresentation(alphabet, xcuts, ycuts, regions)


def emit_tileset(ts: TileSet) -> str:
    out = ["alphabet " + " ".join(ts.alphabet.tokens), "mode allowed"]
    toks = ts.alphabet.tokens
    for shape, pats in zip(ts.shapes, ts.allowed):
        if not pats:
            # an allowed-mode file cannot state a shape that allows nothing
            raise ValueError(f"shape {sorted(tuple(c) for c in shape)} allows no pattern")
        ordered = sorted(pats, key=lambda p: p.key())
        head = next((h for h, cells in _PAIR_CELLS.items() if shape == frozenset(cells)), None)
        if head:
            out.extend(" ".join([head, *(toks[p.cells[c]] for c in _PAIR_CELLS[head])]) for p in ordered)
        else:
            for p in ordered:
                out.append("pattern")
                out.extend(f"cell {c.x} {c.y} {toks[p.cells[c]]}" for c in p.sorted_cells())
                out.append("end")
    return "\n".join(out) + "\n"


def _rows(block, alphabet: Alphabet) -> list[str]:
    """Column-major block[x][y] as rows of tokens, top row first."""
    toks = alphabet.tokens
    return [" ".join([toks[s] for s in r]) for r in reversed(list(zip(*block)))]


def emit_presentation(g: GridPresentation) -> str:
    out = ["presentation"]
    if g.xcuts:
        out.append("xcuts " + " ".join(str(c) for c in g.xcuts))
    if g.ycuts:
        out.append("ycuts " + " ".join(str(c) for c in g.ycuts))
    for ix, col in enumerate(g.regions):
        for iy, b in enumerate(col):
            out.append(f"region {ix} {iy} {b.u} {b.v}")
            out.extend(_rows(b.data, g.alphabet))
    return "\n".join(out) + "\n"


def _pattern_json(p: Pattern) -> dict:
    p = p.normalize()
    w, h = p.extents()
    return {"width": w, "height": h, "rows": p._top_rows(w, h)}


def _torus_json(block, alphabet: Alphabet, pad: str, memo: dict | None = None) -> str:
    """The torus dict of a column-major block as json.dumps(indent=2, sort_keys=True) lays it
    out at pad; memo maps a row of states to its quoted text."""
    toks, memo, rows = alphabet.tokens, {} if memo is None else memo, []
    for r in list(zip(*block))[::-1]:  # top row first; q >= 1: never empty
        text = memo.get(r)
        if text is None:
            text = memo[r] = _quote(" ".join([toks[s] for s in r]))
        rows.append(text)
    inner, row = pad + "  ", pad + "    "
    return (f'{{{inner}"p": {len(block)},{inner}"q": {len(rows)},{inner}"rows": [{row}'
            + ("," + row).join(rows) + f'{inner}]{pad}}}')


def _presentation_json(g: GridPresentation) -> dict:
    regions = []
    for ix, col in enumerate(g.regions):
        for iy, b in enumerate(col):
            regions.append({"ix": ix, "iy": iy, "u": b.u, "v": b.v, "rows": _rows(b.data, g.alphabet)})
    return {"xcuts": list(g.xcuts), "ycuts": list(g.ycuts), "regions": regions}


def _lattice_json(lat) -> dict:
    return {"rank": lat.rank, "generators": [[v.x, v.y] for v in lat.generators]}


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_patterns(ts: TileSet, args) -> int:
    if args.count and args.margin == 0:
        print(_square_count(ts, args.size))  # a walk count: no square is built
    elif args.count:
        print(len(extensible_squares(ts, args.size, args.margin)))
    else:
        pats = extensible_squares(ts, args.size, args.margin)
        _emit({"count": len(pats), "patterns": [_pattern_json(p) for p in pats]})
    return 0


def _cmd_torus(ts: TileSet, args) -> int:
    memo: dict = {}  # tori share their rows: each distinct row is quoted once
    tilings = [_torus_json(block, ts.alphabet, "\n    ", memo) for _, _, block in _tori(ts, args.max_p, args.max_q)]
    listed = "\n    " + ",\n    ".join(tilings) + "\n  " if tilings else ""
    print(f'{{\n  "count": {len(tilings)},\n  "tilings": [{listed}]\n}}')
    return 0


def _cmd_classify(ts: TileSet, args) -> int:
    res = classify(ts, args.budget)
    if isinstance(res, Empty):
        _emit({"outcome": "empty", "square": res.n})
    elif isinstance(res, PeriodicFound):
        tiling = _torus_json(res.tiling.block, ts.alphabet, "\n  ")
        print(f'{{\n  "outcome": "periodic",\n  "tiling": {tiling}\n}}')
    else:
        _emit({"outcome": "unknown", "budget": res.budget})
    return 0


def _cmd_weak_periodic(ts: TileSet, args) -> int:
    pres = weak_periodic_witness(ts, args.max_period)
    if pres is None:
        _emit({"found": False, "max_period": args.max_period})
        return 1
    _emit(
        {
            "found": True,
            "presentation": _presentation_json(pres),
            "period_lattice": _lattice_json(period_lattice(pres)),
        }
    )
    return 0


def _cmd_validate(ts: TileSet, args) -> int:
    g = parse_presentation(args.presentation, ts.alphabet)
    ok = is_valid(g, ts)
    _emit({"valid": ok})
    return 0 if ok else 1


def _cmd_analyze(ts: TileSet, args) -> int:
    g = parse_presentation(args.presentation, ts.alphabet)
    ok = is_valid(g, ts)
    t = type_of(g)
    type_json: dict = {"kind": "b", "witness": _pattern_json(t.witness)} if isinstance(t, TypeB) else {"kind": "a"}
    _emit(
        {
            "valid": ok,
            "type": type_json,
            "period_lattice": _lattice_json(period_lattice(g)),
        }
    )
    return 0 if ok else 1


def _load_family(ts: TileSet, dirpath, window: int) -> TilingFamily:
    files = sorted(Path(dirpath).glob("*.pres"))
    if not files:
        raise ValueError(f"no .pres files in {dirpath}")
    members = [(f.stem, parse_presentation(f, ts.alphabet)) for f in files]
    return TilingFamily(ts, members, window)


def _dot(h) -> str:
    lines = ["digraph extraction {", "  rankdir=BT;"]
    for i, cls in enumerate(h.classes):
        # member names are file stems, which may hold quotes and backslashes
        label = "=".join(cls).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  c{i} [label="{label}"];')
    for lo, hi in h.covers:
        lines.append(f"  c{lo} -> c{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _unstable_pairs(f: TilingFamily) -> list[list[str]]:
    """Representatives (a, b) included at n = f.window, not at n + 1 (inclusion at n + 1 implies it
    at n).  None is lost from N on, nor below N by a pair in order, which holds up to N.  Each
    representative's n-window set is read once, its (n + 1) set only for a pair included at n."""
    n, reps, above = f.window, [f.presentation(cls[0])._index for cls in f._classes], f._order.above
    now = [a.rect_keys(n, n) for a in reps] if n < f._n else []
    return [[f._classes[i][0], f._classes[j][0]] for i, j in permutations(range(len(now)), 2)
            if j not in above[i] and now[i] <= now[j]
            and not reps[i].rect_keys(n + 1, n + 1) <= reps[j].rect_keys(n + 1, n + 1)]


def _cmd_order(ts: TileSet, args) -> int:
    f = _load_family(ts, args.family, args.window)
    h = hasse(f)
    minimal = {cls[0] for cls in minimal_classes(f)}
    maximal = {cls[0] for cls in maximal_classes(f)}
    classes = [
        {
            "members": list(cls),
            "level": level_of(f, cls[0]),
            "minimal": cls[0] in minimal,
            "maximal": cls[0] in maximal,
        }
        for cls in h.classes
    ]
    unstable = _unstable_pairs(f)
    # the dot file is written first, so a failed write leaves stdout empty
    if args.dot:
        Path(args.dot).write_text(_dot(h))
    _emit(
        {
            "window": f.window,
            "classes": classes,
            "covers": [list(c) for c in h.covers],
            "stabilization": {"stable": not unstable, "unstable_pairs": unstable},
        }
    )
    return 0


def _cmd_cb(ts: TileSet, args) -> int:
    f = _load_family(ts, args.family, args.window)
    report = ranks(f)
    _emit(
        {
            "window": f.window,
            "ranks": {name: report.ranks.get(name) for name in f.names()},
            "family_rank": report.family_rank,
            "residue": list(report.residue),
        }
    )
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:  # built at the first call, not at import
    parser = argparse.ArgumentParser(
        prog="tilelab",
        description="Analyze tile sets, their pattern languages, and presented tilings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tileset = argparse.ArgumentParser(add_help=False)
    tileset.add_argument("tileset")
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("family", help="directory of .pres files; stems become member names")
    family.add_argument("--window", type=int, required=True)

    p = sub.add_parser("patterns", parents=[tileset], help="enumerate admissible (or completable) squares")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--margin", type=int, default=0, help="demand completion to size + 2*margin")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(func=_cmd_patterns)

    p = sub.add_parser("torus", parents=[tileset], help="enumerate torus tilings up to translation")
    p.add_argument("--max-p", type=int, required=True)
    p.add_argument("--max-q", type=int, required=True)
    p.set_defaults(func=_cmd_torus)

    p = sub.add_parser("classify", parents=[tileset], help="bounded emptiness / periodicity ladder")
    p.add_argument("--budget", type=int, required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("weak-periodic", parents=[tileset], help="search for a one-directionally periodic tiling")
    p.add_argument("--max-period", type=int, required=True)
    p.set_defaults(func=_cmd_weak_periodic)

    p = sub.add_parser("validate", parents=[tileset], help="check a presented plane against a tile set")
    p.add_argument("presentation")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", parents=[tileset], help="validity, recurrence type, and period lattice")
    p.add_argument("presentation")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("order", parents=[tileset, family], help="extraction order of a family directory")
    p.add_argument("--dot", default=None, help="also write the diagram in dot format")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("cb", parents=[tileset, family], help="isolation ranks of a family directory")
    p.set_defaults(func=_cmd_cb)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(parse_tileset(args.tileset), args)
    except (OSError, ValueError) as e:  # ParseError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
