"""Behavior logs, training samples, and the synthetic interest generator.

Log files are UTF-8 CSV lines ``user_id,item_id,category_id,behavior_type,
timestamp`` with behavior tokens pv / fav / cart / buy (stored internally
as click / favorite / cart / purchase); a leading byte-order mark is
dropped.  Raw ids are remapped to dense 1-based integers in
first-appearance order at load time (0 is reserved for padding); the
mapping is kept on the loaded log and can be persisted next to derived
datasets.  Each item is bound to the category of its first row: a later
row that lists it under another is read as that one and counted in
``n_recategorized``.  An int64 id column whose span (max - min + 1) is at
most twice its row count is remapped through a span-long table of each
id's first row, so only the distinct ids are sorted; an object column (ids
beyond int64) or a wider span is argsorted whole.  Malformed rows are counted
and tolerated up to 1% of the file, beyond which loading fails and names
the first bad line.

The loader parses the file with array operations, in blocks of whole
lines of about 256 KB (``_BLOCK_BYTES``), so that each block's byte, digit
and index arrays stay in the L2 cache across the passes over them; line
numbers carry on from block to block.  A block's commas and newlines are
found in one scan, and a strict line's four numeric fields are read in
one digit pass over all of them.  Only lines of a strict shape take
that path: exactly four commas, numeric fields of 1-18 ASCII digits, a
known behavior token and a positive timestamp.  Every other line is
stripped and parsed on its own with ``int()``, which keeps what that
accepts (padding whitespace, signs, ``_`` separators, non-ASCII digits,
ids beyond int64) and counts the rest as blank or malformed exactly as a
per-line reader would; a timestamp outside 1 .. 2**63 - 1 is malformed
on either path, so timestamps stay int64.  The 1% rule and its first bad
line are applied once, over the whole file.  The log is held as columns
sorted by (user, timestamp), ties in file order; a log whose rows already
arrive in that order (each user's rows together and chronological, as
``generate_synthetic`` writes them) is recognised by one vectorised check
and kept as it is, and any other goes through a stable sort.
``events_by_user`` maps each user to a list of events built on access.

Samples follow the last-item protocol: per user the final event is the
positive target, the preceding events provide the short and long
windows, and negatives are drawn from the positive's category excluding
everything the user ever touched (falling back to the global pool for
degenerate categories).  The split is chronological 80/10/10 over
impressions ordered by timestamp, so the validation and test periods
never precede training data.  ``build_samples`` creates no per-event
Python object: it gathers every user's window rows from the log's columns
into one read-only (rows, 3) int64 matrix of (item, category, timestamp),
each user's short and long window are views of its block, shared by the
positive and its negatives, and the negative pool is filtered with a
boolean mark over the category index's items.

The synthetic generator plants a long-term structure: each user gets a
few interest categories and a small pool of favorite items inside them.
Events older than the gap are favorites with probability 1 - noise_rate
(uniform noise otherwise).  Events inside the gap are window shopping:
with probability 1 - noise_rate a fresh non-favorite item from an
interest category, otherwise uniform noise.  The final event revisits a
favorite that already occurred in the old segment and never appears in
the recent one.  Models that read only the recent window therefore
cannot tell the positive from a same-category negative, while a model
that retrieves old occurrences of the target item can.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError

BEHAVIOR_TOKENS = {"pv": "click", "fav": "favorite", "cart": "cart", "buy": "purchase"}
TOKEN_OF = {v: k for k, v in BEHAVIOR_TOKENS.items()}

SECONDS_PER_DAY = 86400


@dataclass(frozen=True)
class BehaviorEvent:
    user_id: int
    item_id: int
    category_id: int
    behavior_type: str  # click | favorite | cart | purchase
    timestamp: int


class UserEvents(Mapping):
    """Read-only user -> list of BehaviorEvent, held as columns.

    User ``users[j]`` owns rows ``offsets[j]:offsets[j + 1]`` of the item,
    category, behavior and timestamp columns; ``behavior`` holds int8
    kinds, indices into ``_TYPE_NAMES``, named only when a list is built.
    Lists are built on access; ``build_samples`` reads the columns directly.
    """

    def __init__(self, users, offsets, item, category, behavior, timestamp):
        self.users = list(users)
        self.offsets = offsets
        self.item = item
        self.category = category
        self.behavior = behavior
        self.timestamp = timestamp
        self._slot = {u: j for j, u in enumerate(self.users)}

    @classmethod
    def from_dict(cls, sequences: dict) -> "UserEvents":
        """Columns of a plain user -> event-list dict, users in sorted order."""
        users = sorted(sequences)
        offsets = np.zeros(len(users) + 1, dtype=np.int64)
        np.cumsum([len(sequences[u]) for u in users], out=offsets[1:])
        _, item, category, behavior, ts = _event_columns(
            [e for u in users for e in sequences[u]]
        )
        if (behavior < 0).any():
            raise ValueError(f"unknown behavior type in events, expected one of {_TYPE_NAMES}")
        return cls(users, offsets, item, category, behavior, ts)

    def __getitem__(self, user):
        j = self._slot[user]
        rows = slice(self.offsets[j], self.offsets[j + 1])
        return [
            BehaviorEvent(user, i, c, b, t)
            for i, c, b, t in zip(
                self.item[rows].tolist(), self.category[rows].tolist(),
                _TYPE_NAMES[self.behavior[rows]].tolist(), self.timestamp[rows].tolist(),
            )
        ]

    def __iter__(self):
        return iter(self.users)

    def __len__(self):
        return len(self.users)


@dataclass
class BehaviorLog:
    """Parsed log with dense ids.  events_by_user lists are chronological,
    and each of their rows carries its item's category as item_cats binds it."""

    events_by_user: UserEvents
    user_map: dict  # raw -> dense
    item_map: dict
    category_map: dict
    item_cats: np.ndarray  # (n_items + 1,) read-only: dense item -> first-seen category
    n_rows: int = 0
    n_malformed: int = 0
    n_recategorized: int = 0  # rows listed under a category other than their item's bound one

    @property
    def n_users(self) -> int:
        return len(self.user_map)

    @property
    def n_items(self) -> int:
        return len(self.item_map)

    @property
    def n_categories(self) -> int:
        return len(self.category_map)

    def item_categories(self) -> np.ndarray:
        """The item -> category binding, 0 for the padding row: the array a
        fingerprint table is built and verified from."""
        return self.item_cats


def _parse_line(line: str):
    parts = line.split(",")
    if len(parts) != 5:
        return None
    try:
        user, item, cat = int(parts[0]), int(parts[1]), int(parts[2])
        ts = int(parts[4])
    except ValueError:
        return None
    btype = BEHAVIOR_TOKENS.get(parts[3].strip())
    if btype is None or not 0 < ts < 2**63:
        return None
    return user, item, cat, btype, ts


def _id_column(values) -> np.ndarray:
    """int64 when every value fits, else Python ints in an object array."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _event_columns(events):
    """(user, item, category, behavior kind, timestamp) columns of events,
    kind -1 where the behavior type is unknown."""
    return (
        _id_column([e.user_id for e in events]),
        _id_column([e.item_id for e in events]),
        _id_column([e.category_id for e in events]),
        np.array([_KIND_OF.get(e.behavior_type, -1) for e in events], dtype=np.int8),
        _id_column([e.timestamp for e in events]),
    )


def _good_rows(kind, ts) -> np.ndarray:
    """The loader's row rules on columns: a known behavior kind and a
    timestamp in 1 .. 2**63 - 1 (an object column holds any past int64)."""
    return np.asarray((kind >= 0) & (ts > 0) & (ts < 2**63), dtype=bool)


def _check_malformed(bad, n_rows: int, unit: str) -> None:
    """The loader's 1% rule: more than 1% of n_rows malformed is a
    FormatError naming the first bad row, bad holding 0-based indices."""
    if n_rows > 0 and len(bad) / n_rows > 0.01:
        raise FormatError(
            f"{len(bad)} of {n_rows} rows malformed (>1%), first at {unit} {bad[0] + 1}")


_TYPE_NAMES = np.array(list(BEHAVIOR_TOKENS.values()))
_KIND_OF = {name: k for k, name in enumerate(_TYPE_NAMES.tolist())}
_MAX_DIGITS = 18  # 10**18 - 1 < 2**63


def _parse_digits(digits, start, stop):
    """Values of the fields digits[start:stop] read as decimals, and whether
    each is 1-18 digits (the value is meaningless where it is not)."""
    length = stop - start
    ok = (length >= 1) & (length <= _MAX_DIGITS)
    value = np.zeros(start.shape, dtype=np.int64)
    for n in np.flatnonzero(np.bincount(length[ok])).tolist():
        rows = np.flatnonzero(ok & (length == n))
        first = start[rows]
        top = digits[first]
        acc = top.astype(np.int64)
        for j in range(1, n):
            d = digits[j:][first]
            np.maximum(top, d, out=top)
            acc *= 10
            acc += d
        value[rows] = acc
        ok[rows] = top <= 9  # a byte outside '0'-'9' wraps to above 9
    return value, ok


def _token_kinds(buf, start, stop):
    """int8 index into _TYPE_NAMES of each field buf[start:stop], -1 if unknown."""
    kind = np.full(start.shape, -1, dtype=np.int8)
    length = stop - start
    lead = buf[start]
    for k, token in enumerate(BEHAVIOR_TOKENS):
        t = token.encode()
        rows = np.flatnonzero((length == len(t)) & (lead == t[0]))
        first = start[rows]
        match = np.ones(rows.size, dtype=bool)
        for j in range(1, len(t)):
            match &= buf[j:][first] == t[j]
        kind[rows[match]] = k
    return kind


# Bytes of encoded log text per parse block.  A block's digit copy and its
# per-line and per-field index arrays then total about 2 MB, the per-core
# L2 of the x86_64 benchmark host, so each pass over them reads cache; a
# whole-file pass streams every one of them through memory.  On the
# benchmark log, 128 KB to 1 MB blocks parsed alike and all faster than one
# whole-file pass.
_BLOCK_BYTES = 1 << 18


def _parse_block(data: bytes, pos: int, end: int, line0: int):
    """Strict-line parse of data[pos:end], whole lines whose first is line
    line0 (0-based): the good rows' (user, item, category, kind, ts, line)
    columns and the (line, start, stop) of the other non-blank lines, then
    the block's newline count."""
    buf = np.frombuffer(data, dtype=np.uint8, count=end - pos, offset=pos)
    # every comma and newline, then buf.size as a newline closing the last
    # line; line r ends at sep[ends[r]] and its commas are the seps before
    sep = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    ends = np.flatnonzero(buf[sep] == ord("\n"))
    n_newlines = ends.size
    sep = np.append(sep, buf.size)
    ends = np.append(ends, sep.size - 1)
    stop = sep[ends]
    start = np.concatenate(([0], stop[:-1] + 1))
    # four-comma lines; a field holding any byte outside its digits or token
    # fails its check below and the line is then read on its own
    strict = np.flatnonzero(np.diff(ends, prepend=-1) == 5)
    last = ends[strict]
    cut = [sep[last - j] for j in (4, 3, 2, 1)]  # the four commas
    # user, item, category and timestamp fields of every strict line, one
    # field's column after another, in one digit pass
    value, ok = _parse_digits(
        buf - np.uint8(ord("0")),
        np.concatenate((start[strict], cut[0] + 1, cut[1] + 1, cut[3] + 1)),
        np.concatenate((cut[0], cut[1], cut[2], stop[strict])),
    )
    user, item, cat, ts = value.reshape(4, -1)
    kind = _token_kinds(buf, cut[2] + 1, cut[3])
    good = ok.reshape(4, -1).all(axis=0) & _good_rows(kind, ts)

    # blank lines are skipped and not counted; a block ending in a newline
    # has an empty last line, so lines are counted by newlines
    other = stop > start
    other[strict[good]] = False
    lines = np.flatnonzero(other)
    return (user[good], item[good], cat[good], kind[good], ts[good], strict[good] + line0,
            lines + line0, start[lines] + pos, stop[lines] + pos), n_newlines


def _parse_log(text: str):
    """(user, item, category, behavior kind, timestamp) columns of the good rows
    in file order, the non-blank row count and the malformed row count."""
    data = text.encode("utf-8")
    blocks = []
    pos = line0 = 0
    while True:  # a file smaller than a block is one block
        # each block ends just after a newline, or at the end of the file
        end = data.find(b"\n", pos + _BLOCK_BYTES - 1) + 1 or len(data)
        cols, n_lines = _parse_block(data, pos, end, line0)
        blocks.append(cols)
        if end == len(data):
            break
        pos, line0 = end, line0 + n_lines
    *cols, strict_lines, lines, start, stop = (np.concatenate(col) for col in zip(*blocks))

    rows, bad = [], []
    for j, a, b in zip(lines.tolist(), start.tolist(), stop.tolist()):
        line = data[a:b].decode("utf-8").strip()
        if not line:
            continue
        parsed = _parse_line(line)
        if parsed is None:
            bad.append(j)
        else:
            rows.append((j, *parsed))
    n_rows = strict_lines.size + len(rows) + len(bad)
    _check_malformed(bad, n_rows, "line")

    if rows:  # merge the rows parsed one at a time back into file order
        line_of, users, items, cats, types, stamps = zip(*rows)
        order = np.argsort(np.concatenate((strict_lines, line_of)), kind="stable")
        extra = [_id_column(users), _id_column(items), _id_column(cats),
                 np.array([_KIND_OF[t] for t in types], dtype=np.int8), _id_column(stamps)]
        cols = [np.concatenate(pair)[order] for pair in zip(cols, extra)]
    return cols, n_rows, len(bad)


def _dense_ids(raw):
    """Dense 1-based ids of raw in first-appearance order, the raw -> dense
    map, and the row where each dense id first appears.  An int64 column
    spanning at most twice its row count goes through a first-row table;
    any other (ids beyond int64, or spread wider) is argsorted whole."""
    if raw.dtype == np.int64 and raw.size:
        lo = int(raw.min())
        span = int(raw.max()) - lo + 1
        if span <= 2 * raw.size:
            return _dense_ids_by_table(raw, lo, span)
    order = np.argsort(raw)
    ordered = raw[order]
    head = np.ones(raw.size, dtype=bool)  # first row of each run of equal ids
    head[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(head)
    first = np.minimum.reduceat(order, starts)
    by_appearance = np.argsort(first)
    dense = np.empty(starts.size, dtype=np.int64)
    dense[by_appearance] = np.arange(1, starts.size + 1)
    ids = np.empty(raw.size, dtype=np.int64)
    ids[order] = dense[np.cumsum(head) - 1]
    id_map = dict(zip(ordered[starts[by_appearance]].tolist(), range(1, starts.size + 1)))
    return ids, id_map, first[by_appearance]


def _dense_ids_by_table(raw, lo: int, span: int):
    """_dense_ids of an int64 column whose values lie in lo .. lo + span - 1,
    through a span-long table of each value's first row: only the distinct
    values are sorted, not the rows."""
    key = raw - lo
    first = np.full(span, raw.size)
    # minimum.at, not a scatter of rows in reverse: which of a repeated fancy
    # index's writes lands last is not specified
    np.minimum.at(first, key, np.arange(raw.size))
    present = np.flatnonzero(first < raw.size)
    by_appearance = present[np.argsort(first[present])]
    dense = np.zeros(span, dtype=np.int64)
    dense[by_appearance] = np.arange(1, present.size + 1)
    id_map = dict(zip((by_appearance + lo).tolist(), range(1, present.size + 1)))
    return dense[key], id_map, first[by_appearance]


def _index_log(user, item, category, behavior, ts, n_rows, n_malformed) -> BehaviorLog:
    """Dense ids, every row bound to its item's category from the item's
    first row, and the rows sorted by (user, timestamp) with ties in row
    order."""
    u, user_map, _ = _dense_ids(user)
    i, item_map, first_row = _dense_ids(item)
    c, category_map, _ = _dense_ids(category)
    item_cats = np.zeros(len(item_map) + 1, dtype=np.int64)
    item_cats[1:] = c[first_row]
    item_cats.flags.writeable = False
    bound = item_cats[i]
    n_recategorized = int(np.count_nonzero(c != bound))
    step = np.diff(u)
    if not np.all((step > 0) | (step == 0) & (ts[1:] >= ts[:-1])):
        # rows not already in (user, timestamp) order: stable sort
        order = np.lexsort((ts, u))
        i, bound, behavior, ts = i[order], bound[order], behavior[order], ts[order]
    offsets = np.zeros(len(user_map) + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=len(user_map) + 1)[1:], out=offsets[1:])
    events = UserEvents(range(1, len(user_map) + 1), offsets, i, bound, behavior, ts)
    return BehaviorLog(events, user_map, item_map, category_map, item_cats,
                       n_rows, n_malformed, n_recategorized)


def load_behavior_log(path) -> BehaviorLog:
    # utf-8-sig drops the byte-order mark spreadsheet exports start with
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    cols, n_rows, n_malformed = _parse_log(text)
    return _index_log(*cols, n_rows, n_malformed)


def log_from_events(events) -> BehaviorLog:
    """Index in-memory events by load_behavior_log's row rules: an event
    whose behavior type is unknown or whose timestamp lies outside
    1 .. 2**63 - 1 is malformed, counted and left out, and more than 1%
    malformed is a FormatError naming the first (1-based)."""
    *cols, ts = _event_columns(events)
    good = _good_rows(cols[3], ts)
    bad = np.flatnonzero(~good)
    _check_malformed(bad, len(events), "event")
    return _index_log(*(c[good] for c in cols), ts[good].astype(np.int64), len(events), bad.size)


def write_behavior_log(path, events) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in events:
            fh.write(
                f"{e.user_id},{e.item_id},{e.category_id},{TOKEN_OF[e.behavior_type]},{e.timestamp}\n"
            )


def save_id_maps(path, log: BehaviorLog) -> None:
    """Persist the raw-to-dense id mapping next to a derived dataset."""
    cats = log.item_categories().tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "users": {str(k): v for k, v in log.user_map.items()},
                "items": {str(k): v for k, v in log.item_map.items()},
                "categories": {str(k): v for k, v in log.category_map.items()},
                "item_category": {str(k): cats[k] for k in range(1, len(cats))},
            },
            fh,
        )


def build_category_index(log: BehaviorLog) -> dict:
    """Dense category -> sorted list of the dense items bound to it."""
    index: dict = {}
    for item, cat in enumerate(log.item_categories().tolist()[1:], start=1):
        index.setdefault(cat, []).append(item)
    return index


@dataclass(frozen=True, eq=False)
class Sample:
    """One scoring instance: a candidate item against a user state.

    A window is an (n, 3) integer array of (item, category, ts) rows, oldest
    first, read as it is, or any other sequence of such rows, read row by
    row; scoring refuses another array dtype or shape, a wrong-width row, a
    float and a value past int64, naming the window.  build_samples stores
    read-only int64 arrays (object only past int64), the same for a
    positive and its negatives.  Samples compare and hash by identity."""

    user_id: int
    target_item: int
    target_category: int
    context_bucket: int
    timestamp: int  # impression time
    label: int
    short_seq: np.ndarray  # n <= L_st
    long_seq: np.ndarray  # n <= L_lt; built windows are views of one array


@dataclass
class SampleSet:
    train: list
    val: list
    test: list
    stats: dict = field(default_factory=dict)

    def __iter__(self):
        yield from self.train
        yield from self.val
        yield from self.test


def _context_bucket(ts: int) -> int:
    # hour of day, 1-based so 0 stays a padding id
    return (ts // 3600) % 24 + 1


def build_samples(
    sequences,
    l_st: int,
    l_lt: int,
    negatives_per_positive: int,
    category_index: dict,
    seed: int,
) -> SampleSet:
    """Last-item-positive samples plus seeded same-category negatives.

    ``sequences`` is a log's ``events_by_user`` or a plain dict of user ->
    event list.  Each user's last listed event is the target; the history
    is the earlier-listed events older than it."""
    if l_st < 1 or l_lt < 1:
        raise ValueError(f"window lengths must be positive, got {l_st}, {l_lt}")
    if negatives_per_positive < 0:
        raise ValueError(f"negatives_per_positive must be >= 0, got {negatives_per_positive}")
    if not isinstance(sequences, UserEvents):
        sequences = UserEvents.from_dict(sequences)
    cat_of_item = {}
    for cat, members in category_index.items():
        for item in members:
            cat_of_item[item] = cat
    all_items = np.array(sorted(cat_of_item), dtype=np.int64)
    # each index item's position in all_items, per category in the index's order
    slots_of_cat = {
        cat: np.searchsorted(all_items, np.array(members, dtype=np.int64))
        for cat, members in category_index.items()
    }
    no_slots = np.empty(0, dtype=np.intp)
    items, cats, stamps = sequences.item, sequences.category, sequences.timestamp
    # each event's item position in all_items; all_items.size (a spare mark) if absent
    if all_items.size and all_items[-1] - all_items[0] == all_items.size - 1:
        pos = items - all_items[0]  # a run of ids, as a loaded log's index is
        known = (pos >= 0) & (pos < all_items.size)
    else:
        pos = np.searchsorted(all_items, items)
        known = pos < all_items.size
        known[known] = all_items[pos[known]] == items[known]
    slot = np.where(known, pos, all_items.size).astype(np.int64)
    seen = np.zeros(all_items.size + 1, dtype=bool)  # cleared after each user
    # each user's history: the rows older than its last one (a comparison, not
    # a sorted search: a dict's lists need not be in time order)
    offsets = sequences.offsets
    counts = np.diff(offsets)
    history = np.flatnonzero(stamps < stamps[np.repeat(offsets[1:] - 1, counts)])
    n_hist = np.bincount(np.repeat(np.arange(counts.size), counts)[history],
                         minlength=counts.size)
    n_win = np.minimum(n_hist, max(l_st, l_lt))
    # every user's last n_win history rows, stacked into one read-only matrix
    rows = history[np.arange(history.size) >= np.repeat(np.cumsum(n_hist) - n_win, n_hist)]
    windows = np.stack((items[rows], cats[rows], stamps[rows]), axis=1)  # object only past int64
    windows.flags.writeable = False
    active = np.flatnonzero(n_hist)
    last = offsets[1:][active] - 1
    rng = np.random.default_rng(seed)
    units = []  # (ts, user, [samples]) kept together across the split
    fallback = 0
    dropped_negatives = 0
    bounds = offsets.tolist()
    for j, end, m, target_item, target_cat, target_ts in zip(
        active.tolist(), np.cumsum(n_win)[active].tolist(), n_win[active].tolist(),
        items[last].tolist(), cats[last].tolist(), stamps[last].tolist(),
    ):
        user, lo, hi = sequences.users[j], bounds[j], bounds[j + 1]
        window = windows[end - m:end]
        short, long = window[-l_st:], window[-l_lt:]
        ctx = _context_bucket(target_ts)
        samples = [Sample(user, target_item, target_cat, ctx, target_ts, 1, short, long)]
        if negatives_per_positive > 0:
            seen[slot[lo:hi]] = True
            slots = slots_of_cat.get(target_cat, no_slots)
            pool = all_items[slots[~seen[slots]]]
            if not pool.size:
                pool = all_items[~seen[:-1]]
                if pool.size:
                    fallback += 1
            seen[slot[lo:hi]] = False
            if not pool.size:
                dropped_negatives += negatives_per_positive
            else:
                picks = rng.choice(
                    pool, size=negatives_per_positive, replace=pool.size < negatives_per_positive
                )
                for item in picks.tolist():
                    samples.append(
                        Sample(user, item, cat_of_item[item], ctx, target_ts, 0, short, long)
                    )
        units.append((target_ts, user, samples))
    units.sort(key=lambda t: (t[0], t[1]))
    n = len(units)
    cut_train = int(n * 0.8)
    cut_val = int(n * 0.9)
    train = [s for _, _, ss in units[:cut_train] for s in ss]
    val = [s for _, _, ss in units[cut_train:cut_val] for s in ss]
    test = [s for _, _, ss in units[cut_val:] for s in ss]
    stats = {
        "users_total": len(sequences),
        "users_skipped": len(sequences) - active.size,
        "fallback_negatives": fallback,
        "dropped_negatives": dropped_negatives,
        "units": n,
    }
    return SampleSet(train, val, test, stats)


@dataclass(frozen=True)
class SyntheticSpec:
    n_users: int = 1000
    n_items: int = 5000
    n_categories: int = 50
    events_per_user: int = 300
    interest_categories_per_user: int = 4
    favorites_per_category: int = 3
    noise_rate: float = 0.2
    long_term_gap_days: int = 14
    impression_window_days: int = 30
    seed: int = 0

    def __post_init__(self):
        if min(self.n_users, self.n_items, self.n_categories, self.events_per_user) < 1:
            raise ValueError("all synthetic sizes must be positive")
        if self.n_categories > self.n_items:
            raise ValueError("need at least one item per category")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValueError(f"noise_rate must be in [0, 1], got {self.noise_rate}")
        if self.interest_categories_per_user > self.n_categories:
            raise ValueError("more interest categories than categories")
        if self.favorites_per_category < 1:
            raise ValueError("favorites_per_category must be >= 1")


def item_category_of(item: int, n_categories: int) -> int:
    """Fixed item -> category layout used by the generator (both 1-based)."""
    return (item - 1) % n_categories + 1


_BASE_TS = 1_700_000_000


def generate_synthetic(spec: SyntheticSpec):
    """Returns (events, interests): a flat event list (grouped by user,
    chronological) and the planted user -> interest categories map."""
    rng = np.random.default_rng(spec.seed)
    n_cat = spec.n_categories
    cat_items = {
        c: np.arange(c, spec.n_items + 1, n_cat, dtype=np.int64)
        for c in range(1, n_cat + 1)
    }
    gap_s = spec.long_term_gap_days * SECONDS_PER_DAY
    span_s = 4 * gap_s  # history reaches well past the gap
    n_ev = spec.events_per_user
    events = []
    interests = {}
    type_pool = np.array(["click", "favorite", "cart", "purchase"])
    type_p = np.array([0.85, 0.05, 0.05, 0.05])
    for user in range(1, spec.n_users + 1):
        cats = rng.choice(n_cat, size=spec.interest_categories_per_user, replace=False) + 1
        interests[user] = tuple(sorted(int(c) for c in cats))
        favs = np.concatenate(
            [
                rng.choice(
                    cat_items[c],
                    size=min(spec.favorites_per_category, cat_items[c].shape[0]),
                    replace=False,
                )
                for c in cats
            ]
        )
        target_ts = _BASE_TS + int(
            rng.integers(0, spec.impression_window_days * SECONDS_PER_DAY)
        )
        n_hist = n_ev - 1
        ages = (np.arange(n_hist, 0, -1, dtype=np.int64) * span_s) // (n_hist + 1)
        early = ages > gap_s
        items = rng.integers(1, spec.n_items + 1, size=n_hist)  # noise by default
        use_fav = early & (rng.random(n_hist) >= spec.noise_rate)
        items[use_fav] = rng.choice(favs, size=int(use_fav.sum()))
        # the planted positive: a favorite the user already touched long ago
        early_favs = np.unique(items[use_fav])
        target_item = int(rng.choice(early_favs if early_favs.size else favs))
        # window shopping inside the gap: fresh items from the interest
        # categories, never one of the committed favorites
        browse = ~early & (rng.random(n_hist) >= spec.noise_rate)
        which = rng.integers(len(cats), size=n_hist)
        for j, c in enumerate(cats):
            pool = cat_items[c][~np.isin(cat_items[c], favs)]
            slots = browse & (which == j)
            if pool.size and slots.any():
                items[slots] = pool[rng.integers(pool.size, size=int(slots.sum()))]
        # keep the positive out of the recent segment so only the old
        # occurrences carry the evidence
        hits = ~early & (items == target_item)
        if hits.any():
            off = rng.integers(1, spec.n_items, size=int(hits.sum()))
            items[hits] = (target_item - 1 + off) % spec.n_items + 1
        types = rng.choice(type_pool, size=n_ev, p=type_p)
        for i in range(n_hist):
            item = int(items[i])
            events.append(
                BehaviorEvent(
                    user, item, item_category_of(item, n_cat), str(types[i]),
                    target_ts - int(ages[i]),
                )
            )
        events.append(
            BehaviorEvent(
                user, target_item, item_category_of(target_item, n_cat),
                str(types[-1]), target_ts,
            )
        )
    return events, interests
