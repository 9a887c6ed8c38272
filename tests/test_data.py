import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashta import data
from hashta.data import (
    BEHAVIOR_TOKENS,
    BehaviorEvent,
    BehaviorLog,
    Sample,
    SampleSet,
    SyntheticSpec,
    build_category_index,
    build_samples,
    generate_synthetic,
    item_category_of,
    load_behavior_log,
    log_from_events,
    save_id_maps,
    write_behavior_log,
    SECONDS_PER_DAY,
)
from hashta.errors import FormatError
from hashta.model import ModelConfig, init_params, loss_and_gradients
from oracles import interest_oracle, record_value


def ev(user, item, cat, ts, btype="click"):
    return BehaviorEvent(user, item, cat, btype, ts)


TOY_EVENTS = [
    ev(7, 100, 3, 1000),
    ev(7, 200, 4, 2000, "purchase"),
    ev(9, 100, 3, 1500, "favorite"),
    ev(9, 300, 3, 500),  # out of order on purpose
    ev(7, 100, 3, 3000, "cart"),
]


# ---------------------------------------------------------------------------
# log parsing


def test_log_round_trip_and_dense_remap(tmp_path):
    path = tmp_path / "log.csv"
    write_behavior_log(path, TOY_EVENTS)
    log = load_behavior_log(path)
    # first-appearance order, 1-based
    assert log.user_map == {7: 1, 9: 2}
    assert log.item_map == {100: 1, 200: 2, 300: 3}
    assert log.category_map == {3: 1, 4: 2}
    assert log.item_category == {1: 1, 2: 2, 3: 1}
    assert log.n_rows == 5 and log.n_malformed == 0
    assert (log.n_users, log.n_items, log.n_categories) == (2, 3, 2)
    # per-user chronological regardless of file order
    assert [e.timestamp for e in log.events_by_user[2]] == [500, 1500]
    assert [e.behavior_type for e in log.events_by_user[1]] == ["click", "purchase", "cart"]


def test_log_from_events_matches_file_load(tmp_path):
    path = tmp_path / "log.csv"
    write_behavior_log(path, TOY_EVENTS)
    a = load_behavior_log(path)
    b = log_from_events(TOY_EVENTS)
    assert a.user_map == b.user_map
    assert a.item_map == b.item_map
    assert a.events_by_user == b.events_by_user


def test_blank_lines_and_rare_garbage_tolerated(tmp_path):
    path = tmp_path / "log.csv"
    lines = [f"1,{i},1,pv,{1000 + i}" for i in range(1, 200)]
    lines.insert(50, "")
    lines.insert(100, "not,a,valid,row")
    path.write_text("\n".join(lines) + "\n")
    log = load_behavior_log(path)
    assert log.n_malformed == 1
    assert log.n_rows == 200  # blank line not counted


@pytest.mark.parametrize(
    "bad",
    [
        "1,2,3,pv",  # too few fields
        "1,2,3,pv,100,extra",
        "x,2,3,pv,100",
        "1,2,3,swim,100",  # unknown behavior
        "1,2,3,pv,0",  # non-positive timestamp
        "1,2,3,pv,-5",
        "1,2,3,pv,9223372036854775808",  # past int64
    ],
)
def test_malformed_rows_over_threshold_fail_with_line_number(tmp_path, bad):
    path = tmp_path / "log.csv"
    path.write_text("1,1,1,pv,100\n" + bad + "\n")
    with pytest.raises(FormatError) as err:
        load_behavior_log(path)
    assert "line 2" in str(err.value)


def test_a_timestamp_past_int64_is_malformed(tmp_path):
    # only the per-line path reads such a field; loaded as good, it would turn
    # the timestamp column and every window into object arrays
    events, _ = generate_synthetic(SyntheticSpec(n_users=20, n_items=60, n_categories=4,
                                                 events_per_user=20, seed=6))
    path = tmp_path / "log.csv"
    write_behavior_log(path, events)
    with open(path, "a") as fh:
        fh.write("1,5,5,pv,100000000000000000000\n")
    log = load_behavior_log(path)
    assert (log.n_rows, log.n_malformed) == (len(events) + 1, 1)
    assert log.events_by_user.timestamp.dtype == np.int64
    ss = build_samples(log.events_by_user, 4, 10, 1, build_category_index(log), 0)
    assert all(s.long_seq.dtype == np.int64 for s in ss)


def test_id_maps_file(tmp_path):
    log = log_from_events(TOY_EVENTS)
    path = tmp_path / "ids.json"
    save_id_maps(path, log)
    data = json.loads(path.read_text())
    assert data["users"] == {"7": 1, "9": 2}
    assert data["items"] == {"100": 1, "200": 2, "300": 3}
    assert data["item_category"] == {"1": 1, "2": 2, "3": 1}


def test_category_index():
    log = log_from_events(TOY_EVENTS)
    assert build_category_index(log) == {1: [1, 3], 2: [2]}


# ---------------------------------------------------------------------------
# sample building


def seq_events(user, rows):
    return [ev(user, item, cat, ts) for item, cat, ts in rows]


def test_positive_sample_windows_and_context():
    sequences = {
        1: seq_events(1, [(1, 1, 100), (2, 1, 200), (3, 2, 300), (4, 2, 7200)]),
        2: seq_events(2, [(5, 3, 50)]),  # single event: skipped
    }
    index = {1: [1, 2], 2: [3, 4], 3: [5]}
    ss = build_samples(sequences, l_st=2, l_lt=3, negatives_per_positive=0,
                       category_index=index, seed=0)
    assert ss.stats["users_skipped"] == 1
    samples = list(ss)
    assert len(samples) == 1
    s = samples[0]
    assert (s.user_id, s.target_item, s.target_category, s.label) == (1, 4, 2, 1)
    assert s.timestamp == 7200
    assert s.context_bucket == (7200 // 3600) % 24 + 1
    assert s.short_seq.tolist() == [[2, 1, 200], [3, 2, 300]]
    assert s.long_seq.tolist() == [[1, 1, 100], [2, 1, 200], [3, 2, 300]]


def test_negatives_same_category_never_seen():
    sequences = {
        1: seq_events(1, [(1, 1, 100), (2, 1, 200), (3, 1, 300)]),
    }
    index = {1: [1, 2, 3, 4, 5, 6]}
    ss = build_samples(sequences, 4, 8, negatives_per_positive=2,
                       category_index=index, seed=1)
    negs = [s for s in ss if s.label == 0]
    assert len(negs) == 2
    for s in negs:
        assert s.target_category == 1
        assert s.target_item in (4, 5, 6)  # 1..3 were touched by the user
        assert s.short_seq.tolist() == negs[0].short_seq.tolist()  # windows copied from the positive
    pos = [s for s in ss if s.label == 1]
    assert len(pos) == 1 and pos[0].target_item == 3


def test_windows_are_shared_read_only_int64_rows():
    events, _ = generate_synthetic(SyntheticSpec(n_users=30, n_items=60, n_categories=4,
                                                 events_per_user=30, seed=5))
    log = log_from_events(events)
    ss = build_samples(log.events_by_user, 4, 10, 2, build_category_index(log), 0)
    positive = {s.user_id: s for s in ss if s.label == 1}
    for s in ss:
        for window, length in ((s.short_seq, 4), (s.long_seq, 10)):
            assert window.dtype == np.int64 and window.shape == (length, 3)
            assert not window.flags.writeable
        assert np.shares_memory(s.short_seq, s.long_seq)
        pos = positive[s.user_id]
        assert s.short_seq is pos.short_seq and s.long_seq is pos.long_seq

    def tupled(s):
        return replace(s, **{name: tuple(map(tuple, getattr(s, name).tolist()))
                             for name in ("short_seq", "long_seq")})

    batch = ss.train[:12]
    for variant in ("ETA", "FULL_TA"):
        config = ModelConfig(d=4, l_st=4, l_lt=10, k=3, n_heads=2, m=8, n_rounds=2,
                             variant=variant, use_time_buckets=True, mlp_widths=(6,), seed=1,
                             n_items=log.n_items, n_categories=log.n_categories,
                             n_users=log.n_users)
        params = init_params(config)
        loss, grads = loss_and_gradients(batch, params, config)
        want_loss, want_grads = loss_and_gradients([tupled(s) for s in batch], params, config)
        assert loss == want_loss
        for name, g in want_grads.items():
            np.testing.assert_array_equal(grads[name], g, err_msg=name)


def test_negative_fallback_and_drop_accounting():
    # category 2 has a single item which the user already saw: global fallback;
    # and a second user who has seen every item gets its negatives dropped
    sequences = {
        1: seq_events(1, [(1, 1, 100), (9, 2, 300)]),
        2: seq_events(2, [(1, 1, 100), (9, 2, 200), (5, 1, 400)]),
    }
    index = {1: [1, 5], 2: [9]}
    ss = build_samples(sequences, 4, 8, negatives_per_positive=3,
                       category_index=index, seed=2)
    assert ss.stats["fallback_negatives"] == 1  # user 1
    assert ss.stats["dropped_negatives"] == 3  # user 2 saw the whole catalog
    u1_negs = [s for s in ss if s.user_id == 1 and s.label == 0]
    assert len(u1_negs) == 3 and all(s.target_item == 5 for s in u1_negs)


def test_split_is_chronological_and_80_10_10():
    rng = np.random.default_rng(3)
    sequences = {}
    for user in range(1, 41):
        t0 = int(rng.integers(1, 10_000))
        target_ts = user * 10_000  # distinct target times force a clean order
        sequences[user] = seq_events(user, [(1, 1, t0), (2, 1, target_ts)])
    ss = build_samples(sequences, 2, 4, negatives_per_positive=1,
                       category_index={1: [1, 2, 3, 4]}, seed=4)
    assert ss.stats["units"] == 40
    assert len({s.user_id for s in ss.train}) == 32
    assert len({s.user_id for s in ss.val}) == 4
    assert len({s.user_id for s in ss.test}) == 4
    assert max(s.timestamp for s in ss.train) <= min(s.timestamp for s in ss.val)
    assert max(s.timestamp for s in ss.val) <= min(s.timestamp for s in ss.test)
    # negatives stay in the same split as their positive
    for part in (ss.train, ss.val, ss.test):
        users = [s.user_id for s in part]
        assert all(users.count(u) == 2 for u in set(users))


def test_sampling_is_seeded():
    sequences = {1: seq_events(1, [(1, 1, 100), (2, 1, 200)])}
    index = {1: list(range(1, 30))}
    a = build_samples(sequences, 2, 4, 5, index, seed=7)
    b = build_samples(sequences, 2, 4, 5, index, seed=7)
    c = build_samples(sequences, 2, 4, 5, index, seed=8)
    items = lambda ss: [s.target_item for s in ss if s.label == 0]  # noqa: E731
    assert items(a) == items(b)
    assert items(a) != items(c)


def test_build_samples_validation():
    with pytest.raises(ValueError):
        build_samples({}, 0, 4, 1, {}, seed=0)
    with pytest.raises(ValueError):
        build_samples({}, 2, 4, -1, {}, seed=0)


# ---------------------------------------------------------------------------
# synthetic generator


SMALL = SyntheticSpec(
    n_users=30, n_items=200, n_categories=10, events_per_user=60,
    interest_categories_per_user=3, favorites_per_category=3,
    noise_rate=0.2, long_term_gap_days=14, impression_window_days=30, seed=5,
)


def test_synthetic_shape_and_order():
    events, interests = generate_synthetic(SMALL)
    assert len(events) == 30 * 60
    assert set(interests) == set(range(1, 31))
    assert all(len(v) == 3 for v in interests.values())
    by_user = {}
    for e in events:
        by_user.setdefault(e.user_id, []).append(e)
        assert e.category_id == item_category_of(e.item_id, 10)
        assert 1 <= e.item_id <= 200
    for user, evs in by_user.items():
        ts = [e.timestamp for e in evs]
        assert ts == sorted(ts)
        assert len(evs) == 60


def test_synthetic_is_seeded():
    a, _ = generate_synthetic(SMALL)
    b, _ = generate_synthetic(SMALL)
    c, _ = generate_synthetic(SyntheticSpec(**{**SMALL.__dict__, "seed": 6}))
    assert a == b
    assert a != c


def test_noise_free_old_segment_is_pure_interest():
    spec = SyntheticSpec(**{**SMALL.__dict__, "noise_rate": 0.0})
    events, interests = generate_synthetic(spec)
    gap_s = spec.long_term_gap_days * SECONDS_PER_DAY
    by_user = {}
    for e in events:
        by_user.setdefault(e.user_id, []).append(e)
    for user, evs in by_user.items():
        target = evs[-1]
        old = [e for e in evs[:-1] if target.timestamp - e.timestamp > gap_s]
        assert old, "history must reach past the gap"
        assert all(e.category_id in interests[user] for e in old)
        # the planted positive already occurs in the old segment
        assert any(e.item_id == target.item_id for e in old)
        # noise-free recent events browse the interest categories but
        # never revisit the positive
        recent = [e for e in evs[:-1] if target.timestamp - e.timestamp <= gap_s]
        assert recent
        assert all(e.category_id in interests[user] for e in recent)
        assert all(e.item_id != target.item_id for e in recent)


def test_recent_segment_avoids_the_favorites():
    events, interests = generate_synthetic(SMALL)
    gap_s = SMALL.long_term_gap_days * SECONDS_PER_DAY
    by_user = {}
    for e in events:
        by_user.setdefault(e.user_id, []).append(e)
    browse_hits = 0
    recent_total = 0
    for user, evs in by_user.items():
        target = evs[-1]
        old_items = {e.item_id for e in evs[:-1] if target.timestamp - e.timestamp > gap_s}
        recent = [e for e in evs[:-1] if target.timestamp - e.timestamp <= gap_s]
        assert all(e.item_id != target.item_id for e in recent)
        recent_total += len(recent)
        browse_hits += sum(
            e.category_id in interests[user] and e.item_id not in old_items
            for e in recent
        )
    # most recent rows window-shop the interests without touching items
    # that carry the old-segment evidence
    assert browse_hits / recent_total > 0.6


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n_users=0)
    with pytest.raises(ValueError):
        SyntheticSpec(n_categories=10, n_items=5)
    with pytest.raises(ValueError):
        SyntheticSpec(noise_rate=1.5)
    with pytest.raises(ValueError):
        SyntheticSpec(interest_categories_per_user=99)


def test_interest_oracle_recovers_planted_interests():
    spec = SyntheticSpec(seed=9)  # full default scale
    events, interests = generate_synthetic(spec)
    found = interest_oracle(events, spec.long_term_gap_days, spec.interest_categories_per_user)
    hits = sum(found[u] == interests[u] for u in interests)
    assert hits / len(interests) >= 0.95


def test_interest_oracle_on_a_hand_built_log():
    gap = 14
    old = 1_000_000
    events = (
        [ev(1, 2, 2, old + i) for i in range(5)]
        + [ev(1, 3, 3, old + 100 + i) for i in range(3)]
        + [ev(1, 4, 4, old + 200)]
        + [ev(1, 9, 9, old + 40 * SECONDS_PER_DAY)]  # recent, ignored
    )
    assert interest_oracle(events, gap, 2)[1] == (2, 3)


# ---------------------------------------------------------------------------
# per-line reference loader and sampler, and differential tests against them


def _oracle_parse_line(line):
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


def oracle_load_behavior_log(path):
    """One line at a time, dict remaps, per-user list sorts."""
    user_map, item_map, cat_map, item_category = {}, {}, {}, {}
    rows = []
    n_rows = n_malformed = 0
    first_bad = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            n_rows += 1
            parsed = _oracle_parse_line(line)
            if parsed is None:
                n_malformed += 1
                if first_bad is None:
                    first_bad = lineno
                continue
            user, item, cat, btype, ts = parsed
            u = user_map.setdefault(user, len(user_map) + 1)
            i = item_map.setdefault(item, len(item_map) + 1)
            c = cat_map.setdefault(cat, len(cat_map) + 1)
            item_category.setdefault(i, c)
            rows.append((u, i, c, btype, ts))
    if n_rows > 0 and n_malformed / n_rows > 0.01:
        raise FormatError(
            f"{n_malformed} of {n_rows} rows malformed (>1%), first at line {first_bad}"
        )
    events_by_user = {}
    for u, i, c, btype, ts in rows:
        events_by_user.setdefault(u, []).append(BehaviorEvent(u, i, c, btype, ts))
    for u in events_by_user:
        events_by_user[u].sort(key=lambda e: e.timestamp)
    recategorized = sum(c != item_category[i] for _, i, c, _, _ in rows)
    return BehaviorLog(
        events_by_user, user_map, item_map, cat_map, item_category, n_rows, n_malformed,
        recategorized,
    )


def oracle_build_samples(sequences, l_st, l_lt, negatives_per_positive, category_index, seed):
    """Event-list walk over a dict of per-user event lists."""
    cat_of_item = {item: cat for cat, items in category_index.items() for item in items}
    all_items = np.array(sorted(cat_of_item), dtype=np.int64)
    rng = np.random.default_rng(seed)
    units = []
    skipped = fallback = dropped = 0
    for user in sorted(sequences):
        events = sequences[user]
        if len(events) < 2:
            skipped += 1
            continue
        target = events[-1]
        history = [e for e in events[:-1] if e.timestamp < target.timestamp]
        if not history:
            skipped += 1
            continue
        short = tuple((e.item_id, e.category_id, e.timestamp) for e in history[-l_st:])
        long = tuple((e.item_id, e.category_id, e.timestamp) for e in history[-l_lt:])
        ctx = (target.timestamp // 3600) % 24 + 1
        seen = {e.item_id for e in events}
        samples = [
            Sample(user, target.item_id, target.category_id, ctx, target.timestamp, 1, short, long)
        ]
        if negatives_per_positive > 0:
            pool = [i for i in category_index.get(target.category_id, ()) if i not in seen]
            if not pool:
                pool = [i for i in all_items.tolist() if i not in seen]
                if pool:
                    fallback += 1
            if not pool:
                dropped += negatives_per_positive
            else:
                arr = np.array(pool, dtype=np.int64)
                picks = rng.choice(
                    arr, size=negatives_per_positive, replace=len(arr) < negatives_per_positive
                )
                samples += [
                    Sample(user, i, cat_of_item[i], ctx, target.timestamp, 0, short, long)
                    for i in picks.tolist()
                ]
        units.append((target.timestamp, user, samples))
    units.sort(key=lambda t: (t[0], t[1]))
    n = len(units)
    cut_train, cut_val = int(n * 0.8), int(n * 0.9)
    parts = [units[:cut_train], units[cut_train:cut_val], units[cut_val:]]
    stats = {
        "users_total": len(sequences), "users_skipped": skipped,
        "fallback_negatives": fallback, "dropped_negatives": dropped, "units": n,
    }
    return SampleSet(*([s for _, _, ss in part for s in ss] for part in parts), stats)


def assert_same_log(got, want):
    for name in ("user_map", "item_map", "category_map", "item_category"):
        assert list(getattr(got, name).items()) == list(getattr(want, name).items()), name
    assert (got.n_rows, got.n_malformed, got.n_recategorized) == (
        want.n_rows, want.n_malformed, want.n_recategorized
    )
    assert list(got.events_by_user) == list(want.events_by_user)
    for user, events in want.events_by_user.items():
        assert got.events_by_user[user] == events


def assert_same_samples(got, want):
    for split in ("train", "val", "test"):
        assert list(map(record_value, getattr(got, split))) == list(
            map(record_value, getattr(want, split))), split
    assert got.stats == want.stats


# per field: values that take the array path, values only a per-line int()
# accepts, and values that make the row malformed
_IDS = (["1", "2", "3", "07", "12", "1234567890123456789"],
        [" 4", "5 ", "+5", "1_0", "٣", "-3", "9223372036854775808", "18446744073709551616"],
        ["", "x1", "0x1", "1.5"])
_FIELDS = [_IDS, _IDS, _IDS,
           (["pv", "fav", "cart", "buy"], [" pv", "buy\t"], ["pvx", "favs", "carts", "buyer", "swim", "PV", "", "ca"]),
           (["100", "200", "200", "300", "0100"],
            ["+150", "2_00", "٣٠٠", " 250 ", "9223372036854775807"],
            ["0", "-5", "000", "abc", "1.5", "9223372036854775808", "99999999999999999999"])]


def _field(k):
    strict = st.sampled_from(_FIELDS[k][0])
    return st.one_of(strict, strict, strict, st.sampled_from(_FIELDS[k][1]))


_ROW = st.tuples(*map(_field, range(5))).map(list)


@st.composite
def _bad_row(draw):
    fields = draw(_ROW)
    how = draw(st.sampled_from([3, 4, 0, 1, 2, 5, 6]))  # which field breaks, or 4/6 fields
    if how < 5:
        fields[how] = draw(st.sampled_from(_FIELDS[how][2]))
    return fields[:4] if how == 5 else fields + ["7"] if how == 6 else fields


_LINE = st.one_of(_ROW, _ROW, _ROW, _bad_row()).map(",".join) | st.sampled_from(
    ["", "  ", "\t", "\f"]
)
_ENDINGS = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw):
    lines = draw(st.lists(st.tuples(_LINE, _ENDINGS), max_size=25))
    text = "".join(line + end for line, end in lines)
    if draw(st.booleans()):  # enough strict rows that a malformed one or two pass the 1% rule
        text = "".join(f"{k % 7 + 1},{k % 11 + 1},{k % 3 + 1},pv,{k % 5 + 100}\n"
                       for k in range(250)) + text
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no newline after the last line
    return text


def _load(load, path):
    try:
        return load(path)
    except FormatError as exc:
        return str(exc)


def _load_both(path, text):
    path.write_bytes(text.encode("utf-8"))
    return [_load(load, path) for load in (load_behavior_log, oracle_load_behavior_log)]


@pytest.fixture(scope="module")
def scratch_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "log.csv"


@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
def test_loader_matches_per_line_oracle(scratch_csv, text):
    scratch_csv.write_bytes(text.encode("utf-8"))
    want = _load(oracle_load_behavior_log, scratch_csv)
    # at 64 and 1 bytes, block edges fall inside every line shape drawn: CR
    # and CRLF endings, blank lines, lines longer than a block, no final
    # newline, and malformed rows past the first block
    for block in (data._BLOCK_BYTES, 64, 1):
        saved, data._BLOCK_BYTES = data._BLOCK_BYTES, block
        try:
            got = _load(load_behavior_log, scratch_csv)
        finally:
            data._BLOCK_BYTES = saved
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_log(got, want)


def test_loader_matches_oracle_on_ordered_and_unordered_logs(tmp_path):
    # the loader keeps rows that arrive in (user, timestamp) order as they are
    # and sorts any others; the hypothesis logs above are rarely ordered
    events, _ = generate_synthetic(SyntheticSpec(n_users=25, n_items=400, n_categories=8,
                                                 events_per_user=200, seed=3))
    shuffled = [events[j] for j in np.random.default_rng(0).permutation(len(events))]
    one_user_reversed = events[:200] + events[200:400][::-1] + events[400:]
    path = tmp_path / "log.csv"
    for rows in (events, shuffled, one_user_reversed):
        write_behavior_log(path, rows)
        assert_same_log(load_behavior_log(path), oracle_load_behavior_log(path))


@settings(max_examples=150, deadline=None)
@given(
    text=csv_texts(), l_st=st.integers(1, 4), l_lt=st.integers(1, 6),
    negatives=st.integers(0, 3), seed=st.integers(0, 3), rnd=st.randoms(use_true_random=False),
)
def test_build_samples_matches_oracle_on_loaded_logs(scratch_csv, text, l_st, l_lt,
                                                     negatives, seed, rnd):
    got, want = _load_both(scratch_csv, text)
    if isinstance(want, str):
        return
    full = build_category_index(got)
    # the loaded index is a run of ids; one with gaps is looked up another way
    gapped = {cat: [i for i in items if i % 3] for cat, items in full.items()}
    for index in (full, gapped):
        expected = oracle_build_samples(want.events_by_user, l_st, l_lt, negatives, index, seed)
        for sequences in (got.events_by_user, want.events_by_user):
            assert_same_samples(build_samples(sequences, l_st, l_lt, negatives, index, seed),
                                expected)
    # a plain dict whose lists are out of time order is read as given, last event the target
    shuffled = {u: rnd.sample(evs, len(evs)) for u, evs in want.events_by_user.items()}
    assert_same_samples(
        build_samples(shuffled, l_st, l_lt, negatives, full, seed),
        oracle_build_samples(shuffled, l_st, l_lt, negatives, full, seed),
    )


def test_recategorized_rows_are_counted(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("1,10,3,pv,100\n1,11,3,pv,200\n2,10,4,pv,150\n")
    log = load_behavior_log(path)
    assert log.n_recategorized == 1
    assert log.item_category == {1: 1, 2: 1}


def test_behavior_kinds_are_held_as_int8_codes(tmp_path):
    # names are made only when a user's events are listed
    path = tmp_path / "log.csv"
    path.write_text("1,10,3,pv,100\n1,11,3,buy,200\n2,10,3,cart,150\n2,12,3,fav,160\n")
    loaded = load_behavior_log(path)
    rebuilt = data.log_from_events([e for u in loaded.events_by_user
                                    for e in loaded.events_by_user[u]])
    for log in (loaded, rebuilt):
        events = log.events_by_user
        assert events.behavior.dtype == np.int8
        assert [e.behavior_type for u in events for e in events[u]] == [
            "click", "purchase", "cart", "favorite"]


def test_item_categories_refuse_a_recategorized_log(tmp_path):
    # the array fingerprint tables are built and verified from; a log that
    # moves an item to another category has no one category per item
    path = tmp_path / "log.csv"
    path.write_text("1,10,3,pv,100\n1,11,4,pv,200\n2,10,3,pv,150\n")
    assert load_behavior_log(path).item_categories().tolist() == [0, 1, 2]
    path.write_text("1,10,3,pv,100\n1,11,3,pv,200\n2,10,4,pv,150\n")
    with pytest.raises(FormatError, match="^1 rows of the log list an item under a category other"):
        load_behavior_log(path).item_categories()


def test_byte_order_mark_does_not_drop_the_first_row(tmp_path):
    # spreadsheet exports start the file with a UTF-8 byte-order mark
    events, _ = generate_synthetic(SyntheticSpec(n_users=1, n_items=50, n_categories=5,
                                                 events_per_user=199, seed=4))
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_behavior_log(plain, events)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    got = load_behavior_log(marked)
    assert (got.n_rows, got.n_malformed) == (199, 0)
    assert_same_log(got, load_behavior_log(plain))


# ---------------------------------------------------------------------------
# dense ids: a first-appearance table for narrow int64 columns, a sort for
# object columns and wide spans


def _dict_dense_ids(raw):
    id_map, first = {}, []
    for row, value in enumerate(raw):
        if value not in id_map:
            id_map[value] = len(id_map) + 1
            first.append(row)
    return [id_map[v] for v in raw], id_map, first


@pytest.mark.parametrize("lo", [0, 1, -7, -(2**62), 2**62])
@pytest.mark.parametrize("extra", [0, 1])  # span 2n (the table's bound), then 2n + 1
def test_dense_ids_at_the_table_bound_match_a_dict(lo, extra):
    rng = np.random.default_rng(abs(lo) % 97 + extra)
    for n in (2, 3, 10, 200):
        span = 2 * n + extra
        raw = rng.integers(0, span, size=n)
        raw[:2] = 0, span - 1  # both ends present, so the span is exactly 2n + extra
        raw = (rng.permutation(raw) + lo).astype(np.int64)
        ids, id_map, first = data._dense_ids(raw)
        want_ids, want_map, want_first = _dict_dense_ids(raw.tolist())
        assert ids.dtype == np.int64 and first.dtype == np.intp
        assert ids.tolist() == want_ids
        assert list(id_map.items()) == list(want_map.items())
        assert first.tolist() == want_first


@pytest.mark.parametrize("how", [
    "small", "spread", "negative", "beyond_int64", "at_bound", "past_bound"])
def test_loading_is_unchanged_by_a_one_to_one_relabelling(tmp_path, monkeypatch, how):
    events, _ = generate_synthetic(SyntheticSpec(n_users=30, n_items=300, n_categories=6,
                                                 events_per_user=40, seed=5))
    # shuffled, so that first appearances are not in id order
    events = [events[j] for j in np.random.default_rng(1).permutation(len(events))]
    n = len(events)
    maps = {}
    for field in ("user_id", "item_id", "category_id"):
        distinct = sorted({getattr(e, field) for e in events})
        if how in ("at_bound", "past_bound"):
            # the top id moves so that the column spans 2n or 2n + 1 values
            top = distinct[0] + 2 * n - (how == "at_bound")
            new = distinct[:-1] + [top]
        else:
            new = [{"small": v, "spread": v * 3_000_000_000_001 + 17,  # over about 10**15
                    "negative": -v, "beyond_int64": v + 2**63}[how] for v in distinct]
        maps[field] = dict(zip(distinct, new))
    relabelled = [BehaviorEvent(maps["user_id"][e.user_id], maps["item_id"][e.item_id],
                                maps["category_id"][e.category_id], e.behavior_type,
                                e.timestamp) for e in events]
    base_path, path = tmp_path / "base.csv", tmp_path / "relabelled.csv"
    write_behavior_log(base_path, events)
    write_behavior_log(path, relabelled)
    base = load_behavior_log(base_path)

    tables = []
    by_table = data._dense_ids_by_table
    monkeypatch.setattr(data, "_dense_ids_by_table",
                        lambda *a: tables.append(a[0].size) or by_table(*a))
    got = load_behavior_log(path)
    # the table takes int64 columns of span up to 2n; the sort the rest
    assert tables == ([n] * 3 if how in ("small", "negative", "at_bound") else [])

    for name in ("offsets", "item", "category", "behavior", "timestamp"):
        a, b = getattr(got.events_by_user, name), getattr(base.events_by_user, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.events_by_user.users == base.events_by_user.users
    assert (got.n_rows, got.n_malformed, got.n_recategorized) == (
        base.n_rows, base.n_malformed, base.n_recategorized)
    assert got.item_category == base.item_category
    for name, field in (("user_map", "user_id"), ("item_map", "item_id"),
                        ("category_map", "category_id")):
        want = [(maps[field][raw], dense) for raw, dense in getattr(base, name).items()]
        assert list(getattr(got, name).items()) == want, name
