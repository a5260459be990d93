"""Micro-benchmarks of pipeline kernels, with pytest-benchmark.

    PYTHONPATH=src python -m pytest benchmarks/test_kernels.py

This directory is outside the `testpaths` of pyproject.toml, so the tier-1
test run never collects it; `tests/test_benchmarks_run.py` runs it once
with --benchmark-disable so that an API change cannot leave it broken.  The
head cases record `step_us` or `client_step_us` (median call time over SGD
steps per call) and `whole_blocks` of `blocks` (how many of the plan's
client blocks step whole) in the benchmark's `extra_info`.
"""

import math
import resource
import tracemalloc

import numpy as np
import pytest

from advent import fed_onset, gbdt, head, mnd, preprocess, runner, scenario

T, FILTERS, BATCH, ROWS, EPOCHS = 10, 4, 64, 640, 5

# The central-l benchmark workload's scenario at seed 1: ROADMAP L cut to
# 600 s, about 631k events.
CENTRAL_L = scenario.ScenarioConfig(duration_s=600, concurrent_range=(20, 20), attack_count=3,
                                    attack_spacing_s=150, rng_seed=1)
# The dense-pulsed benchmark workload's scenario at seed 1: 50 vehicles
# present, 10 attacks of 40 s.
DENSE_PULSED = scenario.ScenarioConfig(duration_s=1200, total_vehicles=60,
                                       concurrent_range=(50, 50), arrival_interval_s=20,
                                       attacker_fraction=0.2, attack_count=10,
                                       attack_spacing_s=120, attack_duration_s=40,
                                       normal_rate_pps=0.5, flood_rate_pps=6.0,
                                       neighbor_degree=8, rng_seed=1)


def _record_per_step(benchmark, name, steps):
    """Record the median call time over `steps` SGD steps as `name`, in µs.
    Under --benchmark-disable there are no statistics to record."""
    benchmark.extra_info[f"{name}s_per_call"] = steps
    if benchmark.stats is not None:
        benchmark.extra_info[f"{name}_us"] = 1e6 * benchmark.stats.stats.median / steps


def _record_layouts(benchmark, plan):
    """Record how many of the plan's blocks step whole, on all their table
    rows, and how many blocks there are."""
    benchmark.extra_info["whole_blocks"] = sum(block.whole for block in plan.blocks)
    benchmark.extra_info["blocks"] = len(plan.blocks)


@pytest.mark.parametrize("k", [12, 360], ids=["fed-s-K12", "L-K360"])
def test_head_step(benchmark, k):
    """One head SGD step at K clients x T trees, batch 64, every row distinct.

    Timed as `train_on_matrix`, a one-client round over EPOCHS epochs of
    ROWS rows, and divided by the step count, like the benchmark's traced
    `head.step_us`, so the per-epoch shuffle is included.  K=12 is the fed-s workload's
    shape; K=360 is ROADMAP's workload L (`ScenarioConfig()` defaults).
    """
    rng = np.random.default_rng(0)
    y = (rng.random(ROWS) > 0.5).astype(np.float64)
    cfg = head.HeadConfig(filters=FILTERS, epochs=EPOCHS, batch_size=BATCH)
    w = head.init(k, T, cfg)
    table = rng.normal(size=(ROWS, k * T))
    out = benchmark(head.train_on_matrix, w, table, y, cfg)
    _record_per_step(benchmark, "step", EPOCHS * math.ceil(ROWS / BATCH))
    _record_layouts(benchmark, head.plan_round(w, table, np.arange(ROWS), y, [(0, ROWS)], cfg))
    assert np.isfinite(out.dense).all()


@pytest.mark.parametrize("ids_from", ["6-row-table", "60-row-table", "all-distinct", "L-like"])
def test_head_round(benchmark, ids_from):
    """One FedAvg round of the head at the fed-s shape: 12 clients of
    250-750 rows, K=12 x T=10, batch 64, EPOCHS epochs, as one `plan_round`
    and one `train_round`.

    The rows are drawn from a 6-row table, as fed-s's depth-3 trees give
    about 6 distinct tree vectors; or each client draws from its own 5 rows
    of a 60-row table; or the rows are all distinct, the worst case; or,
    like workload L (6,559 distinct rows of 89,162), each client draws from
    its own 25 rows of a 5,000-row table.  The two small tables need no
    more rows than a batch holds, so their one block steps whole, every
    client on every table row: the 60-row table is the worst case of that
    layout, 60 rows computed per client step where a batch has at most 5
    distinct.  The other two cases gather each batch's distinct rows.
    Records `client_step_us`, the call time over the clients' summed SGD
    steps, comparable with `test_head_step`'s `step_us`.
    """
    k = 12
    rng = np.random.default_rng(0)
    sizes = rng.integers(250, 751, size=k)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    n = int(bounds[-1])
    cfg = head.HeadConfig(filters=FILTERS, epochs=EPOCHS, batch_size=BATCH)
    w = head.init(k, T, cfg)
    if ids_from == "all-distinct":
        table, ids = rng.normal(size=(n, k * T)), np.arange(n)
    elif ids_from == "6-row-table":
        table = rng.normal(size=(6, k * T))
        ids = rng.integers(0, 6, size=n)
    elif ids_from == "60-row-table":
        table = rng.normal(size=(60, k * T))
        ids = np.concatenate([rng.integers(5 * c, 5 * c + 5, size) for c, size in enumerate(sizes)])
    else:
        table = rng.normal(size=(5000, k * T))
        ids = np.concatenate([rng.choice(rng.choice(5000, 25, replace=False), size)
                              for size in sizes])
    y = (rng.random(n) > 0.5).astype(np.float64)
    spans = list(zip(bounds[:-1], bounds[1:]))
    out = benchmark(lambda: head.train_round(w, head.plan_round(w, table, ids, y, spans, cfg),
                                             list(range(k))))
    _record_per_step(benchmark, "client_step",
                     EPOCHS * sum(math.ceil(size / BATCH) for size in sizes))
    _record_layouts(benchmark, head.plan_round(w, table, ids, y, spans, cfg))
    assert all(np.isfinite(o.dense).all() for o in out)


def _count_rows(rng, n):
    """Integer packet-count rows of 10 lags, floods raising the counts.

    Like the dense-pulsed training set: about a third of the rows are
    attack seconds and each lag takes about 70 distinct values.
    """
    y = (rng.random(n) < 0.35).astype(np.float64)
    rate = np.where(y == 1, rng.uniform(5.0, 50.0, n), rng.uniform(0.5, 4.0, n))
    x = rng.poisson(rate[:, None], (n, 10)).astype(np.float64)
    return x, y

def _fed_s_clients(rng):
    """12 clients of 250-750 rows shaped like fed-s's for its forest: attack
    seconds raise lag 0, overlapping normal counts, and the other lags carry
    nothing, so, as on fed-s, every tree splits on lag 0 alone and the rows
    fall into 6 threshold codes."""
    clients = []
    for n in rng.integers(250, 751, size=12):
        y = (rng.random(n) < 0.2).astype(np.float64)
        x = np.ones((n, 10))
        x[:, 0] = np.where(y == 1, rng.integers(4, 30, n), rng.integers(0, 8, n))
        clients.append((x, y))
    return clients


def _fed_s_forest(rng):
    """A fed-s-like compiled forest and the clients it was fitted on."""
    clients = _fed_s_clients(rng)
    ensembles = gbdt.train_clients([x for x, _ in clients], [y for _, y in clients],
                                   gbdt.GbdtConfig(trees_per_client=T), range(12))
    return gbdt.compile_forest(ensembles), clients


@pytest.fixture(scope="module")
def l_ensembles():
    """ROADMAP L's ensembles and the clients they were fitted on: 265
    clients of 336 rows x 10 trees of depth 3 where 157 clients have no
    positives, so 1,570 of the 2,650 trees are single leaves."""
    rng = np.random.default_rng(6)
    clients = []
    for c in range(265):
        x, y = _count_rows(rng, 336)
        clients.append((x, y if c < 108 else np.zeros_like(y)))
    ensembles = gbdt.train_clients([x for x, _ in clients], [y for _, y in clients],
                                   gbdt.GbdtConfig(trees_per_client=T), range(265))
    return ensembles, clients


@pytest.fixture(scope="module")
def l_forest(l_ensembles):
    """ROADMAP L's compiled forest (`l_ensembles`) and its clients."""
    ensembles, clients = l_ensembles
    return gbdt.compile_forest(ensembles), clients


@pytest.mark.parametrize("shape", ["dense-pulsed", "L"])
def test_compile_forest(benchmark, shape, request):
    """One `compile_forest` call, which compiles the forest's leaf masks:
    the `l_ensembles`, or the dense-pulsed pooled fit's 20 trees of depth 3
    as a forest of one.  Records the splitting trees, the distinct split
    thresholds and the masks' bytes."""
    if shape == "L":
        ensembles = request.getfixturevalue("l_ensembles")[0]
    else:
        x, y, cfg = request.getfixturevalue("dense_pulsed_fit")
        ensembles = [gbdt.train(x[:2000], y[:2000], cfg)]
    forest = benchmark.pedantic(gbdt.compile_forest, (ensembles,), rounds=5)
    masks = gbdt._compiled(forest)
    benchmark.extra_info["splitting_trees"] = int(masks.splits.sum())
    benchmark.extra_info["thresholds"] = sum(len(c) for c in masks.cuts)
    benchmark.extra_info["mask_bytes"] = sum(m.nbytes for m in masks.masks)
    assert len(forest.trees) == sum(len(e.trees) for e in ensembles)


def _threshold_code_count(forest, x):
    """The number of threshold codes among the rows of x: distinct rows of
    their codes per feature, each the number of the forest's distinct split
    thresholds on it at or below the row's value."""
    split = (forest.left != np.arange(len(forest.left))) & ~np.isnan(forest.threshold)
    codes = [np.searchsorted(np.unique(forest.threshold[split & (forest.feature == f)]), col,
                             side="right") for f, col in enumerate(x.T)]
    return len(np.unique(np.column_stack(codes), axis=0))


@pytest.mark.parametrize("shape", ["fed-s", "L"])
def test_tree_table(benchmark, shape, request):
    """The head's table build in `fed_onset.run_training`,
    `gbdt.distinct_outputs`: threshold codes of every training row, the
    leaf classes of one row per distinct code and the floats of one row per
    table row, each from the forest's leaf masks.

    fed-s: 12 clients of 250-750 rows in 6 threshold codes.  L: the
    `l_forest` over 40 rows per client (L has 336).  Records the distinct
    codes and table rows."""
    if shape == "fed-s":
        forest, clients = _fed_s_forest(np.random.default_rng(6))
        x = np.concatenate([x for x, _ in clients])
    else:
        forest, clients = request.getfixturevalue("l_forest")
        x = np.concatenate([x[:40] for x, _ in clients])
    table, ids = benchmark.pedantic(gbdt.distinct_outputs, (forest, x), rounds=3)
    benchmark.extra_info["rows"] = len(ids)
    benchmark.extra_info["distinct_codes"] = _threshold_code_count(forest, x)
    benchmark.extra_info["table_rows"] = len(table)
    assert table.shape[1] == len(clients) * T and len(table) <= len(ids)


@pytest.mark.parametrize("rows", [1, 600], ids=["vehicle-second", "600-rows"])
def test_detect_onset_batch(benchmark, l_forest, rows):
    """Federated onset decisions at L's shape: the `l_forest` and a head of
    265 clients x 10 trees, on one vehicle-second and on 600 rows drawn from
    every client.  Records `row_us`, the median call time per row."""
    forest, clients = l_forest
    model = fed_onset.GlobalModel(forest=forest, head=head.init(len(clients), T, head.HeadConfig()))
    x = np.concatenate([x[:3] for x, _ in clients])[:rows]
    flags = benchmark(fed_onset.detect_onset_batch, model, x)
    if benchmark.stats is not None:
        benchmark.extra_info["row_us"] = 1e6 * benchmark.stats.stats.median / rows
    assert flags.shape == (rows,) and flags.dtype == bool


def test_head_rounds_fed_s(benchmark):
    """Nine FedAvg rounds of the head at fed-s's shape, as `run_training`
    runs them: one `plan_round`, then one `train_round` a round, 30 epochs,
    on the table of a fed-s-like forest.  Records `client_step_us`."""
    rng = np.random.default_rng(6)
    forest, clients = _fed_s_forest(rng)
    table, ids = gbdt.distinct_outputs(forest, np.concatenate([x for x, _ in clients]))
    y = np.concatenate([y for _, y in clients])
    sizes = [len(y) for _, y in clients]
    bounds = np.cumsum([0] + sizes)
    spans = list(zip(bounds[:-1], bounds[1:]))
    cfg = head.HeadConfig(filters=FILTERS, epochs=30, batch_size=BATCH)
    w0 = head.init(12, T, cfg)

    def rounds():
        plan = head.plan_round(w0, table, ids, y, spans, cfg)
        w = w0
        for r in range(1, 10):
            out = head.train_round(w, plan, [c * 1009 + r for c in range(12)])
            w = fed_onset.fedavg([(c, o, n) for c, (o, n) in enumerate(zip(out, sizes))])
        return w

    w = benchmark.pedantic(rounds, rounds=3)
    _record_per_step(benchmark, "client_step",
                     9 * 30 * sum(math.ceil(size / BATCH) for size in sizes))
    _record_layouts(benchmark, head.plan_round(w0, table, ids, y, spans, cfg))
    benchmark.extra_info["table_rows"] = len(table)
    assert np.isfinite(w.dense).all()



@pytest.fixture(scope="module")
def dense_pulsed_fit():
    """The dense-pulsed workload's pooled fit: 25.6k rows, 20 trees of depth 3."""
    rng = np.random.default_rng(0)
    x, y = _count_rows(rng, 25_602)
    return x, y, gbdt.GbdtConfig(trees_per_client=20, max_depth=3)


def test_gbdt_train(benchmark, dense_pulsed_fit):
    """Split search: one `gbdt.train` call at the dense-pulsed shape."""
    x, y, cfg = dense_pulsed_fit
    ens = benchmark.pedantic(gbdt.train, (x, y, cfg), rounds=5)
    benchmark.extra_info["distinct_values_per_feature"] = int(np.mean(
        [len(np.unique(col)) for col in x.T]))
    assert len(ens.trees) == 20


def test_gbdt_train_central_l(benchmark):
    """Split search at the central-l shape: one `gbdt.train` call on 9,700
    rows with about 370 distinct values per feature, 10 trees of depth 3.
    A bin holds few rows, so the per-bin search, not the per-row histogram,
    leads.

    Like the central-l training set: 13% of the rows are attack seconds,
    whose older lags fall back to normal traffic more often the older they
    are, and 1% of the labels are flipped, so the trees keep splitting
    (about 68 splits in all, as against 62 on central-l at seed 1).
    """
    rng = np.random.default_rng(5)
    n = 9_700
    y = (rng.random(n) < 0.13).astype(np.float64)
    flood_share = np.where(y[:, None] == 1, 0.98 - 0.04 * np.arange(10), 0.006 * np.arange(10))
    rate = np.where(rng.random((n, 10)) < flood_share, rng.uniform(60.0, 360.0, n)[:, None],
                    rng.uniform(8.0, 32.0, n)[:, None])
    x = rng.poisson(rate).astype(np.float64)
    y = np.where(rng.random(n) < 0.01, 1.0 - y, y)
    ens = benchmark.pedantic(gbdt.train, (x, y, gbdt.GbdtConfig(trees_per_client=T)), rounds=5)
    benchmark.extra_info["distinct_values_per_feature"] = int(np.mean(
        [len(np.unique(col)) for col in x.T]))
    assert len(ens.trees) == T


def test_gbdt_train_clients(benchmark):
    """Split search at the fed-s shape: 12 clients of 47-707 rows, 10 trees of
    depth 3 each, in one `gbdt.train_clients` call.  Small nodes make this
    case sensitive to per-node and per-level call overhead."""
    rng = np.random.default_rng(2)
    clients = [_count_rows(rng, n) for n in range(707, 46, -60)]
    cfg = gbdt.GbdtConfig(trees_per_client=T, max_depth=3)
    out = benchmark.pedantic(gbdt.train_clients, ([x for x, _ in clients],
                                                  [y for _, y in clients], cfg, range(12)),
                             rounds=10)
    benchmark.extra_info["clients"] = len(clients)
    assert len(out) == 12 and all(len(e.trees) == T for e in out)


@pytest.mark.parametrize("how", ["train_clients", "lone-train"])
def test_gbdt_train_clients_L(benchmark, how):
    """Round 0 at ROADMAP L's shape: 265 clients of 336 rows, 10 trees of
    depth 3, about 40% of the clients with positives (the rest fall back to
    single leaves).  A level holds hundreds of nodes, searched in
    `_HIST_ENTRIES` node blocks on their own rows.  Timed as one
    `train_clients` call, and as one `gbdt.train` call per client for
    comparison."""
    rng = np.random.default_rng(3)
    clients = []
    for _ in range(265):
        x, y = _count_rows(rng, 336)
        clients.append((x, y if rng.random() < 0.4 else np.zeros_like(y)))
    cfg = gbdt.GbdtConfig(trees_per_client=T, max_depth=3)
    xs, ys = [x for x, _ in clients], [y for _, y in clients]
    if how == "train_clients":
        out = benchmark.pedantic(gbdt.train_clients, (xs, ys, cfg, range(265)), rounds=3)
    else:
        out = benchmark.pedantic(
            lambda: [gbdt.train(x, y, cfg, client=c) for c, (x, y) in enumerate(clients)],
            rounds=3)
    benchmark.extra_info["clients_with_positives"] = sum(bool(y.any()) for y in ys)
    assert len(out) == 265 and all(len(e.trees) == T for e in out)


def test_gbdt_predict_margin_batch(benchmark, dense_pulsed_fit):
    """Tree apply: 20 trees of depth 3 over one vehicle's 600 rows."""
    x, y, cfg = dense_pulsed_fit
    ens = gbdt.train(x[:2000], y[:2000], cfg)
    out = benchmark(gbdt.predict_margin_batch, ens, x[:600])
    assert out.shape == (600,)


def test_gbdt_per_tree_output_matrix(benchmark):
    """Tree apply for the head: a compiled forest of K=12 clients x 10 trees
    over 600 rows (fed-s shape)."""
    rng = np.random.default_rng(1)
    ensembles = []
    for cid in range(12):
        x, y = _count_rows(rng, 500)
        ensembles.append(gbdt.train(x, y, gbdt.GbdtConfig(trees_per_client=T), client=cid))
    probe, _ = _count_rows(rng, 600)
    out = benchmark(gbdt.per_tree_output_matrix, gbdt.compile_forest(ensembles), probe)
    assert out.shape == (600, 12 * T)


def test_generate(benchmark):
    """Scenario generation at the central-l shape, ending in one event sort."""
    events, truth = benchmark.pedantic(scenario.generate, (CENTRAL_L,), rounds=5)
    benchmark.extra_info["events"] = len(events)
    assert len(events) > 0 and truth.attackers


@pytest.fixture(scope="module")
def central_l():
    """The central-l workload's events and ground truth at seed 1."""
    return scenario.generate(CENTRAL_L)


@pytest.mark.parametrize("annotated", [True, False], ids=["annotated", "plain"])
def test_write_events_csv(benchmark, tmp_path, central_l, annotated):
    """The event-log CSV at the central-l shape; float repr of the times is
    most of it.  The events are written in `parts`, all but the first
    formatted by forked workers, so the largest `ru_maxrss` of any child
    reaped so far is recorded (`workers_maxrss_mb`, pages shared with this
    process included; 0.0 with one part)."""
    events, truth = central_l
    path = tmp_path / "events.csv"
    benchmark.pedantic(scenario.write_events_csv, (path, events, truth if annotated else None),
                       rounds=5)
    benchmark.extra_info["bytes"] = path.stat().st_size
    benchmark.extra_info["parts"] = len(scenario._write_parts(len(events), scenario._cores()))
    benchmark.extra_info["workers_maxrss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
    assert path.stat().st_size > 0


@pytest.fixture(scope="module")
def central_l_csv(tmp_path_factory, central_l):
    """The central-l workload's annotated event log."""
    path = tmp_path_factory.mktemp("central_l") / "events.csv"
    scenario.write_events_csv(path, *central_l)
    return path


@pytest.mark.parametrize("given", [True, False], ids=["truth", "annotations"])
def test_ingest(benchmark, central_l, central_l_csv, given):
    """The annotated central-l log read back, checked against its truth as
    `runner.load` reads it with a truth file, or with the truth rebuilt from
    the annotations.  Records one call's tracemalloc peak next to the parsed
    rows plus their column copies, in MB.  That peak is this process's only:
    the log is parsed in `parts`, all but the first in forked workers, so
    the largest `ru_maxrss` of any child reaped so far is recorded next to
    it (`workers_maxrss_mb`, pages shared with this process included; 0.0
    with one part)."""
    args = (central_l_csv, central_l[1] if given else None)
    events, _ = benchmark.pedantic(scenario.ingest, args, rounds=5)
    tracemalloc.start()
    try:
        scenario.ingest(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    start = len(central_l_csv.read_bytes().split(b"\n", 1)[0]) + 1
    benchmark.extra_info["events"] = len(events)
    benchmark.extra_info["id_dtype"] = str(events.senders.dtype)
    benchmark.extra_info["parts"] = len(scenario._parts(central_l_csv, start))
    benchmark.extra_info["workers_maxrss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
    benchmark.extra_info["peak_mb"] = peak / 1e6
    # 14 B parsed rows; the time and both ids copied out, and without a
    # truth the two flags.
    benchmark.extra_info["rows_and_copies_mb"] = len(events) * (
        14 + 8 + 2 * events.senders.itemsize + (0 if given else 2)) / 1e6
    assert len(events) == len(central_l[0])


def test_count_series(benchmark, central_l):
    """Every vehicle's per-second counts and lagged rows at the central-l
    shape, as the pipeline's features stage makes them: one
    `build_count_series` and one `windowize_arrays` call."""
    events, truth = central_l

    def features():
        return preprocess.windowize_arrays(preprocess.build_count_series(events, truth), truth)

    secs, x, _ = benchmark.pedantic(features, rounds=5)
    benchmark.extra_info["events"] = len(events)
    benchmark.extra_info["rows"] = len(secs)
    assert x.shape == (len(secs), preprocess.DEFAULT_LAGS)


def test_mnd_round(benchmark, central_l):
    """One MND round at the central-l shape: the first alert round's
    per-sender counts and every receiver's MAD band, one `interval_counts`
    and one `mnd.detect` call."""
    events, truth = central_l
    t0, t1 = runner.alert_rounds(truth)[0]
    round_events = events.between(t0, t1)
    detection = benchmark(lambda: mnd.detect(preprocess.interval_counts(round_events)))
    benchmark.extra_info["events"] = len(round_events)
    benchmark.extra_info["reporters"] = len(detection.reports)
    assert len(detection.suspected) > 0


@pytest.fixture(scope="module")
def dense_pulsed_rounds():
    """The dense-pulsed workload's MND rounds at seed 1, as `runner.mnd_reports`
    gives them, and its ground truth."""
    events, truth = scenario.generate(DENSE_PULSED)
    return runner.mnd_reports(events, truth, runner.alert_rounds(truth)), truth


@pytest.mark.parametrize("mode", ["local_mad", "fl_threshold"])
def test_mnd_aggregate(benchmark, dense_pulsed_rounds, mode):
    """MND scoring at the dense-pulsed shape: one `runner.mnd_aggregate` call
    over every round.  `local_mad` scores each report against the others
    present, one set per report; `fl_threshold` votes one list per round.
    Records the rounds and reports."""
    round_reports, truth = dense_pulsed_rounds
    _, _, confusion = benchmark(runner.mnd_aggregate, mode, 2, round_reports, truth)
    benchmark.extra_info["rounds"] = len(round_reports)
    benchmark.extra_info["reports"] = sum(len(reports) for _, reports in round_reports)
    assert confusion.total() > 0
