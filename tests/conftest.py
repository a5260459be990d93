import contextlib
import dataclasses
import os

import numpy as np
import pytest

from advent import _fork, scenario


def weights_close(a, b, **kw) -> bool:
    """Whether two HeadWeights agree field by field under np.allclose."""
    return all(np.allclose(getattr(a, f.name), getattr(b, f.name), **kw)
               for f in dataclasses.fields(a))


def spy_fork_maps(monkeypatch) -> list[list[int]]:
    """Record the pids of the workers of every `_fork.fork_map` entered
    through the module from now on, one list per map."""
    maps = []
    fork_map = _fork.fork_map

    @contextlib.contextmanager
    def spy(*args):
        with fork_map(*args) as (first, workers):
            maps.append([worker.pid for worker in workers])
            yield first, workers

    monkeypatch.setattr(_fork, "fork_map", spy)
    return maps


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped.
    Ingest's parse workers, the CSV writer's and the head's draw producer
    are all children of `_fork.fork_map`, which must reap each of them."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process: "
                + (f"{pid} had ended, with status {status}" if pid else "one still runs"))


@pytest.fixture(scope="session")
def small_config():
    """Cheap scenario used by unit tests: 600 s, one attack window."""
    return scenario.ScenarioConfig(
        duration_s=600,
        total_vehicles=12,
        concurrent_range=(4, 8),
        arrival_interval_s=50,
        attacker_fraction=0.2,
        attack_count=1,
        attack_spacing_s=300,
        attack_duration_s=25,
        normal_rate_pps=1.0,
        flood_rate_pps=20.0,
        neighbor_degree=12,
        rng_seed=42,
    )


@pytest.fixture(scope="session")
def small_scenario(small_config):
    return scenario.generate(small_config)


@pytest.fixture(scope="session")
def small_scenario_dir(tmp_path_factory, small_scenario):
    events, truth = small_scenario
    d = tmp_path_factory.mktemp("small_scn")
    scenario.write_events_csv(d / "events.csv", events, truth)
    scenario.write_ground_truth(d / "truth.json", truth)
    return d
