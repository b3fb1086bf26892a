from dataclasses import replace

import pytest

from socsim.harness import desk_sim_config
from socsim.sdna import iter_snapshots


@pytest.fixture(scope="session")
def hub_snapshot():
    """Sixth snapshot of the desk profile grown to n=800, with t scaled so a
    round adds the desk mean degree: 5 920 edges, a hub of degree 579 and
    44 nodes of degree 2 or less (the graphs the simulator's kernels see)."""
    desk = desk_sim_config(7000)
    cfg = replace(desk, n=800, t=desk.t * (desk.n - 1) / 799)
    *_, (graph, _) = iter_snapshots(cfg, 6)
    return graph
