"""T3 — section 2.1: "When resources are remote, access cost is higher, but
dramatically better than traditional layered file transfer and remote
terminal protocols permit."

A client touches k pages of a 50-page remote file.  LOCUS pages across just
what is touched; the layered baseline stages the whole file through an
ISO-style protocol stack first.  The shape to reproduce: LOCUS wins hugely
for sparse access and stays ahead even when the entire file is read.

The shape is asserted under the paper's one-page readahead
(``readahead_max=1``).  The default adaptive readahead makes the 50-page
sequential read several times faster, so the advantage there grows again
instead of shrinking; those rows are printed beside the paper's.
"""

import pytest

from repro import LocusCluster
from repro.baselines.layered import LayeredTransferService
from repro.config import CostModel
from _harness import print_table, run_experiment

FILE_PAGES = 50
PAPER_COST = CostModel().with_overrides(readahead_max=1)


def _rows(cost):
    cluster = LocusCluster(n_sites=2, seed=5, cost=cost)
    service = LayeredTransferService(cluster)
    psz = cluster.config.cost.page_size
    sh1 = cluster.shell(1)
    sh1.write_file("/big", b"B" * (FILE_PAGES * psz))
    cluster.settle()
    gfile = (0, sh1.stat("/big")["ino"])
    sh0 = cluster.shell(0)

    rows = []
    for touched in (1, 5, 10, 25, 50):
        pages = list(range(0, FILE_PAGES, FILE_PAGES // touched))[:touched]
        # LOCUS: open remotely, read just the touched pages.
        cluster.site(0).cache.invalidate_file(*gfile)
        t0 = cluster.sim.now
        fd = sh0.open("/big")
        for p in pages:
            sh0.pread(fd, p * psz, psz)
        sh0.close(fd)
        locus_time = cluster.sim.now - t0
        # Layered: stage whole file, touch locally.
        t1 = cluster.sim.now
        cluster.call(0, service.remote_session(0, 1, gfile,
                                               touch_pages=pages))
        layered_time = cluster.sim.now - t1
        rows.append([touched, locus_time, layered_time,
                     layered_time / locus_time])
    return rows


def _experiment():
    return {"rows": _rows(PAPER_COST), "default_rows": _rows(None)}


@pytest.mark.benchmark(group="T3")
def test_t3_locus_vs_layered_transfer(benchmark):
    out = run_experiment(benchmark, _experiment)
    headers = ["pages touched", "LOCUS vtime", "layered vtime",
               "layered/LOCUS"]
    print_table(
        f"T3: remote access, LOCUS paging vs layered whole-file transfer "
        f"({FILE_PAGES}-page file, one-page readahead)",
        headers, out["rows"])
    print_table("T3 (default adaptive readahead, not asserted)",
                headers, out["default_rows"])
    ratios = {row[0]: row[3] for row in out["rows"]}
    # Sparse access: dramatic advantage.
    assert ratios[1] > 10.0, ratios
    # Whole-file read: LOCUS still ahead (no layer stack, no staging copy).
    assert ratios[50] > 1.0, ratios
    # The advantage shrinks monotonically as more of the file is touched.
    touched = [row[0] for row in out["rows"]]
    rs = [row[3] for row in out["rows"]]
    assert all(a >= b for a, b in zip(rs, rs[1:])), rs
