"""Table 1: the networks evaluated (node/link counts)."""

from repro.experiments.table1_topologies import format_table1, run_table1


def test_table1_topologies(benchmark):
    rows = benchmark(run_table1)
    print()
    print(format_table1(rows))
    by_name = {row.network: row for row in rows}
    # Paper's Table 1 counts.
    assert by_name["Abilene"].n_nodes == 11
    assert by_name["Abilene"].n_links == 28
    assert by_name["ISP-A"].n_nodes == 20
    assert by_name["ISP-B"].n_nodes == 52
    assert by_name["ISP-C"].n_nodes == 37
