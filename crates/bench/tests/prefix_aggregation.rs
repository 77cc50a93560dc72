//! Pins the sibling-merge count `ablation` prints for the AS1103-sized
//! table. `aggregate` visits merge candidates in a fixed order, so the
//! count is a property of the table, not of a hash map's iteration order.

use ca_ram_bench::bgp_config;
use ca_ram_bench::designs::next_hop_entries;
use ca_ram_cam::aggregate::aggregate;
use ca_ram_workloads::bgp::generate;

#[test]
fn as1103_table_aggregates_to_a_fixed_count() {
    let table = generate(&bgp_config(186_760, None));
    let entries = next_hop_entries(&table);
    assert_eq!(entries.len(), 186_760);
    let agg = aggregate(&entries);
    assert_eq!(agg.entries.len(), 167_235);
    assert_eq!(agg.removed, 186_760 - 167_235);
}
