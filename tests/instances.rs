//! The shipped `.rtlb` instance files parse, analyze, and (for the paper
//! instance) reproduce the published numbers.

use rtlb::core::{analyze, dedicated_cost_bound, SystemModel};

fn load(name: &str) -> rtlb::format::ParsedSystem {
    let path = format!("{}/examples/instances/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    rtlb::format::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn paper_fig7_instance_file_reproduces_bounds() {
    let parsed = load("paper_fig7.rtlb");
    let analysis = analyze(&parsed.graph, &SystemModel::shared()).unwrap();
    let lookup = |n: &str| parsed.graph.catalog().lookup(n).unwrap();
    assert_eq!(analysis.units_required(lookup("P1")), 3);
    assert_eq!(analysis.units_required(lookup("P2")), 2);
    assert_eq!(analysis.units_required(lookup("r1")), 2);
    assert!(parsed.shared_costs.is_some());
    assert!(parsed.node_types.is_some());
}

#[test]
fn sensor_fusion_instance_file_analyzes() {
    let parsed = load("sensor_fusion.rtlb");
    let analysis = analyze(&parsed.graph, &SystemModel::shared()).unwrap();
    for b in analysis.bounds() {
        assert!(
            b.bound >= 1,
            "every demanded resource needs at least one unit"
        );
    }
    let model = parsed.node_types.unwrap();
    let cost = dedicated_cost_bound(&parsed.graph, &model, analysis.bounds()).unwrap();
    assert!(cost.total > 0);
}
