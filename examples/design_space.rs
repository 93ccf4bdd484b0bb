//! Design-space exploration with the dedicated model — the use-case the
//! paper's conclusion highlights: "a designer can modify the set of
//! resources dedicated to a processor and quickly estimate its effect on
//! the overall system cost".
//!
//! Runs the paper's 15-task example against several node-type catalogs
//! and prints the cost lower bound (integer program + LP relaxation) for
//! each, showing how bundling choices move the bound.
//!
//! ```sh
//! cargo run --example design_space
//! ```

use rtlb::core::{
    analyze, dedicated_cost_bound, render_dedicated_cost, DedicatedModel, NodeType, SystemModel,
};
use rtlb::workloads::paper_example;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ex = paper_example();
    let analysis = analyze(&ex.graph, &SystemModel::shared())?;

    println!(
        "Paper example resource bounds: LB_P1 = {}, LB_P2 = {}, LB_r1 = {}\n",
        analysis.units_required(ex.p1),
        analysis.units_required(ex.p2),
        analysis.units_required(ex.r1),
    );

    // Candidate node-type catalogs (name, node types). Costs: a P1
    // processor board is 30, P2 is 45, an r1 device adds 20, and bundling
    // saves 5 on integration.
    let catalogs: Vec<(&str, DedicatedModel)> = vec![
        (
            "paper catalog: {P1,r1}, {P1}, {P2}",
            DedicatedModel::new(vec![
                NodeType::new("N1{P1,r1}", ex.p1, [ex.r1], 45),
                NodeType::new("N2{P1}", ex.p1, [], 30),
                NodeType::new("N3{P2}", ex.p2, [], 45),
            ]),
        ),
        (
            "everything bundled: {P1,r1}, {P2}",
            DedicatedModel::new(vec![
                NodeType::new("N1{P1,r1}", ex.p1, [ex.r1], 45),
                NodeType::new("N3{P2}", ex.p2, [], 45),
            ]),
        ),
        (
            "gold-plated single P1 node type at a premium",
            DedicatedModel::new(vec![
                NodeType::new("N1{P1,r1}", ex.p1, [ex.r1], 70),
                NodeType::new("N3{P2}", ex.p2, [], 45),
            ]),
        ),
        (
            "cheap bare boards plus a few bundles",
            DedicatedModel::new(vec![
                NodeType::new("N1{P1,r1}", ex.p1, [ex.r1], 60),
                NodeType::new("N2{P1}", ex.p1, [], 20),
                NodeType::new("N3{P2}", ex.p2, [], 35),
            ]),
        ),
    ];

    let mut best: Option<(i64, &str)> = None;
    for (label, model) in &catalogs {
        let cost = dedicated_cost_bound(&ex.graph, model, analysis.bounds())?;
        println!("-- {label}");
        print!("   {}", render_dedicated_cost(model, &cost));
        // Shadow prices tell the designer which bound drives the cost.
        let drivers: Vec<String> = cost
            .coverage_shadow_prices
            .iter()
            .filter(|(_, p)| p.is_positive())
            .map(|&(r, p)| format!("{} (+{p}/unit)", ex.graph.catalog().name(r)))
            .collect();
        if !drivers.is_empty() {
            println!("   cost drivers: {}", drivers.join(", "));
        }
        if best.is_none_or(|(c, _)| cost.total < c) {
            best = Some((cost.total, label));
        }
    }

    let (cost, label) = best.expect("catalogs non-empty");
    println!("\nCheapest catalog by lower bound: {label} (>= {cost}).");
    println!(
        "The bound prunes the search: catalogs whose *lower* bound already\n\
         exceeds another catalog's achievable cost can be discarded without\n\
         ever running a scheduler."
    );
    Ok(())
}
