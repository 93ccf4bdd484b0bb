//! E2 — regenerates the paper's Step 2: the Figure 4 partitions of
//! `ST_P1`, `ST_P2` and `ST_r1`, diffed against the published chains.
//!
//! ```sh
//! cargo run -p rtlb-bench --bin step2_partitions
//! ```

use rtlb_core::{analyze, SystemModel};
use rtlb_workloads::paper_example;

const PAPER: [(&str, &[&[usize]]); 3] = [
    (
        "P1",
        &[&[1, 2, 3, 4, 5], &[9], &[10, 11, 13, 14], &[12, 15]],
    ),
    ("P2", &[&[6, 7], &[8]]),
    ("r1", &[&[1, 2], &[5], &[10, 13, 14], &[15]]),
];

fn main() {
    let ex = paper_example();
    let analysis = analyze(&ex.graph, &SystemModel::shared()).expect("feasible");

    println!("E2: Step 2 partitions (Figure 4 on the Figure 7 instance)\n");
    let mut all_match = true;
    for (name, paper_blocks) in PAPER {
        let r = ex.graph.catalog().lookup(name).expect("resource exists");
        let partition = analysis
            .partitions()
            .iter()
            .find(|p| p.resource == r)
            .expect("partition computed");
        let ours: Vec<Vec<usize>> = partition
            .blocks()
            .map(|b| {
                let mut ns: Vec<usize> = b
                    .tasks
                    .iter()
                    .map(|&id| (1..=15).find(|&n| ex.task(n) == id).expect("known task"))
                    .collect();
                ns.sort_unstable();
                ns
            })
            .collect();
        let paper: Vec<Vec<usize>> = paper_blocks.iter().map(|b| b.to_vec()).collect();
        let ok = ours == paper;
        all_match &= ok;

        let fmt = |blocks: &[Vec<usize>]| {
            blocks
                .iter()
                .map(|b| {
                    format!(
                        "{{{}}}",
                        b.iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(",")
                    )
                })
                .collect::<Vec<_>>()
                .join(" < ")
        };
        println!("ST_{name}:");
        println!("  ours : {}", fmt(&ours));
        println!("  paper: {}", fmt(&paper));
        println!("  match: {}\n", if ok { "yes" } else { "NO" });
    }
    println!(
        "Overall: {}",
        if all_match {
            "all three partitions match the paper exactly."
        } else {
            "MISMATCH — see above."
        }
    );
}
