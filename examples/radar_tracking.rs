//! The paper's motivating scenario: a surface-ship radar application
//! (detect → identify → track → assess → engage → launch per threat) with
//! the introduction's hard deadlines. Sweeps the number of simultaneous
//! threats and reports how the minimum platform grows.
//!
//! ```sh
//! cargo run --example radar_tracking
//! ```

use rtlb::core::{analyze, shared_cost_bound, SharedModel, SystemModel};
use rtlb::workloads::radar_scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Radar threat-response pipeline (times in ms, 1 tick = 1 ms)");
    println!(
        "{:>8} {:>6} {:>6} {:>6} {:>9} {:>10} {:>12}",
        "threats", "DSP", "GPP", "WCP", "antennas", "launchers", "min cost"
    );

    for threats in [1, 2, 4, 8, 16] {
        let scenario = radar_scenario(threats);
        let analysis = analyze(&scenario.graph, &SystemModel::shared())?;

        // Price the platform: DSPs are the expensive item, the antenna
        // array even more so.
        let pricing = SharedModel::new()
            .with_cost(scenario.dsp, 120)
            .with_cost(scenario.gpp, 60)
            .with_cost(scenario.wcp, 80)
            .with_cost(scenario.antenna, 400)
            .with_cost(scenario.launcher, 900);
        let cost = shared_cost_bound(&pricing, analysis.bounds())?;

        println!(
            "{:>8} {:>6} {:>6} {:>6} {:>9} {:>10} {:>12}",
            threats,
            analysis.units_required(scenario.dsp),
            analysis.units_required(scenario.gpp),
            analysis.units_required(scenario.wcp),
            analysis.units_required(scenario.antenna),
            analysis.units_required(scenario.launcher),
            cost.total,
        );
    }

    println!(
        "\nEach row is a *lower bound*: no scheduler, however clever, can run\n\
         that many simultaneous threats on less hardware and still meet the\n\
         0.2 s identification and 5 s engagement deadlines."
    );
    Ok(())
}
