//! Quickstart: model a small application, run the full analysis, print
//! the paper-style report.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use rtlb::core::{
    analyze, render_analysis, render_shared_cost, shared_cost_bound, SharedModel, SystemModel,
};
use rtlb::graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Declare the processor and resource types of the platform.
    let mut catalog = Catalog::new();
    let cpu = catalog.processor("CPU");
    let dsp = catalog.processor("DSP");
    let camera = catalog.resource("camera");

    // 2. Describe the application: a small vision pipeline. Two capture
    //    tasks share a camera, feature extraction runs on DSPs, fusion
    //    and planning on CPUs, all against a 60-tick end-to-end deadline.
    let mut builder = TaskGraphBuilder::new(catalog);
    builder.default_deadline(Time::new(60));

    let cap_left = builder.add_task(
        TaskSpec::new("capture-left", Dur::new(8), dsp)
            .resource(camera)
            .deadline(Time::new(20)),
    )?;
    let cap_right = builder.add_task(
        TaskSpec::new("capture-right", Dur::new(8), dsp)
            .resource(camera)
            .deadline(Time::new(20)),
    )?;
    let feat_left = builder.add_task(TaskSpec::new("features-left", Dur::new(12), dsp))?;
    let feat_right = builder.add_task(TaskSpec::new("features-right", Dur::new(12), dsp))?;
    let fusion = builder.add_task(TaskSpec::new("fusion", Dur::new(10), cpu))?;
    let plan = builder.add_task(TaskSpec::new("plan", Dur::new(9), cpu).preemptive())?;

    builder.add_edge(cap_left, feat_left, Dur::new(2))?;
    builder.add_edge(cap_right, feat_right, Dur::new(2))?;
    builder.add_edge(feat_left, fusion, Dur::new(3))?;
    builder.add_edge(feat_right, fusion, Dur::new(3))?;
    builder.add_edge(fusion, plan, Dur::new(1))?;
    let graph = builder.build()?;

    // 3. Run the analysis for the shared model.
    let analysis = analyze(&graph, &SystemModel::shared())?;
    println!("{}", render_analysis(&graph, &analysis));

    // 4. Price the result: a DSP costs 40, a CPU 25, a camera 15.
    let pricing = SharedModel::new()
        .with_cost(dsp, 40)
        .with_cost(cpu, 25)
        .with_cost(camera, 15);
    let cost = shared_cost_bound(&pricing, analysis.bounds())?;
    println!("== Step 4: Cost ==");
    print!("{}", render_shared_cost(&graph, &cost));

    println!(
        "\nAny deployment of this pipeline needs at least {} DSP(s), {} CPU(s) \
         and {} camera(s).",
        analysis.units_required(dsp),
        analysis.units_required(cpu),
        analysis.units_required(camera),
    );
    Ok(())
}
