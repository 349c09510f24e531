//! Battery-runtime scenario: simulate a battery-powered device running
//! Transformer inference continuously ("dancing along the battery"),
//! comparing no reconfiguration, DVFS only, and DVFS + RT3 software
//! reconfiguration — the paper's Table II story as a runnable program.
//!
//! Run with `cargo run --example battery_runtime`.

use rt3::core::{run_level1, run_motivation_experiment, AccuracyEvaluator, CandidateMasks};
use rt3::core::{PruningSpec, Rt3Config, SurrogateEvaluator, TaskProfile};
use rt3::hardware::{number_of_runs, PowerModel};
use rt3::transformer::{TransformerConfig, TransformerLm};

fn main() {
    let mut config = Rt3Config::wikitext_default();
    config.timing_constraint_ms = 115.0;
    config.energy_budget_j = 50_000.0;
    let latency_model = config.latency_model();
    let latency = |s: f64, level| latency_model.base_latency_ms(s, level);
    let power = PowerModel::cortex_a7();
    let governor = &config.governor;
    let top = *governor.levels().last().expect("levels");

    // Level-1 pruned model M1: just meets the deadline at the top level.
    let model = TransformerLm::new(TransformerConfig::paper_transformer(512), 7);
    let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
    let backbone = run_level1(&model, &config, &mut evaluator);
    let base_sparsity = backbone.sparsity.max(0.55);

    println!("timing constraint: {} ms", config.timing_constraint_ms);
    println!(
        "M1 (sparsity {:.0}%): latency at l6 = {:.1} ms",
        100.0 * base_sparsity,
        latency(base_sparsity, &top)
    );

    // E1: no reconfiguration; E2: DVFS only (same model everywhere); E3:
    // DVFS + per-level sparsity chosen so every level meets the deadline.
    let per_level_sparsity = [0.87, 0.74, base_sparsity];
    let rows = run_motivation_experiment(&config, base_sparsity, &per_level_sparsity);

    println!();
    println!("approach   runs        deadline-met   improvement");
    for row in &rows {
        println!(
            "{:<10} {:<11} {:<14} {:.2}x",
            row.approach, row.report.runs, row.report.constraint_satisfied, row.improvement
        );
    }

    // accuracy paid by E3's sparser low-frequency models
    println!();
    println!("accuracy per E3 sub-model (surrogate):");
    for (level, s) in governor.levels().iter().zip(per_level_sparsity) {
        let acc = evaluator.evaluate(
            CandidateMasks::ready(&rt3::transformer::MaskSet::new()),
            &PruningSpec {
                sparsity: s,
                level1_guided: true,
                level2: Some(true),
            },
        );
        println!(
            "  l{} ({} MHz): sparsity {:.0}% -> accuracy {:.2}%, energy/inference {:.3} J",
            level.index,
            level.frequency_mhz,
            100.0 * s,
            100.0 * acc,
            power.energy_per_inference_j(level, latency(s, level))
        );
    }
    let energy_best = power.energy_per_inference_j(&top, latency(base_sparsity, &top));
    println!(
        "\nfor reference, a full battery ({} J) would fit {} F-mode inferences",
        config.energy_budget_j,
        number_of_runs(config.energy_budget_j, energy_best)
    );
}
