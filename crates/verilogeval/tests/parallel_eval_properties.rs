//! Property-based tests over the order-stable parallel evaluation harness:
//! for *any* base seed and sampling budget, the parallel [`EvalReport`] must
//! be byte-identical to the serial one, and — because every (problem,
//! temperature) pair derives its own RNG stream from the problem's identity
//! rather than its position — per-problem results must be invariant under
//! reordering the suite.

use hwlm::parallel::ExecutionMode;
use hwlm::{AdaptedModel, ContinualPretrainConfig, NgramModel, QuantizedModel, TrainConfig};
use proptest::prelude::*;
use verilogeval::{EvalConfig, ProblemSuite, Runner};

/// A small model trained on the golden solutions of the truncated suite, so
/// its samples exercise real token distributions (not just the unseen-token
/// fallback path).
fn model(suite: &ProblemSuite) -> NgramModel {
    let corpus: Vec<String> = suite
        .problems()
        .iter()
        .map(|p| format!("{}{}\n", p.prompt(), p.golden_solution))
        .collect();
    NgramModel::train_named(
        "prop",
        &corpus,
        &TrainConfig {
            order: 8,
            ..Default::default()
        },
    )
}

fn config(seed: u64, samples: usize, execution: ExecutionMode) -> EvalConfig {
    EvalConfig {
        samples_per_problem: samples,
        ks: vec![1, samples.max(1)],
        temperatures: vec![0.2, 0.8],
        max_new_tokens: 60,
        lint_gate: true,
        seed,
        execution,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The tentpole invariant: parallelism is a wall-clock knob, not a
    /// semantics change. Any (seed, sampling budget) must produce the same
    /// report — per-problem counts, best temperature, pass@k rows — in both
    /// execution modes.
    #[test]
    fn parallel_report_is_byte_identical_to_serial(
        seed in any::<u64>(),
        samples in 1usize..4,
        problems in 2usize..7,
    ) {
        let suite = ProblemSuite::verilog_eval_human().truncated(problems);
        let model = model(&suite);
        let serial = Runner::new(suite.clone(), config(seed, samples, ExecutionMode::Serial))
            .evaluate(&model);
        let parallel = Runner::new(suite, config(seed, samples, ExecutionMode::Parallel))
            .evaluate(&model);
        prop_assert_eq!(&parallel, &serial, "reports diverged at seed {}", seed);
    }

    /// The determinism fix this harness was built around: a problem's result
    /// depends only on the base seed and the problem's own identity, so
    /// rotating the suite reorders the report's rows without changing any of
    /// them.
    #[test]
    fn per_problem_results_survive_suite_reordering(
        seed in any::<u64>(),
        samples in 1usize..3,
        rotation in 1usize..5,
    ) {
        let suite = ProblemSuite::verilog_eval_human().truncated(5);
        let model = model(&suite);
        let mut rotated_problems = suite.problems().to_vec();
        let split = rotation % rotated_problems.len();
        rotated_problems.rotate_left(split);
        let rotated = ProblemSuite::new(rotated_problems);

        let base = Runner::new(suite, config(seed, samples, ExecutionMode::Parallel))
            .evaluate(&model);
        let reordered = Runner::new(rotated, config(seed, samples, ExecutionMode::Parallel))
            .evaluate(&model);

        let mut base_rows = base.per_problem.clone();
        let mut reordered_rows = reordered.per_problem.clone();
        base_rows.sort_by(|a, b| a.id.cmp(&b.id));
        reordered_rows.sort_by(|a, b| a.id.cmp(&b.id));
        prop_assert_eq!(base_rows, reordered_rows, "rotation changed a problem's result");
        prop_assert_eq!(base.pass_at_k_percent, reordered.pass_at_k_percent);
    }
}

/// FreeV is an adapted model evaluated in 4-bit form. Its distributions mix
/// base and adapter weights; if the mix summed in an order that differs
/// between calls (a hash-map order, say), the rounding difference could
/// flip a quantisation level. Evaluating one adapted model repeatedly in
/// one process must give equal reports.
#[test]
fn evaluating_one_adapted_model_repeatedly_gives_equal_reports() {
    let suite = ProblemSuite::verilog_eval_human();
    let corpus: Vec<String> = suite
        .problems()
        .iter()
        .map(|p| format!("{}{}\n", p.prompt(), p.golden_solution))
        .chain(suite.problems().iter().map(|p| p.golden_solution.clone()))
        .collect();
    let tuned = AdaptedModel::continual_pretrain(
        "freev",
        model(&suite),
        &corpus,
        &ContinualPretrainConfig::default(),
    );
    let quantized = QuantizedModel::new(&tuned, 4);
    let runner = Runner::new(
        suite,
        EvalConfig {
            max_new_tokens: 200,
            ..config(0xF5EE, 10, ExecutionMode::Serial)
        },
    );
    let first = runner.evaluate(&quantized);
    for _ in 0..3 {
        assert_eq!(runner.evaluate(&quantized), first);
    }
}
