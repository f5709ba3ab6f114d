//! The three workloads, the closed pass loop, and the metrics each run
//! reports.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use copyright_bench::CopyrightBenchmark;
use freeset::{build_freeset, FreeSetBuild, FreeSetConfig, FreeVBuilder};
use verilogeval::Runner;

use crate::paper::{self, Models, Observations, PaperOutput, Scores, DEFAULT_SEED};
use crate::stats::{self, CpuBlocks};
use crate::trace::{Phase, Tracer};
use crate::traced::{self, Replays, TracedBench, TracedBuild, TracedPaper, TracedTrain};

/// End-to-end metrics: name and unit. Every run with tracing off reports
/// each of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("pass_s_p50", "s"),
    ("pass_s_tail", "s"),
    ("items_per_s", "1/s"),
    ("cpu_s_p50", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name and unit. Every traced run reports each of them,
/// summed over one traced set-up and one traced pass.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("gh_sim.universe.ms", "ms"),
    ("gh_sim.universe.files", "count"),
    ("gh_sim.fetch.wait_ms", "ms"),
    ("gh_sim.fetch.batches", "count"),
    ("gh_sim.fetch.max_in_flight", "count"),
    ("gh_sim.fetch.rate_limit_retries", "count"),
    ("curation.license.ms", "ms"),
    ("curation.license.in", "count"),
    ("curation.license.kept", "count"),
    ("curation.dedup.ms", "ms"),
    ("curation.dedup.in", "count"),
    ("curation.dedup.kept", "count"),
    ("curation.syntax.ms", "ms"),
    ("curation.syntax.in", "count"),
    ("curation.syntax.kept", "count"),
    ("curation.lint.ms", "ms"),
    ("curation.lint.in", "count"),
    ("curation.lint.kept", "count"),
    ("curation.copyright.ms", "ms"),
    ("curation.copyright.in", "count"),
    ("curation.copyright.kept", "count"),
    ("curation.session.push_ms", "ms"),
    ("curation.session.finish_ms", "ms"),
    ("curation.session.batches", "count"),
    ("curation.session.batch_us_p50", "us"),
    ("curation.dedup.exact_hits", "count"),
    ("curation.dedup.kept_hashes", "count"),
    ("curation.dedup.pushed_hashes", "count"),
    ("curation.oneshot.ms", "ms"),
    ("curation.stream_over_oneshot", "ratio"),
    ("textsim.shingle.ms", "ms"),
    ("textsim.shingles", "count"),
    ("textsim.minhash.ms", "ms"),
    ("textsim.signatures", "count"),
    ("verilog.parse.ms", "ms"),
    ("verilog.parse.ok", "count"),
    ("verilog.lint.ms", "ms"),
    ("verilog.sim.ms", "ms"),
    ("verilog.sim.runs", "count"),
    ("hwlm.train_base.ms", "ms"),
    ("hwlm.pretrain.ms", "ms"),
    ("hwlm.fit.ms", "ms"),
    ("hwlm.extend.ms", "ms"),
    ("hwlm.encode.ms", "ms"),
    ("hwlm.observe.ms", "ms"),
    ("hwlm.merge.ms", "ms"),
    ("hwlm.train_tokens", "count"),
    ("hwlm.contexts", "count"),
    ("hwlm.generated_tokens", "count"),
    ("verilogeval.generate.ms", "ms"),
    ("verilogeval.judge.ms", "ms"),
    ("verilogeval.candidates", "count"),
    ("verilogeval.parsed", "count"),
    ("verilogeval.lint_clean", "count"),
    ("verilogeval.correct", "count"),
    ("verilogeval.parse_rate", "ratio"),
    ("copyright.generate.ms", "ms"),
    ("copyright.score.ms", "ms"),
    ("copyright.prompts", "count"),
    ("copyright.violations", "count"),
    ("freeset.build.ms", "ms"),
    ("freeset.freev.ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.freev_drift", "count"),
];

/// Samples the tail percentile must leave above it.
const TAIL_BEYOND: usize = 10;

/// Passes a run makes even past its seconds, so the tail percentile exists.
pub const MIN_PASSES: usize = TAIL_BEYOND + 1;

const SELFCHECK_GOLDEN: &str = include_str!("../golden/selfcheck.txt");

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The whole paper path at paper scale, once per pass.
    PaperE2e,
    /// `build_freeset` alone at 1,000 repositories.
    CurateStream,
    /// Base and FreeV scored on VerilogEval and the copyright benchmark.
    EvalPair,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PaperE2e,
        Workload::CurateStream,
        Workload::EvalPair,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperE2e => "paper_e2e",
            Workload::CurateStream => "curate_stream",
            Workload::EvalPair => "eval_pair",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Repositories in the workload's universe.
    pub fn repos(self) -> usize {
        match self {
            Workload::PaperE2e | Workload::EvalPair => {
                freeset::ExperimentScale::paper_default().repo_count
            }
            Workload::CurateStream => 1000,
        }
    }

    /// Universes a run's passes cycle through. paper_e2e and curate_stream
    /// build a fresh universe in every pass, so each pass takes the next of
    /// sixteen; eval_pair scores the model pairs its set-ups trained.
    pub fn universes(self) -> usize {
        match self {
            Workload::PaperE2e | Workload::CurateStream => 16,
            Workload::EvalPair => SETUP_REPS,
        }
    }

    fn golden(self) -> &'static str {
        match self {
            Workload::PaperE2e => include_str!("../golden/paper_e2e.txt"),
            Workload::CurateStream => include_str!("../golden/curate_stream.txt"),
            Workload::EvalPair => include_str!("../golden/eval_pair.txt"),
        }
    }
}

/// One workload at one size and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Repositories in the universe.
    pub repos: usize,
    /// Universe seed.
    pub seed: u64,
}

impl Plan {
    /// The workload at its own size.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        Plan {
            workload,
            repos: workload.repos(),
            seed,
        }
    }

    /// The configuration of universe `u`, seeded `seed + u`. Medians over
    /// passes on several universes rest on many file mixes instead of one,
    /// whose cost swings by ±15 % with the seed.
    pub fn config(&self, u: usize) -> FreeSetConfig {
        paper::config(self.repos, self.seed.wrapping_add(u as u64))
    }

    /// Whether the pinned golden outputs describe this plan.
    fn has_golden(&self) -> bool {
        self.seed == DEFAULT_SEED && self.repos == self.workload.repos()
    }
}

/// Set-ups per run; `setup_s` is their median. eval_pair's set-up `r`
/// trains universe `r`'s model pair, so this is also the number of pairs.
pub const SETUP_REPS: usize = 5;

/// Block headers of the workload golden files: `universe <u>` before the
/// observations of a pass on universe `u`, `models <u>` before those of the
/// model pair eval_pair's set-up trains on it.
const BLOCK_HEADERS: [&str; 2] = ["universe ", "models "];

/// The block of a workload golden file that follows its `header` line.
fn golden_block(golden: &str, header: &str) -> String {
    golden
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !BLOCK_HEADERS.iter().any(|h| l.starts_with(h)))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The eval_pair models and benchmark, trained once in set-up.
#[derive(Debug)]
pub struct Pair {
    build: FreeSetBuild,
    models: Models,
    bench: CopyrightBenchmark,
}

/// What one set-up builds.
#[derive(Debug)]
pub struct Inputs {
    runner: Runner,
    pair: Option<Pair>,
}

/// Set-up number `rep`: eval_pair trains universe `rep`'s model pair. Every
/// set-up first runs the whole paper path on a small fixed universe and
/// compares it with pinned outputs, so a broken entry point shows before
/// anything is timed and every layer is warm. Returns the inputs, the
/// self-check's output, and the verdict on both: an error, or how many
/// [`paper::UNSTABLE`] lines drifted.
pub fn setup(plan: &Plan, rep: usize) -> (Inputs, PaperOutput, Result<usize, String>) {
    let runner = paper::runner();
    let selfcheck = paper::paper_path(
        &paper::config(paper::SELFCHECK_REPOS, DEFAULT_SEED),
        &runner,
    );
    let mut checked = paper::check_golden(&observe_paper(&selfcheck), SELFCHECK_GOLDEN)
        .map_err(|e| format!("self-check: {e}"));
    let pair = (plan.workload == Workload::EvalPair).then(|| {
        let build = build_freeset(&plan.config(rep));
        let model = FreeVBuilder::default().build(&build.scraped, &build.training_corpus());
        let bench = paper::copyright_benchmark(&build.scraped);
        Pair {
            build,
            models: Models::Built(model),
            bench,
        }
    });
    if let (Some(pair), true) = (&pair, plan.has_golden()) {
        let golden = golden_block(plan.workload.golden(), &format!("models {rep}"));
        checked = checked.and_then(|drifted| {
            paper::check_golden(&observe_pair(pair), &golden)
                .map(|d| drifted + d)
                .map_err(|e| format!("models {rep}: {e}"))
        });
    }
    (Inputs { runner, pair }, selfcheck, checked)
}

/// One pass's output. Only one is alive at a time, so the variants' sizes
/// do not matter.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Output {
    /// paper_e2e.
    Paper(PaperOutput),
    /// curate_stream.
    Build(FreeSetBuild),
    /// eval_pair: base then FreeV.
    Pair(Vec<Scores>),
}

/// One untraced pass on universe `universe` through the public entry points.
pub fn pass(plan: &Plan, universe: usize, setups: &[Inputs]) -> Output {
    let inputs = &setups[0];
    match plan.workload {
        Workload::PaperE2e => {
            Output::Paper(paper::paper_path(&plan.config(universe), &inputs.runner))
        }
        Workload::CurateStream => Output::Build(build_freeset(&plan.config(universe))),
        Workload::EvalPair => {
            let pair = setups[universe % setups.len()]
                .pair
                .as_ref()
                .expect("eval_pair set-up trains the pair");
            Output::Pair(vec![
                paper::score(
                    "base",
                    &inputs.runner,
                    &pair.bench,
                    &pair.models.quantized_base(),
                ),
                paper::score(
                    "freev",
                    &inputs.runner,
                    &pair.bench,
                    &pair.models.quantized_tuned(),
                ),
            ])
        }
    }
}

/// The observations the golden files pin for one run of the paper path.
fn observe_paper(out: &PaperOutput) -> Observations {
    let mut observed = Observations::new();
    paper::observe_build(&out.build, &mut observed);
    paper::observe_models(&out.models, &out.build, &mut observed);
    paper::observe_scores(&out.scores, &mut observed);
    observed
}

/// The observations the golden files pin for an eval_pair model pair.
fn observe_pair(pair: &Pair) -> Observations {
    let mut observed = Observations::new();
    paper::observe_models(&pair.models, &pair.build, &mut observed);
    observed
}

/// The observations the golden files pin for one pass.
pub fn observe(output: &Output) -> Observations {
    let mut observed = Observations::new();
    match output {
        Output::Paper(out) => return observe_paper(out),
        Output::Build(build) => paper::observe_build(build, &mut observed),
        Output::Pair(scores) => scores
            .iter()
            .for_each(|s| paper::observe_scores(s, &mut observed)),
    }
    observed
}

/// Checks a pass's output on universe `universe`: invariants at every seed,
/// golden values at the default seed. Returns how many [`paper::UNSTABLE`]
/// lines drifted.
pub fn verify(
    plan: &Plan,
    universe: usize,
    runner: &Runner,
    output: &Output,
) -> Result<usize, String> {
    match output {
        Output::Paper(out) => {
            paper::check_build(&out.build)?;
            paper::check_scores(&out.scores, runner)?;
        }
        Output::Build(build) => paper::check_build(build)?,
        Output::Pair(scores) => {
            for s in scores {
                paper::check_scores(s, runner)?;
            }
        }
    }
    if plan.has_golden() {
        paper::check_golden(
            &observe(output),
            &golden_block(plan.workload.golden(), &format!("universe {universe}")),
        )
    } else {
        Ok(0)
    }
}

/// [`verify`], plus the pass's units of work.
fn check_pass(
    plan: &Plan,
    universe: usize,
    runner: &Runner,
    output: &Output,
) -> Result<Checked, String> {
    Ok(Checked {
        drifted: verify(plan, universe, runner, output)?,
        items: items(output, runner),
    })
}

/// Units of work in one pass: scraped files entering curation for
/// paper_e2e and curate_stream, completions generated and scored for
/// eval_pair.
pub fn items(output: &Output, runner: &Runner) -> f64 {
    match output {
        Output::Paper(out) => out.build.scraped.len() as f64,
        Output::Build(build) => build.scraped.len() as f64,
        Output::Pair(scores) => scores.iter().map(|s| s.samples(runner)).sum::<usize>() as f64,
    }
}

/// The outcome of a closed loop of passes.
#[derive(Debug)]
pub struct PassLog<T> {
    /// Wall seconds less stolen time ([`stats::Timer`]) of each successful
    /// pass.
    pub walls: Vec<f64>,
    /// Plain wall seconds of each successful pass.
    pub raw_walls: Vec<f64>,
    /// Items per second of each successful pass.
    pub rates: Vec<f64>,
    /// CPU seconds of the successful passes.
    pub cpu: CpuBlocks,
    /// Passes attempted.
    pub attempted: usize,
    /// Passes that panicked or failed their check.
    pub failed: usize,
    /// Passes whose check reported drifted values.
    pub drifted: usize,
    /// The output of the last successful pass.
    pub last: Option<T>,
}

/// What checking one pass's output found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checked {
    /// Values that differ from their pinned golden in a known-unstable way.
    pub drifted: usize,
    /// Units of work the pass did.
    pub items: f64,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Runs `pass(i)` for `i = 0, 1, ...`, one at a time, until `seconds` have
/// passed and at least [`MIN_PASSES`] were attempted. Only `pass` is timed;
/// `check` runs after. A pass that panics or fails `check` is counted as
/// failed and the loop goes on.
pub fn run_passes<T>(
    seconds: f64,
    mut pass: impl FnMut(usize) -> T,
    mut check: impl FnMut(usize, &T) -> Result<Checked, String>,
) -> PassLog<T> {
    let mut log = PassLog {
        walls: Vec::new(),
        raw_walls: Vec::new(),
        rates: Vec::new(),
        cpu: CpuBlocks::default(),
        attempted: 0,
        failed: 0,
        drifted: 0,
        last: None,
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || log.attempted < MIN_PASSES {
        let index = log.attempted;
        log.attempted += 1;
        let cpu_before = stats::cpu_seconds();
        let timer = stats::Timer::start();
        let result = catch_unwind(AssertUnwindSafe(|| pass(index)));
        let (raw_wall, wall) = timer.stop();
        let cpu = stats::cpu_seconds() - cpu_before;
        let checked = result
            .map_err(|p| format!("pass panicked: {}", panic_message(p.as_ref())))
            .and_then(|out| {
                catch_unwind(AssertUnwindSafe(|| check(index, &out)))
                    .map_err(|p| format!("check panicked: {}", panic_message(p.as_ref())))?
                    .map(|checked| (out, checked))
            });
        match checked {
            Ok((out, checked)) => {
                log.drifted += usize::from(checked.drifted > 0);
                log.walls.push(wall);
                log.raw_walls.push(raw_wall);
                log.rates.push(checked.items / wall);
                log.cpu.add(wall, cpu);
                log.last = Some(out);
            }
            Err(e) => {
                log.failed += 1;
                eprintln!("pass {} failed: {e}", log.attempted);
            }
        }
    }
    log
}

/// A named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output checked and every traced rebuild identical.
    pub correct: bool,
    /// Passes attempted.
    pub attempted: usize,
    /// Passes failed.
    pub failed: usize,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result as one JSON line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metrics_from(
    table: &[(&'static str, &'static str)],
    value: impl Fn(&str) -> f64,
) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: value(name),
            unit,
        })
        .collect()
}

/// The tail sample with its percentile rank; with too few passes, the
/// slowest pass.
fn tail_of(walls: &[f64]) -> (f64, f64) {
    stats::tail(walls, TAIL_BEYOND)
        .unwrap_or_else(|| (walls.iter().copied().fold(0.0, f64::max), 100.0))
}

/// A run with tracing off: repeated set-up, then the closed pass loop.
pub fn measure(plan: &Plan, seconds: f64) -> RunResult {
    let mut setup_s = Vec::new();
    let mut setup_ok = Ok(0);
    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        let timer = stats::Timer::start();
        let (built, _selfcheck, checked) = setup(plan, rep);
        setup_s.push(timer.stop().1);
        setup_ok = setup_ok.and_then(|d| checked.map(|c| d + c));
        setups.push(built);
    }
    if let Err(e) = &setup_ok {
        eprintln!("set-up failed: {e}");
    }
    let universes = plan.workload.universes();
    let log = run_passes(
        seconds,
        |i| pass(plan, i % universes, &setups),
        |i, out| check_pass(plan, i % universes, &setups[0].runner, out),
    );
    let ok = !log.walls.is_empty();
    let p50 = if ok { stats::median(&log.walls) } else { 0.0 };
    let (tail, tail_pct) = tail_of(&log.walls);
    let cpu = log.cpu.median_per_pass().unwrap_or(0.0);
    let items_per_s = if ok { stats::median(&log.rates) } else { 0.0 };
    let peak = stats::peak_rss_mb();
    let setup_median = stats::median(&setup_s);
    let item_name = match plan.workload {
        Workload::EvalPair => "samples_per_s",
        _ => "files_per_s",
    };
    println!(
        "workload {} seed {} repos {} threads {}",
        plan.workload.name(),
        plan.seed,
        plan.repos,
        hwlm::parallel::default_workers()
    );
    let each: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!(
        "  setup_s      {setup_median:.4} s (median of {} set-ups: {})",
        setup_s.len(),
        each.join(" ")
    );
    println!(
        "  pass_s_p50   {p50:.4} s ({} passes; {:.4} s before excluding stolen time)",
        log.walls.len(),
        if ok {
            stats::median(&log.raw_walls)
        } else {
            0.0
        }
    );
    println!(
        "  pass_s_tail  {tail:.4} s (p{tail_pct:.0} of {} passes, {} beyond it)",
        log.walls.len(),
        log.walls.iter().filter(|w| **w > tail).count()
    );
    println!("  items_per_s  {items_per_s:.2} 1/s (as {item_name}, median over passes)");
    println!("  cpu_s_p50    {cpu:.4} s");
    println!("  peak_rss_mb  {peak:.1} MiB");
    println!(
        "  error_rate   {} ({} failed of {} attempted)",
        log.failed as f64 / log.attempted as f64,
        log.failed,
        log.attempted
    );
    report_drift(
        plan,
        setup_ok.as_ref().copied().unwrap_or(0),
        log.drifted,
        log.attempted,
    );
    let metrics = metrics_from(&END_TO_END, |name| match name {
        "setup_s" => setup_median,
        "pass_s_p50" => p50,
        "pass_s_tail" => tail,
        "items_per_s" => items_per_s,
        "cpu_s_p50" => cpu,
        "peak_rss_mb" => peak,
        _ => unreachable!("END_TO_END lists only these"),
    });
    RunResult {
        correct: setup_ok.is_ok() && log.failed == 0 && ok,
        attempted: log.attempted,
        failed: log.failed,
        metrics,
    }
}

fn report_drift(plan: &Plan, setup_lines: usize, passes: usize, attempted: usize) {
    let pinned = if plan.has_golden() {
        "set-up and passes"
    } else {
        "set-up"
    };
    println!(
        "  freev_drift  {setup_lines} self-check lines, {passes} of {attempted} passes differ from the pinned FreeV scores ({pinned} checked; FreeV sampling is not deterministic)"
    );
}

/// The eval_pair inputs, traced.
#[derive(Debug)]
struct TracedPair {
    build: TracedBuild,
    train: TracedTrain,
    bench: TracedBench,
}

/// [`setup`], traced.
#[derive(Debug)]
struct TracedInputs {
    selfcheck: TracedPaper,
    pair: Option<TracedPair>,
}

fn setup_traced(
    plan: &Plan,
    inputs: &Inputs,
    untraced_selfcheck: &PaperOutput,
    t: &mut Tracer,
) -> Result<(TracedInputs, usize), String> {
    let selfcheck = traced::paper_path(
        &paper::config(paper::SELFCHECK_REPOS, DEFAULT_SEED),
        &inputs.runner,
        t,
    );
    let drifted = traced::same_paper(untraced_selfcheck, &selfcheck)?;
    let pair = match &inputs.pair {
        None => None,
        Some(untraced) => {
            let build = traced::build(&plan.config(0), t);
            traced::same_build(&untraced.build, &build)?;
            let train = traced::train(&build.scraped, build.training_corpus(), t);
            traced::same_models(&untraced.models, &train.models)?;
            let bench = traced::copyright_benchmark(&build.scraped, t);
            Some(TracedPair {
                build,
                train,
                bench,
            })
        }
    };
    Ok((TracedInputs { selfcheck, pair }, drifted))
}

/// A traced pass's output.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum TracedOutput {
    Paper(TracedPaper),
    Build(TracedBuild),
    Pair(Vec<Scores>),
}

fn pass_traced(
    plan: &Plan,
    inputs: &Inputs,
    traced_inputs: &TracedInputs,
    t: &mut Tracer,
) -> TracedOutput {
    match plan.workload {
        Workload::PaperE2e => {
            TracedOutput::Paper(traced::paper_path(&plan.config(0), &inputs.runner, t))
        }
        Workload::CurateStream => TracedOutput::Build(traced::build(&plan.config(0), t)),
        Workload::EvalPair => {
            let pair = traced_inputs
                .pair
                .as_ref()
                .expect("eval_pair set-up trains the pair");
            let models = &pair.train.models;
            TracedOutput::Pair(vec![
                traced::score(
                    "base",
                    &inputs.runner,
                    &pair.bench,
                    &models.quantized_base(),
                    t,
                ),
                traced::score(
                    "freev",
                    &inputs.runner,
                    &pair.bench,
                    &models.quantized_tuned(),
                    t,
                ),
            ])
        }
    }
}

fn same_output(untraced: &Output, traced_out: &TracedOutput) -> Result<usize, String> {
    match (untraced, traced_out) {
        (Output::Paper(u), TracedOutput::Paper(t)) => traced::same_paper(u, t),
        (Output::Build(u), TracedOutput::Build(t)) => traced::same_build(u, t).map(|()| 0),
        (Output::Pair(u), TracedOutput::Pair(t)) => traced::same_scores(u, t),
        _ => Err("traced pass ran a different workload".into()),
    }
}

/// Every traced build and training of a traced run, for the replays.
fn replay_inputs<'a>(
    inputs: &'a TracedInputs,
    output: &'a TracedOutput,
) -> (Vec<&'a TracedBuild>, Vec<&'a TracedTrain>) {
    let mut builds = vec![&inputs.selfcheck.build];
    let mut trains = vec![&inputs.selfcheck.train];
    if let Some(pair) = &inputs.pair {
        builds.push(&pair.build);
        trains.push(&pair.train);
    }
    match output {
        TracedOutput::Paper(p) => {
            builds.push(&p.build);
            trains.push(&p.train);
        }
        TracedOutput::Build(b) => builds.push(b),
        TracedOutput::Pair(_) => {}
    }
    (builds, trains)
}

/// Where a traced run writes its spans.
pub fn spans_path(plan: &Plan) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.json", plan.workload.name(), plan.seed))
}

/// Per-layer metric values from a traced run.
/// What the traced run measured beyond the tracer and the replays.
struct TracedRun {
    replays: Replays,
    traced_ms: f64,
    overhead_ms: f64,
    coverage: f64,
    freev_drift: usize,
}

fn layer_value(name: &str, t: &Tracer, run: &TracedRun) -> f64 {
    let r = &run.replays;
    let push_ms = t.total_ms("curation.session.push");
    let finish_ms = t.total_ms("curation.session.finish");
    match name {
        "gh_sim.fetch.wait_ms" => t.total_ms("gh_sim.fetch.wait"),
        "curation.session.push_ms" => push_ms,
        "curation.session.finish_ms" => finish_ms,
        "curation.session.batches" => t.durations_ms("curation.session.push").len() as f64,
        "curation.session.batch_us_p50" => {
            stats::median(&t.durations_ms("curation.session.push")) * 1e3
        }
        "curation.oneshot.ms" => r.oneshot_ms,
        "curation.stream_over_oneshot" => (push_ms + finish_ms) / r.oneshot_ms,
        "textsim.shingle.ms" => r.shingle_ms,
        "textsim.shingles" => r.shingles,
        "textsim.minhash.ms" => r.minhash_ms,
        "textsim.signatures" => r.signatures,
        "hwlm.fit.ms" => r.fit_ms,
        "hwlm.extend.ms" => r.extend_ms,
        "hwlm.encode.ms" => r.encode_ms,
        "hwlm.observe.ms" => r.observe_ms,
        "hwlm.merge.ms" => r.merge_ms,
        "hwlm.train_tokens" => r.train_tokens,
        "verilogeval.parse_rate" => {
            t.counter("verilogeval.parsed") / t.counter("verilogeval.candidates")
        }
        "trace.overhead_ms" => run.overhead_ms,
        "trace.coverage" => run.coverage,
        "trace.freev_drift" => run.freev_drift as f64,
        _ => match name.strip_suffix(".ms") {
            Some(span) => t.total_ms(span),
            None => t.counter(name),
        },
    }
}

/// A traced run on the first universe: untraced set-up and passes for the
/// reference output and `pass_s_p50`, then one traced set-up and one traced
/// pass, each checked identical to its untraced counterpart, then the
/// serial replays.
pub fn trace(plan: &Plan, seconds: f64) -> RunResult {
    let (inputs, untraced_selfcheck, setup_ok) = setup(plan, 0);
    if let Err(e) = &setup_ok {
        eprintln!("set-up failed: {e}");
    }
    let setups = std::slice::from_ref(&inputs);
    let log = run_passes(
        seconds,
        |_| pass(plan, 0, setups),
        |_, out| check_pass(plan, 0, &inputs.runner, out),
    );
    // Both sides of the overhead exclude stolen time (see `stats::Timer`).
    let untraced_ms = if log.walls.is_empty() {
        0.0
    } else {
        stats::median(&log.walls) * 1e3
    };
    let mut tracer = Tracer::new();
    let traced = catch_unwind(AssertUnwindSafe(|| -> Result<TracedRun, String> {
        let reference = log.last.as_ref().ok_or("no untraced pass succeeded")?;
        let (traced_inputs, setup_drift) =
            setup_traced(plan, &inputs, &untraced_selfcheck, &mut tracer)?;
        tracer.set_phase(Phase::Pass);
        let timer = stats::Timer::start();
        let output = pass_traced(plan, &inputs, &traced_inputs, &mut tracer);
        let (raw_s, own_s) = timer.stop();
        let traced_ms = own_s * 1e3;
        let pass_drift = same_output(reference, &output)?;
        let (builds, trains) = replay_inputs(&traced_inputs, &output);
        Ok(TracedRun {
            replays: traced::replay(&builds, &trains)?,
            traced_ms,
            overhead_ms: traced_ms - untraced_ms,
            coverage: tracer.top_level_ms(Phase::Pass) / (raw_s * 1e3),
            freev_drift: setup_drift + pass_drift,
        })
    }))
    .map_err(|p| format!("traced run panicked: {}", panic_message(p.as_ref())))
    .and_then(|r| r);
    println!(
        "workload {} seed {} repos {} (traced)",
        plan.workload.name(),
        plan.seed,
        plan.repos
    );
    report_drift(
        plan,
        setup_ok.as_ref().copied().unwrap_or(0),
        log.drifted,
        log.attempted,
    );
    for phase in [Phase::Setup, Phase::Pass] {
        println!("  self time by layer, traced {}:", phase.name());
        for (layer, ms) in tracer.self_ms_by_layer(phase) {
            println!("    {layer:<12} {ms:>10.2} ms");
        }
    }
    let spans = spans_path(plan);
    match tracer.write_json(&spans) {
        Ok(()) => println!("  spans written to {}", spans.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", spans.display()),
    }
    let metrics = match &traced {
        Ok(run) => {
            println!(
                "  top-level spans cover {:.1} % of the traced pass",
                100.0 * run.coverage
            );
            println!(
                "  tracing overhead {:.2} ms (traced pass {:.2} ms - untraced pass_s_p50 {untraced_ms:.2} ms)",
                run.overhead_ms, run.traced_ms
            );
            metrics_from(&PER_LAYER, |name| layer_value(name, &tracer, run))
        }
        Err(e) => {
            eprintln!("traced run failed: {e}");
            metrics_from(&PER_LAYER, |_| 0.0)
        }
    };
    for m in &metrics {
        println!("  {:<34} {:>14.3} {}", m.name, m.value, m.unit);
    }
    RunResult {
        correct: setup_ok.is_ok() && log.failed == 0 && traced.is_ok(),
        attempted: log.attempted + 1,
        failed: log.failed + usize::from(traced.is_err()),
        metrics,
    }
}

/// The golden-file text for `plan`'s self-check and one pass per universe.
pub fn golden_text(plan: &Plan) -> (String, String) {
    let mut selfcheck = Observations::new();
    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        let (inputs, output, _) = setup(plan, rep);
        if rep == 0 {
            selfcheck = observe_paper(&output);
        }
        setups.push(inputs);
    }
    let mut passes = String::new();
    for (rep, inputs) in setups.iter().enumerate() {
        if let Some(pair) = &inputs.pair {
            passes.push_str(&format!("models {rep}\n"));
            passes.push_str(&paper::render(&observe_pair(pair)));
        }
    }
    for universe in 0..plan.workload.universes() {
        passes.push_str(&format!("universe {universe}\n"));
        passes.push_str(&paper::render(&observe(&pass(plan, universe, &setups))));
    }
    (paper::render(&selfcheck), passes)
}
