//! The traced run: each entry point's work rebuilt from the public calls it
//! makes, with a span around every call into a layer, and serial replays of
//! the sub-phases that run inside a single call.
//!
//! Every rebuild is checked against the untraced entry point's output, so
//! the spans describe the same work the timed passes do.

use std::sync::Arc;
use std::time::Instant;

use copyright_bench::{CopyrightBenchmark, InfringementReport, PromptOutcome, SimilarityScorer};
use curation::{
    stage_names, CopyrightDetector, CopyrightStage, CurationConfig, CurationPipeline,
    CurationStage, DedupStage, DedupStream, ExecutionMode, FileBatch, FunnelStats, LicenseFilter,
    LicenseStage, LintStage, ParseCache, RejectedFile, StageOutcome, StageStream, StageStreaming,
    SyntaxStage,
};
use freeset::corpus::SCRAPE_API_BUDGET;
use freeset::{general_code_corpus, FreeSetBuild, FreeSetConfig, FreeVBuilder, ScrapedCorpus};
use gh_sim::{ExtractedFile, FetchConfig, FetchEngine, GithubApi, Universe};
use hwlm::parallel::{default_workers, derive_seed, partition_by_size, train_model_with_mode};
use hwlm::tokenizer::{BOS, UNK};
use hwlm::{AdaptedModel, HdlTokenizer, LanguageModel, NgramCounts, SamplerConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use verilog::{Linter, ParsedFile, Severity};
use verilogeval::{mean_pass_at_k, EvalReport, Problem, ProblemResult, Runner};

use crate::paper::{self, Models, PaperOutput, Scores};
use crate::trace::Tracer;

/// Report names `FreeVBuilder::build` gives its two models.
const BASE_NAME: &str = "Llama-3.1-8B-Instruct (sim)";
const TUNED_NAME: &str = "FreeV-Llama3.1 (sim)";

/// The FreeSet stages in pipeline order, with their span and counter names.
const STAGES: [(&str, &str, &str, &str); 5] = [
    (
        stage_names::LICENSE,
        "curation.license",
        "curation.license.in",
        "curation.license.kept",
    ),
    (
        stage_names::DEDUP,
        "curation.dedup",
        "curation.dedup.in",
        "curation.dedup.kept",
    ),
    (
        stage_names::SYNTAX,
        "curation.syntax",
        "curation.syntax.in",
        "curation.syntax.kept",
    ),
    (
        stage_names::LINT,
        "curation.lint",
        "curation.lint.in",
        "curation.lint.kept",
    ),
    (
        stage_names::COPYRIGHT,
        "curation.copyright",
        "curation.copyright.in",
        "curation.copyright.kept",
    ),
];
const DEDUP: usize = 1;

/// A traced `build_freeset`.
#[derive(Debug)]
pub struct TracedBuild {
    /// The configuration built from.
    pub config: FreeSetConfig,
    /// The scrape, as `FreeSetBuild::scraped` holds it.
    pub scraped: ScrapedCorpus,
    /// Files kept, in dataset order.
    pub kept: Vec<ExtractedFile>,
    /// The curation funnel.
    pub funnel: FunnelStats,
    /// Every rejection, in stage order.
    pub rejects: Vec<RejectedFile>,
}

impl TracedBuild {
    /// The kept files' contents (`FreeSetBuild::training_corpus`).
    pub fn training_corpus(&self) -> Vec<String> {
        self.kept.iter().map(|f| f.content.clone()).collect()
    }
}

#[derive(Default)]
struct Tally {
    surviving: usize,
    rejects: Vec<RejectedFile>,
}

/// A curation session over the public FreeSet stage types: the stateless
/// stages are applied per batch, de-duplication streams through a
/// `DedupStream` kept here so its statistics can be read.
struct Session {
    stages: Vec<Box<dyn CurationStage>>,
    dedup: DedupStream,
    tallies: Vec<Tally>,
    kept: Vec<ExtractedFile>,
    pushed: usize,
    mode: ExecutionMode,
}

impl Session {
    fn open(policy: &CurationConfig) -> Session {
        assert!(
            policy.check_repository_license
                && policy.max_file_chars.is_none()
                && policy.deduplicate
                && policy.check_syntax
                && policy.check_file_copyright
                && policy.dedup_spill.is_none(),
            "the traced session mirrors the FreeSet policy only"
        );
        let lint = policy.lint.clone().expect("the FreeSet policy lints");
        // Syntax and lint share a parse cache, as the pipeline wires them.
        let cache = Arc::new(ParseCache::new());
        let dedup_stage = DedupStage::new(policy.dedup);
        let stages: Vec<Box<dyn CurationStage>> = vec![
            Box::new(LicenseStage::new(LicenseFilter::paper_default())),
            Box::new(dedup_stage.clone()),
            Box::new(SyntaxStage::with_cache(Arc::clone(&cache))),
            Box::new(LintStage::with_cache(lint, cache)),
            Box::new(CopyrightStage::new(CopyrightDetector::new())),
        ];
        let names: Vec<String> = stages.iter().map(|s| s.name().to_string()).collect();
        assert_eq!(
            names,
            CurationPipeline::new(policy.clone()).stage_names(),
            "the traced stage list drifted from the pipeline's"
        );
        for (index, stage) in stages.iter().enumerate() {
            let stream = stage.open_stream().expect("FreeSet stages open without IO");
            assert!(
                matches!(
                    (index == DEDUP, stream),
                    (true, StageStreaming::Stateful(_)) | (false, StageStreaming::Stateless)
                ),
                "stage {index} streams differently from the traced session"
            );
        }
        // What `DedupStage::open_stream` builds for a resident policy.
        let dedup = DedupStream::new(dedup_stage.deduplicator().streaming());
        Session {
            stages,
            dedup,
            tallies: (0..STAGES.len()).map(|_| Tally::default()).collect(),
            kept: Vec::new(),
            pushed: 0,
            mode: ExecutionMode::default(),
        }
    }

    fn push(&mut self, files: Vec<ExtractedFile>, t: &mut Tracer) {
        self.pushed += files.len();
        let mut files = files;
        for (index, &(name, span, count_in, count_kept)) in STAGES.iter().enumerate() {
            let batch = FileBatch::new(files, self.mode);
            let stage = &self.stages[index];
            let dedup = &mut self.dedup;
            let mut outcome: StageOutcome = t.span(span, |_| {
                if index == DEDUP {
                    dedup
                        .push(batch)
                        .expect("a resident dedup stream does no IO")
                } else {
                    stage.apply(batch)
                }
            });
            for reject in &mut outcome.rejected {
                if reject.stage != name {
                    reject.stage = name.to_string();
                }
            }
            t.count(count_in, outcome.total() as f64);
            t.count(count_kept, outcome.kept.len() as f64);
            let tally = &mut self.tallies[index];
            tally.surviving += outcome.kept.len();
            tally.rejects.append(&mut outcome.rejected);
            files = outcome.kept;
        }
        self.kept.extend(files);
    }

    fn finish(self, t: &mut Tracer) -> (Vec<ExtractedFile>, FunnelStats, Vec<RejectedFile>) {
        let stats = self.dedup.engine().stats();
        t.count("curation.dedup.exact_hits", stats.exact_hits as f64);
        t.count("curation.dedup.kept_hashes", stats.kept_hashes as f64);
        t.count("curation.dedup.pushed_hashes", stats.pushed_hashes as f64);
        let mut funnel = FunnelStats::new(self.pushed);
        let mut rejects = Vec::new();
        for ((name, ..), mut tally) in STAGES.iter().zip(self.tallies) {
            let mut categories = std::collections::BTreeMap::new();
            for reject in &tally.rejects {
                if let Some(category) = &reject.category {
                    *categories.entry(category.clone()).or_insert(0usize) += 1;
                }
            }
            funnel.record_with_categories(name, tally.surviving, categories.into_iter().collect());
            rejects.append(&mut tally.rejects);
        }
        (self.kept, funnel, rejects)
    }
}

/// `build_freeset`, traced: universe generation, the streaming fetch with
/// each wait for a batch timed, and every stage push of the curation session.
pub fn build(config: &FreeSetConfig, t: &mut Tracer) -> TracedBuild {
    t.span("freeset.build", |t| {
        let universe = t.span("gh_sim.universe", |_| Universe::generate(&config.universe));
        t.count(
            "gh_sim.universe.files",
            universe.stats().verilog_files as f64,
        );
        let api = GithubApi::with_rate_limit(&universe, SCRAPE_API_BUDGET);
        let mut session = Session::open(&config.curation);
        let engine = FetchEngine::new(FetchConfig::default());
        let (raw_files, report) = t
            .span("gh_sim.fetch", |t| {
                engine.run_streaming(&api, config.scraper, |mut batches| {
                    let mut raw_files = Vec::new();
                    while let Some(batch) = t.span("gh_sim.fetch.wait", |_| batches.next()) {
                        t.count("gh_sim.fetch.batches", 1.0);
                        raw_files.extend(batch.files.iter().cloned());
                        t.span("curation.session.push", |t| session.push(batch.files, t));
                    }
                    raw_files
                })
            })
            .expect("simulated scrape cannot fail at supported scales");
        t.count(
            "gh_sim.fetch.rate_limit_retries",
            report.rate_limit_retries as f64,
        );
        t.peak("gh_sim.fetch.max_in_flight", report.max_in_flight as f64);
        let (kept, funnel, rejects) = t.span("curation.session.finish", |t| session.finish(t));
        TracedBuild {
            config: config.clone(),
            scraped: ScrapedCorpus {
                files: raw_files,
                universe_stats: universe.stats(),
                scrape_report: report,
            },
            kept,
            funnel,
            rejects,
        }
    })
}

/// Checks a traced build against `build_freeset`'s output.
pub fn same_build(untraced: &FreeSetBuild, traced: &TracedBuild) -> Result<(), String> {
    let dataset = &untraced.dataset;
    let same = untraced.scraped.files == traced.scraped.files
        && untraced.scraped.universe_stats == traced.scraped.universe_stats
        && dataset
            .files()
            .iter()
            .map(|f| &f.file)
            .eq(traced.kept.iter())
        && *dataset.funnel() == traced.funnel
        && dataset.rejects() == traced.rejects.as_slice();
    same.then_some(())
        .ok_or_else(|| "traced build differs from build_freeset".to_string())
}

/// A traced `FreeVBuilder::default().build`.
#[derive(Debug)]
pub struct TracedTrain {
    /// The builder's hyper-parameters.
    pub builder: FreeVBuilder,
    /// The base model's pre-training mix.
    pub base_corpus: Vec<String>,
    /// The FreeSet corpus FreeV is continually pre-trained on.
    pub freeset_corpus: Vec<String>,
    /// Base model and fine-tune.
    pub models: Models,
}

/// `FreeVBuilder::default().build`, traced: a span around each of the two
/// hwlm training calls.
pub fn train(scraped: &ScrapedCorpus, freeset_corpus: Vec<String>, t: &mut Tracer) -> TracedTrain {
    t.span("freeset.freev", |t| {
        let builder = FreeVBuilder::default();
        let mut base_corpus = general_code_corpus(builder.base_general_documents, builder.seed);
        base_corpus
            .extend(scraped.sample_fraction(builder.base_verilog_fraction, builder.seed ^ 0x5A5A));
        let base = t.span("hwlm.train_base", |_| {
            train_model_with_mode(
                BASE_NAME,
                &base_corpus,
                &builder.base_train,
                builder.execution,
            )
        });
        let base_copy = base.clone();
        let tuned = t.span("hwlm.pretrain", |_| {
            AdaptedModel::continual_pretrain_with_mode(
                TUNED_NAME,
                base_copy,
                &freeset_corpus,
                &builder.pretrain,
                builder.execution,
            )
        });
        t.count(
            "hwlm.contexts",
            (base.counts().context_count() + tuned.adapter_counts().context_count()) as f64,
        );
        TracedTrain {
            builder,
            base_corpus,
            freeset_corpus,
            models: Models::Traced(base, tuned),
        }
    })
}

/// Checks traced models against `FreeVBuilder::build`'s.
pub fn same_models(untraced: &Models, traced: &Models) -> Result<(), String> {
    (untraced.base() == traced.base() && untraced.tuned() == traced.tuned())
        .then_some(())
        .ok_or_else(|| "traced models differ from FreeVBuilder::build".to_string())
}

/// The copyright benchmark with a scorer the traced evaluation can call
/// (the benchmark's own scorer is private; this one is built from the same
/// reference set).
#[derive(Debug)]
pub struct TracedBench {
    /// The benchmark.
    pub bench: CopyrightBenchmark,
    /// A scorer over the benchmark's reference set.
    pub scorer: SimilarityScorer,
}

/// Builds the copyright benchmark from the scrape, traced.
pub fn copyright_benchmark(scraped: &ScrapedCorpus, t: &mut Tracer) -> TracedBench {
    t.span("copyright.reference", |_| {
        let bench = paper::copyright_benchmark(scraped);
        let scorer = SimilarityScorer::new(bench.reference());
        TracedBench { bench, scorer }
    })
}

/// `LanguageModel::generate_text`, returning the number of tokens generated.
fn generate<M: LanguageModel>(
    model: &M,
    prompt: &str,
    max_new_tokens: usize,
    sampler: &SamplerConfig,
    rng: &mut ChaCha8Rng,
) -> (String, usize) {
    let tokenizer = model.tokenizer();
    let stop = {
        let id = tokenizer.vocab().id("endmodule");
        (id != UNK).then_some(id)
    };
    let mut prompt_ids = vec![BOS];
    prompt_ids.extend(tokenizer.encode(prompt));
    let generated = model.generate_ids(&prompt_ids, max_new_tokens, sampler, rng, stop);
    (tokenizer.decode(&generated), generated.len())
}

/// The runner's per-problem sampling lane: FNV-1a over the problem id.
fn problem_lane(problem: &Problem) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in problem.id.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Judges one candidate source: parse, lint (behind the gate), simulate.
/// Returns `(functional, lint_clean)` as `Problem::judge_source` does.
fn judge(problem: &Problem, source: &str, lint_gate: bool, t: &mut Tracer) -> (bool, bool) {
    let Ok(parsed) = t.span("verilog.parse", |_| ParsedFile::parse(source)) else {
        return (false, false);
    };
    t.count("verilog.parse.ok", 1.0);
    t.count("verilogeval.parsed", 1.0);
    let lint_clean = lint_gate
        && t.span("verilog.lint", |_| {
            Linter::new()
                .lint_parsed(&parsed)
                .iter()
                .all(|d| d.severity < Severity::Error)
        });
    let functional = match parsed.first_module() {
        Some(module) => {
            t.count("verilog.sim.runs", 1.0);
            t.span("verilog.sim", |_| {
                matches!(problem.testbench.passes(module), Ok(true))
            })
        }
        None => false,
    };
    (functional, lint_clean)
}

/// `Runner::evaluate`, traced per candidate: generate, then parse, lint and
/// simulate. Jobs run one at a time, so spans never overlap.
pub fn evaluate<M: LanguageModel>(runner: &Runner, model: &M, t: &mut Tracer) -> EvalReport {
    t.span("verilogeval.evaluate", |t| {
        let config = runner.config();
        let problems = runner.suite().problems();
        let mut reports: Vec<EvalReport> = Vec::new();
        for (t_index, &temperature) in config.temperatures.iter().enumerate() {
            let sampler = SamplerConfig::with_temperature(temperature);
            let mut per_problem = Vec::new();
            for problem in problems {
                let seed = derive_seed(config.seed, problem_lane(problem), t_index as u64);
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let prompt = problem.prompt();
                // The runner parses each problem's golden solution per job.
                let _prepared = t.span("verilogeval.prepare", |_| problem.prepare());
                let mut result = ProblemResult {
                    id: problem.id.clone(),
                    samples: config.samples_per_problem,
                    correct: 0,
                    lint_clean: 0,
                    correct_lint_clean: 0,
                };
                for _ in 0..config.samples_per_problem {
                    let (completion, tokens) = t.span("verilogeval.generate", |_| {
                        generate(model, &prompt, config.max_new_tokens, &sampler, &mut rng)
                    });
                    t.count("hwlm.generated_tokens", tokens as f64);
                    t.count("verilogeval.candidates", 1.0);
                    let (functional, lint_clean) = t.span("verilogeval.judge", |t| {
                        judge(problem, &problem.assemble(&completion), config.lint_gate, t)
                    });
                    result.correct += usize::from(functional);
                    result.lint_clean += usize::from(lint_clean);
                    result.correct_lint_clean += usize::from(functional && lint_clean);
                }
                t.count("verilogeval.lint_clean", result.lint_clean as f64);
                t.count("verilogeval.correct", result.correct as f64);
                per_problem.push(result);
            }
            let pass_at = |select: fn(&ProblemResult) -> usize| -> Vec<(usize, f64)> {
                let nc: Vec<(usize, usize)> =
                    per_problem.iter().map(|r| (r.samples, select(r))).collect();
                config
                    .ks
                    .iter()
                    .map(|&k| (k, 100.0 * mean_pass_at_k(&nc, k)))
                    .collect()
            };
            reports.push(EvalReport {
                model: model.name().to_string(),
                best_temperature: temperature,
                pass_at_k_percent: pass_at(|r| r.correct),
                pass_at_k_lint_percent: if config.lint_gate {
                    pass_at(|r| r.correct_lint_clean)
                } else {
                    Vec::new()
                },
                per_problem,
            });
        }
        // The runner keeps the first temperature unless a later one has a
        // strictly higher pass@k at the largest k.
        let rank_k = *config
            .ks
            .iter()
            .max()
            .expect("the runner checks ks non-empty");
        let rank = |r: &EvalReport| r.pass_percent(rank_k).unwrap_or(0.0);
        reports
            .into_iter()
            .reduce(|best, next| {
                if rank(&next) > rank(&best) {
                    next
                } else {
                    best
                }
            })
            .expect("the runner checks temperatures non-empty")
    })
}

/// `CopyrightBenchmark::evaluate`, traced per prompt: generate, then score.
pub fn infringe<M: LanguageModel>(
    bench: &TracedBench,
    model: &M,
    t: &mut Tracer,
) -> InfringementReport {
    t.span("copyright.evaluate", |t| {
        let config = bench.bench.config();
        let sampler = SamplerConfig::with_temperature(config.temperature);
        let mut outcomes = Vec::new();
        for (p_index, prompt) in bench.bench.prompts().iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(config.seed, p_index as u64, 0));
            let (completion, tokens) = t.span("copyright.generate", |_| {
                generate(
                    model,
                    &prompt.text,
                    config.max_new_tokens,
                    &sampler,
                    &mut rng,
                )
            });
            t.count("hwlm.generated_tokens", tokens as f64);
            t.count("copyright.prompts", 1.0);
            let (max_similarity, matched_reference) = t.span("copyright.score", |_| {
                bench.scorer.max_similarity(&completion)
            });
            outcomes.push(PromptOutcome {
                reference_index: prompt.reference_index,
                max_similarity,
                matched_reference,
                violated: max_similarity >= config.similarity_threshold,
            });
        }
        let violations = outcomes.iter().filter(|o| o.violated).count();
        t.count("copyright.violations", violations as f64);
        InfringementReport {
            model: model.name().to_string(),
            prompts: outcomes.len(),
            violations,
            outcomes,
        }
    })
}

/// [`paper::score`], traced.
pub fn score<M: LanguageModel>(
    label: &'static str,
    runner: &Runner,
    bench: &TracedBench,
    model: &M,
    t: &mut Tracer,
) -> Scores {
    Scores {
        label,
        eval: evaluate(runner, model, t),
        infringement: infringe(bench, model, t),
    }
}

/// Checks traced scores against the untraced ones: exactly for the base
/// model; for FreeV the problems, sample counts and prompt count must match
/// and a difference in the sampled results is counted, not failed (see
/// [`paper::UNSTABLE`]). Returns how many FreeV score sets differ.
pub fn same_scores(untraced: &[Scores], traced: &[Scores]) -> Result<usize, String> {
    let mut drifted = 0;
    if untraced.len() != traced.len() {
        return Err("traced run scored a different number of models".into());
    }
    for (u, t) in untraced.iter().zip(traced) {
        if u == t {
            continue;
        }
        let shape = |s: &Scores| {
            let problems: Vec<(String, usize)> = s
                .eval
                .per_problem
                .iter()
                .map(|p| (p.id.clone(), p.samples))
                .collect();
            (
                s.label,
                s.eval.model.clone(),
                s.infringement.prompts,
                problems,
            )
        };
        if u.label != "freev" || shape(u) != shape(t) {
            return Err(format!(
                "traced {} scores differ from Runner / CopyrightBenchmark",
                u.label
            ));
        }
        drifted += 1;
    }
    Ok(drifted)
}

/// A traced [`paper::paper_path`].
#[derive(Debug)]
pub struct TracedPaper {
    /// The traced build.
    pub build: TracedBuild,
    /// The traced training.
    pub train: TracedTrain,
    /// The quantised FreeV's scores.
    pub scores: Scores,
}

/// [`paper::paper_path`], traced.
pub fn paper_path(config: &FreeSetConfig, runner: &Runner, t: &mut Tracer) -> TracedPaper {
    let build = build(config, t);
    let train = train(&build.scraped, build.training_corpus(), t);
    let bench = copyright_benchmark(&build.scraped, t);
    let scores = score("freev", runner, &bench, &train.models.quantized_tuned(), t);
    TracedPaper {
        build,
        train,
        scores,
    }
}

/// Checks a traced paper path against the untraced one; returns the FreeV
/// drift count of [`same_scores`].
pub fn same_paper(untraced: &PaperOutput, traced: &TracedPaper) -> Result<usize, String> {
    same_build(&untraced.build, &traced.build)?;
    same_models(&untraced.models, &traced.train.models)?;
    same_scores(
        std::slice::from_ref(&untraced.scores),
        std::slice::from_ref(&traced.scores),
    )
}

/// Serial replays of sub-phases that run inside one library call.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Replays {
    /// `CurationPipeline::run` over each traced build's scrape, in ms.
    pub oneshot_ms: f64,
    /// `char_shingles` over the dedup stage's input, in ms.
    pub shingle_ms: f64,
    /// Shingle hashes built.
    pub shingles: f64,
    /// `MinHasher::signatures` over those shingle sets, in ms.
    pub minhash_ms: f64,
    /// Signatures built.
    pub signatures: f64,
    /// `HdlTokenizer::fit` on the base corpus, in ms.
    pub fit_ms: f64,
    /// `HdlTokenizer::extended_with` on the FreeSet corpus, in ms.
    pub extend_ms: f64,
    /// Encoding both corpora, in ms.
    pub encode_ms: f64,
    /// `NgramCounts::observe_sequence` per shard, in ms.
    pub observe_ms: f64,
    /// Merging the shard counts, in ms.
    pub merge_ms: f64,
    /// Tokens observed by training.
    pub train_tokens: f64,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Replays curation and dedup sub-phases for each traced build, checking
/// that one-shot curation keeps what the stream kept.
fn replay_build(build: &TracedBuild, r: &mut Replays) -> Result<(), String> {
    let files = build.scraped.files.clone();
    let start = Instant::now();
    let oneshot = CurationPipeline::new(build.config.curation.clone()).run(files);
    r.oneshot_ms += ms_since(start);
    if !oneshot
        .files()
        .iter()
        .map(|f| &f.file)
        .eq(build.kept.iter())
    {
        return Err("one-shot curation differs from the traced stream".into());
    }
    // The license stage is stateless: applied to the whole scrape it keeps
    // exactly the files that entered de-duplication.
    let dedup_input = LicenseStage::new(LicenseFilter::paper_default())
        .apply(FileBatch::new(
            build.scraped.files.clone(),
            ExecutionMode::Serial,
        ))
        .kept;
    let code: Vec<String> = dedup_input
        .iter()
        .map(|f| verilog::strip_comments(&f.content))
        .collect();
    let dedup = build.config.curation.dedup;
    let start = Instant::now();
    let sets: Vec<textsim::ShingleSet> = code
        .iter()
        .map(|c| textsim::char_shingles(c, dedup.shingle_size))
        .collect();
    r.shingle_ms += ms_since(start);
    r.shingles += sets.iter().map(|s| s.len()).sum::<usize>() as f64;
    let hasher = textsim::MinHasher::new(dedup.permutations, dedup.seed);
    let start = Instant::now();
    let signatures = std::hint::black_box(hasher.signatures(&sets));
    r.minhash_ms += ms_since(start);
    r.signatures += signatures.len() as f64;
    Ok(())
}

/// Folds encoded documents into per-shard counts the way the sharded
/// trainer partitions them, then merges the shards in order.
fn observe_and_merge(
    corpus: &[String],
    ids: &[Vec<hwlm::TokenId>],
    order: usize,
    r: &mut Replays,
) -> NgramCounts {
    let start = Instant::now();
    let shards: Vec<NgramCounts> = partition_by_size(corpus, default_workers())
        .iter()
        .map(|shard| {
            let mut counts = NgramCounts::new(order);
            for &i in shard {
                counts.observe_sequence(&ids[i]);
            }
            counts
        })
        .collect();
    r.observe_ms += ms_since(start);
    let start = Instant::now();
    let mut merged = NgramCounts::new(order);
    for shard in shards {
        merged.merge(shard);
    }
    r.merge_ms += ms_since(start);
    merged
}

/// Replays the training sub-phases serially, checking that they rebuild the
/// traced models' tokenizers and count tables.
fn replay_train(train: &TracedTrain, r: &mut Replays) -> Result<(), String> {
    let b = &train.builder;
    let (base, tuned) = (train.models.base(), train.models.tuned());
    let start = Instant::now();
    let tokenizer = HdlTokenizer::fit(&train.base_corpus, b.base_train.min_token_count);
    r.fit_ms += ms_since(start);
    let start = Instant::now();
    let extended = tokenizer.extended_with(&train.freeset_corpus, 1);
    r.extend_ms += ms_since(start);
    if tokenizer != *base.tokenizer() || extended != *tuned.tokenizer() {
        return Err("replayed tokenizers differ from the trained models'".into());
    }
    let encode =
        |tok: &HdlTokenizer, corpus: &[String], max_len: usize| -> Vec<Vec<hwlm::TokenId>> {
            corpus
                .iter()
                .map(|doc| {
                    let mut ids = tok.encode_document(doc);
                    ids.truncate(max_len.max(2));
                    ids
                })
                .collect()
        };
    let start = Instant::now();
    let base_ids = encode(&tokenizer, &train.base_corpus, b.base_train.max_seq_len);
    let tuned_ids = encode(&extended, &train.freeset_corpus, b.pretrain.max_seq_len);
    r.encode_ms += ms_since(start);
    let tokens = |ids: &[Vec<hwlm::TokenId>]| ids.iter().map(Vec::len).sum::<usize>() as f64;
    r.train_tokens += tokens(&base_ids) + tokens(&tuned_ids) * b.pretrain.epochs as f64;
    let base_counts = observe_and_merge(&train.base_corpus, &base_ids, b.base_train.order, r);
    let adapter_order = b.pretrain.adapter_order.max(1);
    let mut adapter = NgramCounts::new(adapter_order);
    for _ in 0..b.pretrain.epochs {
        let epoch = observe_and_merge(&train.freeset_corpus, &tuned_ids, adapter_order, r);
        let start = Instant::now();
        adapter.merge(epoch);
        r.merge_ms += ms_since(start);
    }
    if base_counts != *base.counts() || adapter != *tuned.adapter_counts() {
        return Err("replayed count tables differ from the trained models'".into());
    }
    Ok(())
}

/// Replays every traced build's and training's sub-phases.
pub fn replay(builds: &[&TracedBuild], trains: &[&TracedTrain]) -> Result<Replays, String> {
    let mut r = Replays::default();
    for build in builds {
        replay_build(build, &mut r)?;
    }
    for train in trains {
        replay_train(train, &mut r)?;
    }
    Ok(r)
}
