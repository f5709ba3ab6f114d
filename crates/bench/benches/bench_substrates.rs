//! Micro-benchmarks of the substrates every experiment rests on: the Verilog
//! front-end and simulator, the similarity stack, and the language model.

use bench::print_artifact;
use criterion::{black_box, Criterion};
use gh_sim::{DesignKind, SynthConfig, Synthesizer};
use hwlm::{LanguageModel, NgramModel, SamplerConfig, TrainConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use textsim::{
    char_shingles, cosine_similarity, CodeTokenizer, LshParams, MinHasher, ShardedLshIndex,
};
use verilog::{Parser, SyntaxChecker, TestVector, Testbench};

fn sample_sources(count: usize) -> Vec<String> {
    let synth = Synthesizer::new(SynthConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    (0..count)
        .map(|_| synth.generate_random(&mut rng).source)
        .collect()
}

fn bench_verilog(c: &mut Criterion, sources: &[String]) {
    let checker = SyntaxChecker::new();
    let counter = "module counter(input clk, input rst, output reg [7:0] q);\n\
                   always @(posedge clk) begin if (rst) q <= 0; else q <= q + 1; end endmodule";
    let testbench = Testbench::clocked(
        "clk",
        vec![
            TestVector::clocked(vec![("rst".into(), 1)], 1, vec![("q".into(), 0)]),
            TestVector::clocked(vec![("rst".into(), 0)], 5, vec![("q".into(), 5)]),
        ],
    );
    let module = Parser::parse_source(counter).unwrap().remove(0);

    let mut group = c.benchmark_group("verilog_frontend");
    group.bench_function("parse_100_generated_files", |b| {
        b.iter(|| {
            let ok = sources
                .iter()
                .filter(|s| Parser::parse_source(black_box(s)).is_ok())
                .count();
            black_box(ok)
        })
    });
    group.bench_function("syntax_check_100_generated_files", |b| {
        b.iter(|| {
            let ok = sources
                .iter()
                .filter(|s| checker.is_valid(black_box(s)))
                .count();
            black_box(ok)
        })
    });
    group.bench_function("simulate_counter_testbench", |b| {
        b.iter(|| black_box(testbench.passes(black_box(&module)).unwrap()))
    });
    group.finish();
}

fn bench_textsim(c: &mut Criterion, sources: &[String]) {
    let tokenizer = CodeTokenizer::default();
    let hasher = MinHasher::new(128, 7);
    let params = LshParams::for_threshold(128, 0.85);

    let mut group = c.benchmark_group("textsim");
    group.bench_function("cosine_similarity_pair", |b| {
        b.iter(|| black_box(cosine_similarity(&tokenizer, &sources[0], &sources[1])))
    });
    group.bench_function("minhash_signature", |b| {
        b.iter(|| {
            let shingles = char_shingles(black_box(&sources[0]), 8);
            black_box(hasher.signature(&shingles))
        })
    });
    group.bench_function("lsh_index_100_files", |b| {
        b.iter(|| {
            let mut index = ShardedLshIndex::new(params);
            for (i, source) in sources.iter().enumerate() {
                let signature = hasher.signature(&char_shingles(source, 8));
                index.insert(i as u64, &signature);
            }
            black_box(index.len())
        })
    });
    group.finish();
}

fn bench_hwlm(c: &mut Criterion, sources: &[String]) {
    let model = NgramModel::train(
        sources,
        &TrainConfig {
            order: 8,
            ..Default::default()
        },
    );
    let sampler = SamplerConfig::with_temperature(0.2);

    let mut group = c.benchmark_group("hwlm");
    group.sample_size(20);
    group.bench_function("train_ngram_on_100_files", |b| {
        b.iter(|| {
            let m = NgramModel::train(
                black_box(sources),
                &TrainConfig {
                    order: 8,
                    ..Default::default()
                },
            );
            black_box(m.counts().trained_tokens())
        })
    });
    group.bench_function("generate_200_tokens", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        b.iter(|| {
            let text = model.generate_text(
                black_box("module counter(input clk, input rst, output reg [7:0] count);\n"),
                200,
                &sampler,
                &mut rng,
            );
            black_box(text.len())
        })
    });
    group.finish();
}

fn main() {
    let sources = sample_sources(100);
    let parsable = sources
        .iter()
        .filter(|s| SyntaxChecker::new().is_valid(s))
        .count();
    print_artifact(
        "Substrate sanity",
        &format!(
            "procedurally generated sources: {} / {} parse with the in-repo front-end\n\
             design kinds available: {}",
            parsable,
            sources.len(),
            DesignKind::ALL.len()
        ),
    );

    let mut criterion = Criterion::default().configure_from_args();
    bench_verilog(&mut criterion, &sources);
    bench_textsim(&mut criterion, &sources);
    bench_hwlm(&mut criterion, &sources);
    criterion.final_summary();
}
