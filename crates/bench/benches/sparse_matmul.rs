//! Criterion bench: dense vs COO vs CSR vs block-pruned vs pattern-pruned
//! matmul kernels at the same sparsity (the hardware-efficiency argument of
//! the paper's Challenge 1), swept over matrix size × rhs width × sparsity,
//! plus a `pool_throughput` bench that measures real `pool::run_batches`
//! wall-clock on a banked model — the serving-path number the compiled
//! execution plans (PR 3) and the SIMD/parallel kernels (PR 10) are meant
//! to move.
//!
//! Three pattern-pruned kernels are timed at every sweep point:
//! `pattern_compiled` runs the [`rt3_sparse::PatternPrunedMatrix`] kernels under the
//! *detected* backend (AVX2 where the CPU has it), `pattern_compiled_scalar`
//! forces the portable compiled-scalar backend (the PR 3 kernels, still the
//! bit-exactness reference), and `pattern_scalar_ref` is the retained seed
//! kernel ([`rt3_sparse::reference::matmul_dense_scalar`]) — so every JSON
//! line documents scalar-seed → compiled-scalar → SIMD in one row, plus a
//! `par4` column for the intra-matmul parallel path
//! ([`rt3_sparse::PatternPrunedMatrix::par_matmul_dense_into`] with 4 workers).
//!
//! After the criterion groups, a `{"bench": "sparse_matmul/summary_*"}`
//! JSON line per sweep point records the means and speedups, a
//! `{"bench": "sparse_matmul/cpu"}` line records the detected CPU features
//! and available parallelism, and the run **fails** (non-zero exit) if:
//!
//! * with AVX2 detected, the compiled kernel's **geometric-mean** speedup
//!   over CSR across the wide (w ≥ 8) sparsity-0.75 sweep falls below
//!   **2×**, or any single wide point falls below its regime floor (1.4×
//!   at s = 0.75, 0.7× at s = 0.90; the portable fallback keeps the
//!   original ×1.15 no-regression bound, now enforced per point), or
//! * at any point of the separate **narrow group** (w ∈ {1, 2, 4} ×
//!   s ∈ {0.75, 0.90} × n ∈ {96, 256}, run in quick mode too) the compiled
//!   kernel under either the detected or the scalar backend is slower
//!   than CSR (floor 1.0×), or
//! * `par_matmul_dense_into` with 4 workers is not ≥ 2× the single-threaded
//!   compiled kernel at the n = 2048, w = 64 point — enforced only when
//!   the host actually has ≥ 4 hardware threads (the committed JSON
//!   records `workers_available` so single-core runs stay honest).
//!
//! A `{"bench": "sparse_matmul/restricted_*"}` line per point records,
//! with no gate, the served widths 1–4 at the narrow group's sizes and
//! sparsities under a BP-style column mask: a layout assigned under the
//! mask, packed as is (storing `w * 0` at every masked position its
//! patterns keep) beside the same layout narrowed by
//! [`rt3_sparse::PackLayout::restrict`] to the positions both keep, which
//! is what the model bank serves.
//!
//! Set `BENCH_QUICK=1` (CI) to shrink the sweep and sample counts.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt3_hardware::MemoryModel;
use rt3_pruning::{
    block_prune_model, generate_pattern_space, BlockPruningConfig, PatternSpaceConfig,
};
use rt3_runtime::{pool, ModelBank};
use rt3_sparse::{
    reference, Backend, BlockPartition, BlockPrunedMatrix, BlockSquares, CompiledSet, CooMatrix,
    CsrMatrix, MaskBits, PackLayout, PatternMask, PatternPrunedMatrix, PatternSet,
};
use rt3_tensor::Matrix;
use rt3_transformer::{TransformerConfig, TransformerLm};
use std::sync::Arc;
use std::time::Instant;

const PSIZE: usize = 8;
/// Worker count of the intra-matmul parallel column (and the CI gate).
const PAR_WORKERS: usize = 4;

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok()
}

fn sweep_sizes() -> Vec<usize> {
    if quick() {
        vec![96, 256]
    } else {
        vec![96, 256, 512, 2048]
    }
}

fn sweep_widths() -> Vec<usize> {
    // all widths carry a SIMD full-block kernel; 64 is the regime the
    // tiled column sweep targets once the rhs blows L1
    if quick() {
        vec![8, 16]
    } else {
        vec![8, 16, 64]
    }
}

fn sweep_sparsities() -> Vec<f64> {
    if quick() {
        vec![0.75]
    } else {
        vec![0.75, 0.90]
    }
}

fn workers_available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn pattern_set(seed: u64, sparsity: f64) -> PatternSet {
    let mut rng = StdRng::seed_from_u64(seed);
    PatternSet::new(
        (0..4)
            .map(|_| PatternMask::random(PSIZE, sparsity, &mut rng))
            .collect(),
    )
    .expect("non-empty set")
}

/// One sweep point's operands, all computing the *same* product: a random
/// dense matrix is pattern-pruned to the target sparsity, and the COO /
/// CSR / BP baselines are built from the pruned reconstruction — equal
/// non-zeros, equal result, so kernel times are directly comparable. The
/// pattern-pruned matrix comes in both backends (detected and
/// scalar-forced); their lowered layouts are bit-identical.
fn operands(
    n: usize,
    sparsity: f64,
) -> (Matrix, PatternPrunedMatrix, PatternPrunedMatrix, CsrMatrix) {
    let mut rng = StdRng::seed_from_u64(1);
    let dense = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0f32));
    let set = pattern_set(2, sparsity);
    let pp = PatternPrunedMatrix::from_dense(&dense, &set);
    let pp_scalar = PatternPrunedMatrix::from_dense_with_backend(&dense, &set, Backend::Scalar);
    let masked = pp.to_dense();
    let csr = CsrMatrix::from_dense(&masked);
    (masked, pp, pp_scalar, csr)
}

/// `(mean, min)` ns/iter of `f` over `iters` individually timed runs (one
/// warm-up), for the summary lines and the perf gates — independent of the
/// criterion registry so the numbers can be compared and checked
/// programmatically. The minimum is what the gates use: it is robust to
/// one-sided scheduling noise on shared CI runners.
fn time_ns<O, F: FnMut() -> O>(iters: u32, mut f: F) -> (f64, f64) {
    black_box(f());
    let mut total = 0.0f64;
    let mut min = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        black_box(f());
        let ns = start.elapsed().as_nanos() as f64;
        total += ns;
        min = min.min(ns);
    }
    (total / iters as f64, min)
}

struct SummaryPoint {
    n: usize,
    width: usize,
    sparsity: f64,
    scalar_ns: f64,
    compiled_scalar_ns: f64,
    compiled_ns: f64,
    compiled_min_ns: f64,
    par_ns: f64,
    par_min_ns: f64,
    csr_ns: f64,
    csr_min_ns: f64,
}

fn bench_kernels(c: &mut Criterion) {
    let samples = if quick() { 10 } else { 20 };
    let backend = Backend::detect();
    let workers_avail = workers_available();
    println!(
        "{{\"bench\": \"sparse_matmul/cpu\", \"backend\": \"{}\", \"workers_available\": {}, \
         \"par_workers\": {PAR_WORKERS}}}",
        backend.label(),
        workers_avail,
    );

    let mut summary = Vec::new();
    for &sparsity in &sweep_sparsities() {
        let s_tag = (sparsity * 100.0).round() as usize;
        for &n in &sweep_sizes() {
            let (dense, pp, pp_scalar, csr) = operands(n, sparsity);
            for &width in &sweep_widths() {
                let rhs = Matrix::from_fn(n, width, |i, j| ((i * 3 + j) as f32).sin());
                let mut out = Matrix::zeros(n, width);
                let mut group =
                    c.benchmark_group(format!("sparse_matmul_{n}x{n}_s{s_tag}_w{width}"));
                group.sample_size(samples);
                // the dense baseline is only under test at the seed sizes;
                // at n = 2048 it would dominate the sweep's wall clock
                if n <= 512 {
                    group.bench_function("dense", |b| b.iter(|| dense.matmul(&rhs)));
                }
                group.bench_function("csr", |b| b.iter(|| csr.matmul_dense(&rhs)));
                group.bench_function("pattern_compiled", |b| b.iter(|| pp.matmul_dense(&rhs)));
                group.bench_function("pattern_compiled_scalar", |b| {
                    b.iter(|| pp_scalar.matmul_dense(&rhs))
                });
                group.bench_function("pattern_scalar_ref", |b| {
                    b.iter(|| reference::matmul_dense_scalar(&pp, &rhs))
                });
                // the remaining baselines only at the seed's original point
                // to keep the sweep affordable
                if n == 96 && width == 16 && sparsity == 0.75 {
                    let coo = CooMatrix::from_dense(&dense);
                    let bp = BlockPrunedMatrix::from_dense(&dense, &BlockPartition::even(n, 4));
                    group.bench_function("coo", |b| b.iter(|| coo.matmul_dense(&rhs)));
                    group.bench_function("block_pruned", |b| b.iter(|| bp.matmul_dense(&rhs)));
                }
                group.finish();

                let iters = samples as u32;
                let (scalar_ns, _) = time_ns(iters, || reference::matmul_dense_scalar(&pp, &rhs));
                let (compiled_scalar_ns, _) =
                    time_ns(iters, || pp_scalar.matmul_dense_into(&rhs, &mut out));
                let (compiled_ns, compiled_min_ns) =
                    time_ns(iters, || pp.matmul_dense_into(&rhs, &mut out));
                let (par_ns, par_min_ns) = time_ns(iters, || {
                    pp.par_matmul_dense_into(&rhs, &mut out, PAR_WORKERS)
                });
                let (csr_ns, csr_min_ns) = time_ns(iters, || csr.matmul_dense(&rhs));
                summary.push(SummaryPoint {
                    n,
                    width,
                    sparsity,
                    scalar_ns,
                    compiled_scalar_ns,
                    compiled_ns,
                    compiled_min_ns,
                    par_ns,
                    par_min_ns,
                    csr_ns,
                    csr_min_ns,
                });
            }
        }
    }

    for p in &summary {
        println!(
            "{{\"bench\": \"sparse_matmul/summary_n{}_s{}_w{}\", \"sparsity\": {}, \
             \"backend\": \"{}\", \"scalar_ns\": {:.1}, \"compiled_scalar_ns\": {:.1}, \
             \"compiled_ns\": {:.1}, \"par{PAR_WORKERS}_ns\": {:.1}, \"csr_ns\": {:.1}, \
             \"speedup_vs_scalar\": {:.2}, \"speedup_vs_csr\": {:.2}, \
             \"simd_speedup\": {:.2}, \"par_speedup\": {:.2}, \"workers_available\": {}}}",
            p.n,
            (p.sparsity * 100.0).round() as usize,
            p.width,
            p.sparsity,
            backend.label(),
            p.scalar_ns,
            p.compiled_scalar_ns,
            p.compiled_ns,
            p.par_ns,
            p.csr_ns,
            p.scalar_ns / p.compiled_ns,
            p.csr_ns / p.compiled_ns,
            p.compiled_scalar_ns / p.compiled_ns,
            p.compiled_ns / p.par_ns,
            workers_avail,
        );
    }

    // Perf gate 1: the compiled pattern-pruned kernel vs the CSR kernel at
    // equal non-zeros, using per-kernel *minimum* iteration times (immune
    // to one-sided scheduling stalls on shared CI runners). A panic here
    // fails the bench process and therefore the CI job.
    //
    // The headline AVX2 bound — 2x faster than CSR — is enforced on the
    // **geometric mean** across the sparsity-0.75 sweep (the pattern sets'
    // operating sparsity), because a universal per-point 2x is not
    // physically available: at w = 8 the CSR inner loop auto-vectorizes and
    // caps the edge near ~1.7x, and at n = 2048 both kernels are
    // value-arena bandwidth-bound, where the compiled plan's advantage is
    // its shared pattern structure (~half the streamed bytes per non-zero).
    // Per-point floors then catch regressions inside each measured regime
    // (see DESIGN.md, "Kernel dispatch"): at s = 0.90 the structured plan
    // carries per-block overhead over ~6 kept values per block, so the
    // floor there only bounds how far CSR may pull ahead. The narrow widths
    // have their own group and gate (`bench_narrow`).
    let per_point_floor = |p: &SummaryPoint| match backend {
        Backend::Avx2 => {
            if p.sparsity <= 0.75 {
                1.4
            } else {
                0.7
            }
        }
        // the portable fallback keeps the seed's no-regression bound
        // (within 15% of CSR) at the operating sparsity
        Backend::Scalar => {
            if p.sparsity <= 0.75 {
                1.0 / 1.15
            } else {
                1.0 / 1.5
            }
        }
    };
    for p in &summary {
        let speedup = p.csr_min_ns / p.compiled_min_ns;
        assert!(
            speedup >= per_point_floor(p),
            "perf gate: compiled kernel ({}) at {:.2}x CSR (floor {:.2}x) at n={}, w={}, \
             sparsity {} (compiled min {:.0} ns, csr min {:.0} ns)",
            backend.label(),
            speedup,
            per_point_floor(p),
            p.n,
            p.width,
            p.sparsity,
            p.compiled_min_ns,
            p.csr_min_ns,
        );
    }
    if backend == Backend::Avx2 {
        for &sparsity in &sweep_sparsities() {
            let ratios: Vec<f64> = summary
                .iter()
                .filter(|p| p.sparsity == sparsity)
                .map(|p| p.csr_min_ns / p.compiled_min_ns)
                .collect();
            let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
            let required = if sparsity <= 0.75 { 2.0 } else { 1.25 };
            println!(
                "{{\"bench\": \"sparse_matmul/gate_s{}\", \"geomean_speedup_vs_csr\": {:.3}, \
                 \"required\": {required}, \"points\": {}}}",
                (sparsity * 100.0).round() as usize,
                geomean,
                ratios.len(),
            );
            assert!(
                geomean >= required,
                "perf gate: geometric-mean SIMD speedup vs CSR at sparsity {sparsity} is \
                 {geomean:.3}x, below the required {required}x",
            );
        }
    }

    // Perf gate 2: intra-matmul parallelism must pay off on a large single
    // inference — par_matmul with 4 workers at least 2x the single-threaded
    // compiled kernel at the n=2048, w=64 point. Only enforceable where the
    // host actually has the hardware threads (the JSON rows record
    // `workers_available`, so a single-core run is visibly unenforced, not
    // silently passing).
    if let Some(p) = summary
        .iter()
        .filter(|p| p.width == 64 && p.n == 2048)
        .max_by(|a, b| a.sparsity.total_cmp(&b.sparsity))
    {
        if workers_avail >= PAR_WORKERS {
            assert!(
                p.par_min_ns * 2.0 <= p.compiled_min_ns,
                "perf gate: par_matmul with {PAR_WORKERS} workers (min {:.0} ns) is not 2x the \
                 single-threaded compiled kernel (min {:.0} ns) at n={}, w=64",
                p.par_min_ns,
                p.compiled_min_ns,
                p.n,
            );
        } else {
            println!(
                "par gate skipped: {} hardware thread(s) available, {PAR_WORKERS} required",
                workers_avail
            );
        }
    }
}

/// Narrow widths of the served micro-batches: every (n, s, w) point of
/// the narrow group, in quick mode too.
fn narrow_points() -> Vec<(usize, f64, usize)> {
    let mut points = Vec::new();
    for sparsity in [0.75, 0.90] {
        for n in [96, 256] {
            for width in [1, 2, 4] {
                points.push((n, sparsity, width));
            }
        }
    }
    points
}

/// The narrow rhs widths (1, 2, 4) the serving engines mostly dispatch,
/// at both sparsities, timed for the compiled kernel under the detected
/// and the scalar backend against CSR at equal non-zeros. Kept out of the
/// wide sweep's geomean and per-point floors (those gates keep their
/// population); instead the run **fails** if, at any narrow point, either
/// compiled kernel's minimum time is slower than CSR's (gate 1.0x).
fn bench_narrow(c: &mut Criterion) {
    let samples = if quick() { 10 } else { 20 };
    let backend = Backend::detect();
    let points = narrow_points();
    let mut worst = f64::INFINITY;
    for &(n, sparsity, width) in &points {
        let s_tag = (sparsity * 100.0).round() as usize;
        let (_, pp, pp_scalar, csr) = operands(n, sparsity);
        let rhs = Matrix::from_fn(n, width, |i, j| ((i * 3 + j) as f32).sin());
        let mut out = Matrix::zeros(n, width);
        let mut group =
            c.benchmark_group(format!("sparse_matmul_narrow_{n}x{n}_s{s_tag}_w{width}"));
        group.sample_size(samples);
        group.bench_function("csr", |b| b.iter(|| csr.matmul_dense(&rhs)));
        group.bench_function("pattern_compiled", |b| b.iter(|| pp.matmul_dense(&rhs)));
        group.bench_function("pattern_compiled_scalar", |b| {
            b.iter(|| pp_scalar.matmul_dense(&rhs))
        });
        group.finish();

        // more timed runs than the wide sweep: a narrow point takes a few
        // microseconds, so the minimum needs more draws to settle
        let iters = 10 * samples as u32;
        let (compiled_ns, compiled_min_ns) =
            time_ns(iters, || pp.matmul_dense_into(&rhs, &mut out));
        let (compiled_scalar_ns, compiled_scalar_min_ns) =
            time_ns(iters, || pp_scalar.matmul_dense_into(&rhs, &mut out));
        let (csr_ns, csr_min_ns) = time_ns(iters, || csr.matmul_dense(&rhs));
        let speedup = csr_min_ns / compiled_min_ns;
        let scalar_speedup = csr_min_ns / compiled_scalar_min_ns;
        println!(
            "{{\"bench\": \"sparse_matmul/narrow_n{n}_s{s_tag}_w{width}\", \"sparsity\": {sparsity}, \
             \"backend\": \"{}\", \"compiled_ns\": {compiled_ns:.1}, \
             \"compiled_scalar_ns\": {compiled_scalar_ns:.1}, \"csr_ns\": {csr_ns:.1}, \
             \"compiled_min_ns\": {compiled_min_ns:.1}, \
             \"compiled_scalar_min_ns\": {compiled_scalar_min_ns:.1}, \
             \"csr_min_ns\": {csr_min_ns:.1}, \"speedup_vs_csr\": {speedup:.2}, \
             \"scalar_speedup_vs_csr\": {scalar_speedup:.2}}}",
            backend.label(),
        );
        for (label, ratio) in [(backend.label(), speedup), ("scalar", scalar_speedup)] {
            assert!(
                ratio >= 1.0,
                "perf gate: compiled kernel ({label}) at {ratio:.2}x CSR (floor 1.00x) at \
                 narrow point n={n}, w={width}, sparsity {sparsity}",
            );
        }
        worst = worst.min(speedup).min(scalar_speedup);
    }
    println!(
        "{{\"bench\": \"sparse_matmul/gate_narrow\", \"min_speedup_vs_csr\": {worst:.3}, \
         \"required\": 1.0, \"points\": {}}}",
        points.len(),
    );
}

/// The served widths 1–4 at the narrow group's sizes and sparsities,
/// under a BP-style column mask that keeps columns in runs of 3 out of
/// every 5 (60%), so its runs cut across the 8-wide pattern blocks the way
/// a backbone's pruned columns do. One layout is assigned under the mask
/// and packed twice: as is, which stores `w * 0` at the masked positions
/// its patterns keep, and restricted to the positions both keep. Both
/// multiply to the same bits; the JSON line records their stored counts
/// and times, with no gate.
fn bench_restricted(_c: &mut Criterion) {
    let samples = if quick() { 10 } else { 20 };
    let backend = Backend::detect();
    for sparsity in [0.75f64, 0.90] {
        let s_tag = (sparsity * 100.0).round() as usize;
        for n in [96, 256] {
            let mut rng = StdRng::seed_from_u64(1);
            let dense = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0f32));
            let mask = Matrix::from_fn(n, n, |_, c| f32::from(u8::from((c / 3) % 5 < 3)));
            let set = Arc::new(CompiledSet::new(&pattern_set(2, sparsity)));
            let squares = BlockSquares::new(&dense, Some(&mask), PSIZE, backend);
            let layout = PackLayout::assign(&squares, &set);
            let bits = MaskBits::new(dense.shape(), Some(&mask), PSIZE);
            let restricted = PackLayout::restrict([(&layout, &bits)]);
            let restricted = Arc::new(restricted.into_iter().next().expect("one layout"));
            let layout = Arc::new(layout);
            let full = PatternPrunedMatrix::pack(&layout, &dense, Some(&mask), backend);
            let narrow = PatternPrunedMatrix::pack(&restricted, &dense, Some(&mask), backend);
            for width in 1..=4 {
                let rhs = Matrix::from_fn(n, width, |i, j| ((i * 3 + j) as f32).sin());
                let mut out = Matrix::zeros(n, width);
                let iters = 10 * samples as u32;
                let (full_ns, full_min_ns) =
                    time_ns(iters, || full.matmul_dense_into(&rhs, &mut out));
                let (narrow_ns, narrow_min_ns) =
                    time_ns(iters, || narrow.matmul_dense_into(&rhs, &mut out));
                println!(
                    "{{\"bench\": \"sparse_matmul/restricted_n{n}_s{s_tag}_w{width}\", \
                     \"sparsity\": {sparsity}, \"backend\": \"{}\", \"mask_kept\": 0.6, \
                     \"stored\": {}, \"restricted_stored\": {}, \
                     \"unrestricted_ns\": {full_ns:.1}, \"restricted_ns\": {narrow_ns:.1}, \
                     \"unrestricted_min_ns\": {full_min_ns:.1}, \
                     \"restricted_min_ns\": {narrow_min_ns:.1}, \"speedup\": {:.2}}}",
                    backend.label(),
                    full.stored_values(),
                    narrow.stored_values(),
                    full_min_ns / narrow_min_ns,
                );
            }
        }
    }
}

/// Real serving-path throughput: `pool::run_batches` wall-clock over a
/// banked model (the level-0 variant of a paper-shaped transformer), i.e.
/// what every micro-batch of the single-device and fleet engines executes.
/// The scarce-batch variant (one batch against 4 workers) exercises the
/// intra-matmul parallel path the pool falls back to when batch-level
/// chunking cannot use the pool.
fn bench_pool_throughput(c: &mut Criterion) {
    let model = TransformerLm::new(TransformerConfig::paper_transformer(96), 17);
    let backbone = block_prune_model(&model, &BlockPruningConfig::default());
    let space = generate_pattern_space(
        &model,
        &backbone,
        &[0.75],
        &PatternSpaceConfig {
            pattern_size: 4,
            patterns_per_set: 2,
            sample_fraction: 0.5,
            seed: 17,
        },
    );
    let mut bank = ModelBank::new(&model, backbone, &space, &[0], MemoryModel::odroid_xu3(), 1);
    let banked = bank.get(0).clone();
    let batches = vec![4usize; if quick() { 16 } else { 64 }];
    let mut group = c.benchmark_group("pool_throughput");
    group.sample_size(if quick() { 5 } else { 10 });
    group.bench_function(format!("run_batches_{}x4_4workers", batches.len()), |b| {
        b.iter(|| pool::run_batches(&banked, &batches, 4, None))
    });
    group.bench_function(format!("run_batches_{}x4_1worker", batches.len()), |b| {
        b.iter(|| pool::run_batches(&banked, &batches, 1, None))
    });
    group.bench_function("run_batches_1x64_4workers_intra", |b| {
        b.iter(|| pool::run_batches(&banked, &[64], 4, None))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_narrow,
    bench_restricted,
    bench_pool_throughput
);
criterion_main!(benches);
