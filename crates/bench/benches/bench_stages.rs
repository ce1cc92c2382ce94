//! Criterion benchmarks for the individual MCCATCH stages (Alg. 1's four
//! steps), isolating where time goes: counting joins, plateau extraction,
//! the MDL cutoff, and scoring. This is the ablation companion to the
//! complexity argument of Lemma 1 (counting dominates; everything else is
//! `O(n)` or less).
//!
//! The counting stage is benchmarked in both formulations — the historical
//! per-radius joins (`count_neighbors_per_radius`, one tree descent per
//! point per radius) and the single-traversal multi-radius join
//! (`count_neighbors`, one descent per point for all radii) — on the HTTP
//! benchmark set and on the Fig. 7 scalability workloads, so the rewrite's
//! win is measured, not asserted.

use criterion::{criterion_group, criterion_main, Criterion};
use mccatch_core::counts::{count_neighbors, count_neighbors_per_radius};
use mccatch_core::oracle::OraclePlot;
use mccatch_core::{compute_cutoff, RadiusGrid};
use mccatch_data::{http, uniform};
use mccatch_index::{IndexBuilder, KdTreeBuilder, RangeIndex, SlimTreeBuilder};
use mccatch_metric::Euclidean;
use std::hint::black_box;

fn bench_stages(c: &mut Criterion) {
    let data = http(10_000, 1);
    let pts = &data.points;
    let builder = KdTreeBuilder::default();
    let tree = builder.build_all_ref(pts, &Euclidean);
    let grid = RadiusGrid::new(tree.diameter_estimate(), 15);
    let card = pts.len() / 10;

    let mut group = c.benchmark_group("stages_http10k");
    group.sample_size(10);
    group.bench_function("count_neighbors", |b| {
        b.iter(|| count_neighbors(&tree, black_box(pts), grid.radii(), card, 1))
    });
    group.bench_function("count_neighbors_per_radius", |b| {
        b.iter(|| count_neighbors_per_radius(&tree, black_box(pts), grid.radii(), card, 1))
    });
    let table = count_neighbors(&tree, pts, grid.radii(), card, 1);
    group.bench_function("plateaus_oracle", |b| {
        b.iter(|| OraclePlot::from_counts(black_box(&table), grid.radii(), 0.1, card))
    });
    let oracle = OraclePlot::from_counts(&table, grid.radii(), 0.1, card);
    group.bench_function("mdl_cutoff", |b| {
        b.iter(|| compute_cutoff(black_box(oracle.histogram()), grid.radii()))
    });
    group.finish();
}

/// Counting stage on a Fig. 7 point (Uniform 20-d, 4k — the
/// high-dimensional sweep where the paper's scalability claims live):
/// single-traversal vs. per-radius, on both the kd-tree fast path and the
/// Slim-tree general path. The multi-radius pass must win on both here
/// (~3x on the kd-tree, whose leaf scan computes each distance once, and
/// ~2x on the Slim-tree with ~3.9x fewer distance evaluations; see the
/// README's performance table); on cheap low-dimensional data (the http
/// group above) the two paths roughly tie, because re-descending a 2–3-d
/// kd-tree was never the bottleneck.
fn bench_counting_fig7(c: &mut Criterion) {
    let pts = uniform(4_000, 20, 7);
    let card = pts.len() / 10;

    let kd = KdTreeBuilder::default().build_all_ref(&pts, &Euclidean);
    let grid = RadiusGrid::new(kd.diameter_estimate(), 15);
    let mut group = c.benchmark_group("counting_fig7_uniform20d_4k");
    group.sample_size(10);
    group.bench_function("kd_multi_radius", |b| {
        b.iter(|| count_neighbors(&kd, black_box(&pts), grid.radii(), card, 1))
    });
    group.bench_function("kd_per_radius", |b| {
        b.iter(|| count_neighbors_per_radius(&kd, black_box(&pts), grid.radii(), card, 1))
    });

    let slim = SlimTreeBuilder::default().build_all_ref(&pts, &Euclidean);
    let grid = RadiusGrid::new(slim.diameter_estimate(), 15);
    group.bench_function("slim_multi_radius", |b| {
        b.iter(|| count_neighbors(&slim, black_box(&pts), grid.radii(), card, 1))
    });
    group.bench_function("slim_per_radius", |b| {
        b.iter(|| count_neighbors_per_radius(&slim, black_box(&pts), grid.radii(), card, 1))
    });
    group.finish();
}

criterion_group!(benches, bench_stages, bench_counting_fig7);
criterion_main!(benches);
