//! Network-attack detection (paper Fig. 8(ii)): find the 30-connection
//! 'DoS back' microcluster in HTTP logs.
//!
//! The paper runs MCCATCH on 222K KDD'99 HTTP connections and finds a
//! 30-point microcluster of confirmed denial-of-service attacks in about
//! 3 minutes. This example reproduces the experiment on the synthetic HTTP
//! analogue (`mccatch::data::network`: the KDD'99 subset is not
//! redistributable, so a generator plants the same 30-connection attack
//! cluster in log-scale benign traffic) — pass a size to scale:
//!
//! `cargo run --release -p mccatch --example network_attacks -- 222027`
//!
//! Next to the wall time it prints the counting stage, which is most of a
//! fit at this scale, with the distance evaluations it spent.

use mccatch::data::{http, http_dos_ids};
use mccatch::eval::auroc;
use mccatch::index::KdTreeBuilder;
use mccatch::metrics::Euclidean;
use mccatch::McCatch;
use std::time::Instant;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000);
    println!("generating HTTP analogue with {n} connections…");
    let data = http(n, 42);
    let dos = http_dos_ids(n);

    let detector = McCatch::builder().build().expect("defaults are valid");
    let t0 = Instant::now();
    // The erased serving handle: fit once, share `Arc<dyn Model<_>>`.
    let model = detector
        .fit(data.points.clone(), Euclidean, KdTreeBuilder::default())
        .expect("fit")
        .into_model();
    let out = model.detect_output();
    let elapsed = t0.elapsed();

    println!("\nMCCATCH on HTTP ({} connections)", data.len());
    println!("=====================================");
    println!("runtime:           {elapsed:.2?}");
    println!("  paper, 222K:     about 3 min (Fig. 8(ii)), 4 min (Tab. VI)");
    println!(
        "  counting stage:  {:.2?}, {} distance evals ({} in the build)",
        out.stats.t_count, out.stats.dist_count, out.stats.dist_build
    );
    println!("outliers flagged:  {}", out.num_outliers());
    println!("microclusters:     {}", out.microclusters.len());
    println!(
        "AUROC vs ground truth: {:.3}",
        auroc(&out.point_scores, &data.labels)
    );

    // Did we recover the DoS microcluster as one entity?
    let dos_cluster = out.cluster_of(dos[0]);
    match dos_cluster {
        Some(mc) => {
            let recovered = dos.iter().filter(|d| mc.members.contains(d)).count();
            println!(
                "\nDoS microcluster: recovered {recovered}/{} members in one cluster",
                dos.len()
            );
            println!(
                "  cluster size {}, score {:.3}, bridge length {:.3}",
                mc.cardinality(),
                mc.score,
                mc.bridge_length
            );
            let rank = out
                .microclusters
                .iter()
                .position(|m| std::ptr::eq(m, mc))
                .unwrap_or(usize::MAX);
            println!("  rank in the most-strange-first list: {}", rank + 1);
        }
        None => println!("\nDoS microcluster NOT flagged (unexpected)"),
    }

    println!("\ntop 5 microclusters:");
    for (i, mc) in out.microclusters.iter().take(5).enumerate() {
        println!(
            "  #{} size={} score={:.3} bridge={:.3}",
            i + 1,
            mc.cardinality(),
            mc.score,
            mc.bridge_length
        );
    }
}
