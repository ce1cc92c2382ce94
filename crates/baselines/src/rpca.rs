//! Robust-PCA stand-in for RDA (Zhou & Paffenroth, KDD 2017).
//!
//! RDA is a *robust deep autoencoder*: it splits the data into a part that
//! a low-dimensional autoencoder reconstructs well plus a sparse outlier
//! residual, and scores points by reconstruction error. On tabular data the
//! detection signal is the low-rank reconstruction error, which a linear
//! autoencoder — PCA — computes exactly. We therefore substitute a
//! deterministic robust PCA: fit principal components by power iteration,
//! trim the worst-reconstructed points, refit, and report the final
//! reconstruction error as the score.

/// Scores = reconstruction error after robust PCA with `k` components and
/// `trim_rounds` refit rounds (each round drops the worst 5%).
pub fn rpca_scores(points: &[Vec<f64>], k: usize, trim_rounds: usize) -> Vec<f64> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let dim = points[0].len();
    let k = k.clamp(1, dim);
    let mut active: Vec<usize> = (0..n).collect();
    let mut components: Vec<Vec<f64>> = Vec::new();
    let mut mean = vec![0.0; dim];
    for round in 0..=trim_rounds {
        (mean, components) = fit_pca(points, &active, k);
        if round == trim_rounds {
            break;
        }
        // Trim the 5% worst-reconstructed active points and refit.
        let mut errs: Vec<(f64, usize)> = active
            .iter()
            .map(|&i| (reconstruction_error(&points[i], &mean, &components), i))
            .collect();
        errs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let keep = (active.len() as f64 * 0.95).ceil() as usize;
        active = errs
            .into_iter()
            .take(keep.max(k + 1))
            .map(|(_, i)| i)
            .collect();
        active.sort_unstable();
    }
    points
        .iter()
        .map(|p| reconstruction_error(p, &mean, &components))
        .collect()
}

/// Mean + top-`k` principal directions via deflated power iteration over
/// the covariance of `points[active]`. Deterministic start vectors.
fn fit_pca(points: &[Vec<f64>], active: &[usize], k: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let dim = points[0].len();
    let m = active.len().max(1) as f64;
    let mut mean = vec![0.0; dim];
    for &i in active {
        for d in 0..dim {
            mean[d] += points[i][d];
        }
    }
    for v in mean.iter_mut() {
        *v /= m;
    }
    // Covariance-times-vector products computed on the fly (no dim x dim
    // matrix): cov·v = (1/m) Σ (x-µ) <x-µ, v>.
    let cov_mul = |v: &[f64], comps: &[Vec<f64>]| -> Vec<f64> {
        let mut out = vec![0.0; dim];
        for &i in active {
            let x = &points[i];
            let mut dotp = 0.0;
            for d in 0..dim {
                dotp += (x[d] - mean[d]) * v[d];
            }
            for d in 0..dim {
                out[d] += (x[d] - mean[d]) * dotp;
            }
        }
        for o in out.iter_mut() {
            *o /= m;
        }
        // Deflate previously found components.
        for c in comps {
            let proj: f64 = out.iter().zip(c).map(|(a, b)| a * b).sum();
            for d in 0..dim {
                out[d] -= proj * c[d];
            }
        }
        out
    };
    let mut comps: Vec<Vec<f64>> = Vec::with_capacity(k);
    for ki in 0..k {
        // Deterministic start: unit vector along axis (ki mod dim) plus a
        // small spread so orthogonal starts don't stall.
        let mut v = vec![1e-3; dim];
        v[ki % dim] = 1.0;
        normalize(&mut v);
        for _ in 0..50 {
            let mut w = cov_mul(&v, &comps);
            if normalize(&mut w) < 1e-12 {
                break; // rank exhausted
            }
            v = w;
        }
        // Orthonormalize against previous components for safety.
        for c in &comps {
            let proj: f64 = v.iter().zip(c).map(|(a, b)| a * b).sum();
            for d in 0..dim {
                v[d] -= proj * c[d];
            }
        }
        if normalize(&mut v) < 1e-12 {
            break;
        }
        comps.push(v);
    }
    (mean, comps)
}

fn normalize(v: &mut [f64]) -> f64 {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    norm
}

/// Distance from `p` to its projection on the affine PCA subspace.
fn reconstruction_error(p: &[f64], mean: &[f64], comps: &[Vec<f64>]) -> f64 {
    let dim = p.len();
    let centered: Vec<f64> = (0..dim).map(|d| p[d] - mean[d]).collect();
    let mut residual = centered.clone();
    for c in comps {
        let proj: f64 = centered.iter().zip(c).map(|(a, b)| a * b).sum();
        for d in 0..dim {
            residual[d] -= proj * c[d];
        }
    }
    residual.iter().map(|x| x * x).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plane_point_scores_highest() {
        // Inliers on the x-y plane in 3-d, one point far along z.
        let mut pts: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64, (i / 10) as f64, 0.01 * (i % 7) as f64])
            .collect();
        pts.push(vec![5.0, 5.0, 25.0]);
        let s = rpca_scores(&pts, 2, 2);
        let max_inlier = s[..100].iter().cloned().fold(f64::MIN, f64::max);
        assert!(s[100] > 10.0 * max_inlier, "{} vs {max_inlier}", s[100]);
    }

    #[test]
    fn perfect_plane_has_zero_error() {
        let pts: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, 2.0 * i as f64, 0.0])
            .collect();
        let s = rpca_scores(&pts, 1, 0);
        // A line needs one component: errors ~ 0.
        assert!(
            s.iter().all(|&e| e < 1e-6),
            "max {:?}",
            s.iter().cloned().fold(f64::MIN, f64::max)
        );
    }

    #[test]
    fn trimming_resists_outlier_pull() {
        // A strong outlier tilts plain PCA; trimmed refits should keep the
        // inlier line's errors small.
        let mut pts: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, i as f64]).collect();
        pts.push(vec![0.0, 500.0]);
        let robust = rpca_scores(&pts, 1, 3);
        let max_inlier = robust[..100].iter().cloned().fold(f64::MIN, f64::max);
        assert!(robust[100] > 5.0 * max_inlier);
    }

    #[test]
    fn deterministic() {
        let pts: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![i as f64, (i * i % 17) as f64])
            .collect();
        assert_eq!(rpca_scores(&pts, 2, 1), rpca_scores(&pts, 2, 1));
    }
}
