//! Pins for the fixed-lane distance kernel behind every vector metric.
//!
//! The reduction order is part of each metric's definition (see
//! `dod_metrics::vector`), so these tests hold it in place three ways:
//! bitwise symmetry, agreement with a plain sequential `f64` sum, and a
//! golden table of result bits. The table makes any later change of
//! reduction order a visible, deliberate edit here, and running this file
//! under a different `-C target-cpu` shows the bits do not depend on the
//! target's features.

use dod_metrics::{Angular, Chebyshev, Minkowski, VectorMetric, L1, L2, L4};

/// Dimensions covering every remainder length after the 8-wide chunks,
/// plus the paper's deep/sift/mnist dimensionalities.
fn dims() -> impl Iterator<Item = usize> {
    (1..=40).chain([96, 128, 784])
}

/// SplitMix64: a self-contained generator, so the pinned inputs cannot
/// move with any dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded pair of `dim`-vectors with coordinates in `[-4, 4)`.
fn pair(dim: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut s = seed;
    let mut row = || -> Vec<f32> {
        (0..dim)
            .map(|_| ((splitmix(&mut s) >> 40) as f32 / (1u64 << 24) as f32) * 8.0 - 4.0)
            .collect()
    };
    let a = row();
    let b = row();
    (a, b)
}

/// A seeded pair of `dim`-vectors whose coordinates span magnitudes
/// `2^-24 … 2^8` with random signs and full 24-bit significands. A sum of
/// terms this far apart rounds at every step, so its bits depend on the
/// reduction order (coordinates on a coarse grid would sum exactly in
/// `f64` in any order and pin nothing).
fn wide_pair(dim: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut s = seed;
    let mut row = || -> Vec<f32> {
        (0..dim)
            .map(|_| {
                let r = splitmix(&mut s);
                let sign = (r >> 63) as u32;
                let exp = 127 - 24 + (r & 31) as u32;
                f32::from_bits(sign << 31 | exp << 23 | (r >> 8) as u32 & 0x7F_FFFF)
            })
            .collect()
    };
    let a = row();
    let b = row();
    (a, b)
}

/// The metrics under test, named for failure messages. Angular rows are
/// normalized by its own `preprocess` before use (see [`prepared`]).
fn metrics() -> Vec<(&'static str, Box<dyn VectorMetric>)> {
    vec![
        ("L1", Box::new(L1)),
        ("L2", Box::new(L2)),
        ("L4", Box::new(L4)),
        ("Linf", Box::new(Chebyshev)),
        ("Minkowski3", Box::new(Minkowski::new(3.0))),
        ("Angular", Box::new(Angular)),
    ]
}

/// `(a, b)` as the metric sees them once stored in a dataset.
fn prepared(m: &dyn VectorMetric, a: &[f32], b: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let (mut a, mut b, dim) = (a.to_vec(), b.to_vec(), a.len());
    m.preprocess(&mut a, dim);
    m.preprocess(&mut b, dim);
    (a, b)
}

/// References that sum left to right in one `f64` accumulator, the naive
/// reduction order.
fn reference(name: &str, a: &[f32], b: &[f32]) -> f64 {
    let d = |(&x, &y): (&f32, &f32)| x as f64 - y as f64;
    let pairs = a.iter().zip(b);
    match name {
        "L1" => pairs.map(|p| d(p).abs()).sum(),
        "L2" => pairs.map(|p| d(p) * d(p)).sum::<f64>().sqrt(),
        "L4" => pairs.map(|p| d(p).powi(4)).sum::<f64>().powf(0.25),
        "Linf" => pairs.map(|p| d(p).abs()).fold(0.0, f64::max),
        "Minkowski3" => pairs
            .map(|p| d(p).abs().powf(3.0))
            .sum::<f64>()
            .powf(1.0 / 3.0),
        "Angular" => pairs
            .map(|(&x, &y)| x as f64 * y as f64)
            .sum::<f64>()
            .clamp(-1.0, 1.0)
            .acos(),
        _ => unreachable!("no reference for {name}"),
    }
}

#[test]
fn every_metric_is_bitwise_symmetric() {
    for (name, m) in metrics() {
        for dim in dims() {
            for seed in 0..4 {
                let (a, b) = pair(dim, seed);
                let (a, b) = prepared(m.as_ref(), &a, &b);
                assert_eq!(
                    m.dist(&a, &b).to_bits(),
                    m.dist(&b, &a).to_bits(),
                    "{name} dim {dim} seed {seed}"
                );
            }
        }
    }
}

#[test]
fn kernels_agree_with_a_sequential_sum() {
    for (name, m) in metrics() {
        for dim in dims() {
            for seed in 0..4 {
                let (a, b) = pair(dim, 1000 + seed);
                let (a, b) = prepared(m.as_ref(), &a, &b);
                let got = m.dist(&a, &b);
                let want = reference(name, &a, &b);
                let tol = 1e-12 * want.abs().max(f64::MIN_POSITIVE);
                assert!(
                    (got - want).abs() <= tol,
                    "{name} dim {dim} seed {seed}: kernel {got:e} vs sequential {want:e}"
                );
            }
        }
    }
}

#[test]
fn angular_preprocess_agrees_with_a_sequential_norm() {
    for dim in dims() {
        let (mut row, _) = pair(dim, 2000 + dim as u64);
        let norm = row.iter().map(|&x| x as f64 * x as f64).sum::<f64>().sqrt();
        let want: Vec<f32> = row.iter().map(|&x| (x as f64 / norm) as f32).collect();
        Angular.preprocess(&mut row, dim);
        for (i, (&g, &w)) in row.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() <= f32::EPSILON * w.abs(),
                "dim {dim} coordinate {i}: {g:e} vs {w:e}"
            );
        }
    }
}

/// `(metric, dim, seed, dist(a, b).to_bits())` over [`wide_pair`], with
/// Angular rows passed through `preprocess` first. Dimensions 5, 13, 96
/// and 784 exercise a remainder-only sum, one chunk plus a remainder,
/// whole chunks only, and a long sum.
///
/// L1 and L2 (`sqrt` is correctly rounded) pin the reduction alone; the
/// L4, Minkowski and Angular rows also pass through the platform's `pow`
/// and `acos`. `acos` often rounds a last-bit change of the dot product
/// away, so the Angular rows use seeds where the lane order does show.
const GOLDEN: &[(&str, usize, u64, u64)] = &[
    ("L1", 5, 7, 0x40609ac1599201de),
    ("L1", 13, 11, 0x407056d2b45eb7b2),
    ("L1", 96, 13, 0x409ce42300bd148a),
    ("L1", 784, 17, 0x40d2a750d5419a18),
    ("L2", 5, 7, 0x4058deb465cebc48),
    ("L2", 13, 11, 0x40653a3db1f48002),
    ("L2", 96, 13, 0x407e6723618b79c1),
    ("L2", 784, 17, 0x4098b5b4417be571),
    ("L4", 5, 7, 0x4057b00f0a4a314e),
    ("L4", 13, 11, 0x406325f21da1da07),
    ("L4", 96, 13, 0x4072cbd468dda09b),
    ("L4", 784, 17, 0x40809f46bcb25997),
    ("Linf", 5, 7, 0x4057a057c1756254),
    ("Linf", 13, 11, 0x4062f95350000000),
    ("Linf", 96, 13, 0x406f15a9a3ad4800),
    ("Linf", 784, 17, 0x406e483355000000),
    ("Minkowski3", 5, 7, 0x4057e235a9c96900),
    ("Minkowski3", 13, 11, 0x40638ec9e922777c),
    ("Minkowski3", 96, 13, 0x4075a411f7576251),
    ("Minkowski3", 784, 17, 0x408774d3768867c5),
    ("Angular", 5, 31, 0x40084a20166ba1ca),
    ("Angular", 13, 10, 0x3fea70bc04e0ae45),
    ("Angular", 96, 3, 0x3ff98e3beeafb3e8),
    ("Angular", 784, 9, 0x3ffa0d4d90144455),
];

#[test]
fn golden_bits_are_pinned() {
    let mut mismatches = Vec::new();
    for &(name, dim, seed, bits) in GOLDEN {
        let (_, m) = metrics()
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("known metric");
        let (a, b) = wide_pair(dim, seed);
        let (a, b) = prepared(m.as_ref(), &a, &b);
        let got = m.dist(&a, &b).to_bits();
        if got != bits {
            mismatches.push(format!(
                "(\"{name}\", {dim}, {seed}, {got:#018x}), // pinned {bits:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden bits moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn golden_table_tells_the_lane_order_from_a_sequential_sum() {
    // Every order-dependent metric has a pinned row that a sequential sum
    // would not reproduce, so the table really pins the reduction order.
    for (name, m) in metrics().into_iter().filter(|(n, _)| *n != "Linf") {
        let distinguished = GOLDEN
            .iter()
            .filter(|g| g.0 == name)
            .any(|&(_, dim, seed, bits)| {
                let (a, b) = wide_pair(dim, seed);
                let (a, b) = prepared(m.as_ref(), &a, &b);
                reference(name, &a, &b).to_bits() != bits
            });
        assert!(
            distinguished,
            "{name}: no golden row depends on the reduction order"
        );
    }
}
