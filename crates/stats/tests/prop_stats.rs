//! Randomized tests for the statistics substrate.
//!
//! These were proptest-based; the offline build has no proptest, so the
//! same invariants are checked over seeded random case sweeps (every
//! failure reproduces from the printed case number).

use ir_stats::summary::{percentile, percentile_sorted};
use ir_stats::{
    mann_kendall, median_ci95, pearson, spearman, theil_sen, Ecdf, Histogram, OnlineStats, Summary,
    Trend,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn gen_sample(rng: &mut StdRng) -> Vec<f64> {
    (0..rng.gen_range(1..200usize))
        .map(|_| rng.gen_range(-1e6f64..1e6))
        .collect()
}

#[test]
fn online_merge_equals_sequential() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x57_0000 + case);
        let data = gen_sample(&mut rng);
        let split_frac: f64 = rng.gen_range(0.0..1.0);
        let split = ((data.len() - 1) as f64 * split_frac) as usize;
        let seq: OnlineStats = data.iter().copied().collect();
        let a: OnlineStats = data[..split].iter().copied().collect();
        let b: OnlineStats = data[split..].iter().copied().collect();
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), seq.count(), "case {case}");
        assert!(
            (merged.mean() - seq.mean()).abs() <= 1e-6 * seq.mean().abs().max(1.0),
            "case {case}"
        );
        assert!(
            (merged.variance() - seq.variance()).abs() <= 1e-4 * seq.variance().abs().max(1.0),
            "case {case}"
        );
    }
}

#[test]
fn summary_bounds() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x57_1000 + case);
        let data = gen_sample(&mut rng);
        let s = Summary::of(&data).unwrap();
        assert!(s.min <= s.median && s.median <= s.max, "case {case}");
        assert!(s.min <= s.mean && s.mean <= s.max, "case {case}");
        assert!(s.stdev >= 0.0, "case {case}");
        assert!(s.rms + 1e-9 >= s.mean.abs() * 0.999999, "case {case}");
        assert_eq!(s.count, data.len(), "case {case}");
    }
}

#[test]
fn histogram_conserves_mass() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x57_2000 + case);
        let data = gen_sample(&mut rng);
        let bins = rng.gen_range(1..50usize);
        let h = Histogram::of(-1e5, 1e5, bins, &data);
        let in_range: u64 = (0..h.bins()).map(|i| h.count(i)).sum();
        assert_eq!(
            in_range + h.underflow() + h.overflow(),
            data.len() as u64,
            "case {case}"
        );
    }
}

#[test]
fn histogram_bins_partition() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x57_3000 + case);
        let data = gen_sample(&mut rng);
        let bins = rng.gen_range(1..30usize);
        let h = Histogram::of(-1e6, 1e6, bins, &data);
        // Every in-range point is counted exactly once: since bounds
        // cover the sample space, no under/overflow.
        assert_eq!(h.underflow() + h.overflow(), 0, "case {case}");
        let total: u64 = (0..h.bins()).map(|i| h.count(i)).sum();
        assert_eq!(total, data.len() as u64, "case {case}");
    }
}

#[test]
fn ecdf_is_monotone() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x57_4000 + case);
        let data = gen_sample(&mut rng);
        let mut probes: Vec<f64> = (0..rng.gen_range(2..20usize))
            .map(|_| rng.gen_range(-2e6f64..2e6))
            .collect();
        let e = Ecdf::new(&data);
        probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for &x in &probes {
            let c = e.cdf(x);
            assert!((0.0..=1.0).contains(&c), "case {case}");
            assert!(c + 1e-12 >= prev, "case {case}");
            prev = c;
        }
    }
}

#[test]
fn correlation_in_unit_interval() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x57_5000 + case);
        let n = rng.gen_range(3..100usize);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e4f64..1e4)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e4f64..1e4)).collect();
        let r = pearson(&xs, &ys);
        if r.is_finite() {
            assert!(
                (-1.0 - 1e-9..=1.0 + 1e-9).contains(&r),
                "case {case}: r = {r}"
            );
        }
        let rho = spearman(&xs, &ys);
        if rho.is_finite() {
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&rho), "case {case}");
        }
    }
}

#[test]
fn correlation_is_scale_invariant() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x57_6000 + case);
        let n = rng.gen_range(3..50usize);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e3f64..1e3)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e3f64..1e3)).collect();
        let scale = rng.gen_range(0.001f64..1000.0);
        let shift = rng.gen_range(-1e3f64..1e3);
        let xs2: Vec<f64> = xs.iter().map(|x| x * scale + shift).collect();
        let a = pearson(&xs, &ys);
        let b = pearson(&xs2, &ys);
        if a.is_finite() && b.is_finite() {
            assert!((a - b).abs() < 1e-6, "case {case}: {a} vs {b}");
        }
    }
}

#[test]
fn mann_kendall_detects_planted_monotone() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x57_7000 + case);
        // Turn arbitrary noise into a strictly increasing series; the
        // test must call it Increasing.
        let mut acc = 0.0;
        let series: Vec<f64> = (0..rng.gen_range(30..100usize))
            .map(|_| {
                acc += rng.gen_range(0.0f64..1.0) + 0.001;
                acc
            })
            .collect();
        let mk = mann_kendall(&series);
        assert_eq!(mk.trend(0.01), Trend::Increasing, "case {case}");
        // And its mirror must be Decreasing.
        let mirrored: Vec<f64> = series.iter().map(|v| -v).collect();
        assert_eq!(
            mann_kendall(&mirrored).trend(0.01),
            Trend::Decreasing,
            "case {case}"
        );
    }
}

#[test]
fn mann_kendall_symmetric() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x57_8000 + case);
        let data: Vec<f64> = (0..rng.gen_range(3..60usize))
            .map(|_| rng.gen_range(-1e3f64..1e3))
            .collect();
        let mk = mann_kendall(&data);
        let mirrored: Vec<f64> = data.iter().map(|v| -v).collect();
        let mk2 = mann_kendall(&mirrored);
        assert_eq!(mk.s, -mk2.s, "case {case}");
        assert!((mk.p_value - mk2.p_value).abs() < 1e-9, "case {case}");
    }
}

/// A sample of few distinct values, so ties are the rule: both zeros
/// (equal, different bits) among them.
fn gen_tied(rng: &mut StdRng, n: usize) -> Vec<f64> {
    const VALUES: [f64; 7] = [-0.0, 0.0, -1.5, 2.0, 0.0, 7.25, -0.0];
    (0..n)
        .map(|_| {
            if rng.gen_range(0..4u32) == 0 {
                rng.gen_range(-3.0f64..3.0)
            } else {
                VALUES[rng.gen_range(0..VALUES.len())]
            }
        })
        .collect()
}

#[test]
fn percentile_selects_what_a_stable_sort_gives() {
    for case in 0..2000u64 {
        let mut rng = StdRng::seed_from_u64(0x57_8000 + case);
        let n = match case % 4 {
            0 => 1 + (case / 4 % 3) as usize,
            _ => rng.gen_range(1..120usize),
        };
        let data = gen_tied(&mut rng, n);
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [0.0, 2.5, 50.0, 97.5, 100.0, rng.gen_range(0.0..=100.0)] {
            let want = percentile_sorted(&sorted, p);
            let got = percentile(&data, p);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "case {case}, p {p}: {got} vs {want} over {data:?}"
            );
        }
    }
}

#[test]
fn percentile_of_nan_panics() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x57_9000 + case);
        let n = rng.gen_range(2..40usize);
        let mut data = gen_tied(&mut rng, n);
        let at = rng.gen_range(0..data.len());
        data[at] = f64::NAN;
        let p = [0.0, 50.0, 100.0, 37.5][case as usize % 4];
        let r = std::panic::catch_unwind(|| percentile(&data, p));
        assert!(r.is_err(), "case {case}: NaN at {at} did not panic");
    }
}

#[test]
#[should_panic(expected = "NaN")]
fn theil_sen_with_a_nan_slope_panics() {
    theil_sen(&[0.0, 1.0, 2.0], &[0.0, f64::NAN, 1.0]);
}

/// Ties in x and y, x out of order (negative dx), and both zeros in y.
fn pin_sample() -> (Vec<f64>, Vec<f64>) {
    let x: Vec<f64> = (0..211u32).map(|i| f64::from((i * 29) % 37)).collect();
    let y: Vec<f64> = (0..211u32)
        .map(|i| {
            let v = f64::from((i * 53) % 23) / 4.0 - 2.5;
            if v == 0.0 && i % 2 == 1 {
                -0.0
            } else {
                v
            }
        })
        .collect();
    (x, y)
}

#[test]
fn median_ci95_and_theil_sen_are_pinned() {
    let (x, y) = pin_sample();
    let ci = median_ci95(&y, 2007);
    assert_eq!(
        (ci.lo.to_bits(), ci.hi.to_bits()),
        (0xbfd0000000000000, 0x3fe8000000000000)
    );
    assert_eq!(theil_sen(&x, &y).unwrap().to_bits(), 0x0);
    let flat: Vec<f64> = y
        .iter()
        .map(|&v| if v.abs() < 1.0 { v * 0.0 } else { v })
        .collect();
    assert_eq!(theil_sen(&x, &flat).unwrap().to_bits(), 0x8000000000000000);

    let smooth: Vec<f64> = (0..3079u32)
        .map(|i| 10.0 + (f64::from(i) * 1.7).sin() * 2.0)
        .collect();
    let ci = median_ci95(&smooth, 11);
    assert_eq!(
        (ci.lo.to_bits(), ci.hi.to_bits()),
        (0x4023c6da764f7c08, 0x4024337de6044ffe)
    );
    let sx: Vec<f64> = (0..400u32)
        .map(|i| (f64::from(i) * 0.37).cos() * 50.0)
        .collect();
    let sy: Vec<f64> = sx.iter().zip(&smooth).map(|(a, b)| 2.0 * a + b).collect();
    assert_eq!(theil_sen(&sx, &sy).unwrap().to_bits(), 0x40000058f9b3572a);
}
