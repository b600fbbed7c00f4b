//! Small statistics helpers: batch mean/variance, correlation, and the normal
//! percent-point function used by the CLT stopping rule (Section 6.1).

/// Mean and population variance of a slice in one pass.
pub fn mean_and_variance(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var)
}

/// Mean and sample variance (Bessel's correction; 0 for fewer than two values) of
/// a slice.
pub fn mean_and_sample_variance(values: &[f64]) -> (f64, f64) {
    let n = values.len().max(1) as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = if values.len() > 1 {
        values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    (mean, var)
}

/// Pearson correlation of two equal-length slices (0 when degenerate).
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() != ys.len() || xs.len() < 2 {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx <= 0.0 || vy <= 0.0 {
        0.0
    } else {
        cov / (vx.sqrt() * vy.sqrt())
    }
}

/// The standard normal percent-point function (inverse CDF), via Acklam's rational
/// approximation (max absolute error ~4.5e-4, far more precision than the stopping
/// rule needs).
// Acklam's published coefficients are kept verbatim, trailing zeros included.
#[allow(clippy::excessive_precision)]
pub fn normal_ppf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal_ppf requires p in (0, 1), got {p}");
    // Coefficients for the rational approximations.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The two-sided normal critical value for a confidence level (e.g. 0.95 → ~1.96).
pub fn normal_critical_value(confidence: f64) -> f64 {
    let conf = confidence.clamp(0.5, 0.999_999);
    normal_ppf(1.0 - (1.0 - conf) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlation_bounds_and_signs() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        assert!((correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((correlation(&xs, &neg) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&xs, &[1.0, 1.0, 1.0, 1.0, 1.0]), 0.0);
        assert_eq!(correlation(&xs, &[1.0]), 0.0);
    }

    #[test]
    fn normal_ppf_known_values() {
        assert!((normal_ppf(0.5)).abs() < 1e-8);
        assert!((normal_ppf(0.975) - 1.959_964).abs() < 1e-3);
        assert!((normal_ppf(0.025) + 1.959_964).abs() < 1e-3);
        assert!((normal_ppf(0.995) - 2.575_829).abs() < 1e-3);
        assert!((normal_ppf(0.0001) + 3.719_016).abs() < 2e-3);
    }

    #[test]
    fn critical_value_for_confidence() {
        assert!((normal_critical_value(0.95) - 1.96).abs() < 1e-2);
        assert!((normal_critical_value(0.99) - 2.576).abs() < 1e-2);
        // Higher confidence requires a wider interval.
        assert!(normal_critical_value(0.99) > normal_critical_value(0.9));
    }

    #[test]
    #[should_panic]
    fn normal_ppf_rejects_out_of_range() {
        normal_ppf(0.0);
    }

    #[test]
    fn mean_and_variance_helper() {
        let (m, v) = mean_and_variance(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((v - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(mean_and_variance(&[]), (0.0, 0.0));
        // The Bessel-corrected sibling: 2/2 for the same values, 0 when degenerate.
        let (m, v) = mean_and_sample_variance(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((v - 1.0).abs() < 1e-12);
        assert_eq!(mean_and_sample_variance(&[3.0]), (3.0, 0.0));
        assert_eq!(mean_and_sample_variance(&[]), (0.0, 0.0));
    }
}
