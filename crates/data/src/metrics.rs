//! Evaluation metrics following the GLUE conventions used in the paper:
//! accuracy (SST-2, QNLI, RTE, WNLI), F1 (QQP, MRPC), Matthews correlation
//! (CoLA) and Spearman correlation (STS-B), plus next-word prediction
//! accuracy for the WikiText-style language-modelling task.

/// Which scalar metric a task reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Fraction of exactly correct predictions.
    Accuracy,
    /// Binary F1 score of the positive class.
    F1,
    /// Matthews correlation coefficient.
    MatthewsCorrelation,
    /// Spearman rank correlation.
    SpearmanCorrelation,
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            MetricKind::Accuracy => "accuracy",
            MetricKind::F1 => "f1",
            MetricKind::MatthewsCorrelation => "mcc",
            MetricKind::SpearmanCorrelation => "spearman",
        };
        f.write_str(name)
    }
}

/// Classification accuracy in `[0, 1]`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use rt3_data::accuracy;
///
/// assert_eq!(accuracy(&[1, 0, 1], &[1, 1, 1]), 2.0 / 3.0);
/// ```
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    if predictions.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    correct as f64 / predictions.len() as f64
}

/// Binary F1 score treating class `1` as positive.
///
/// Returns 0.0 when there are no predicted or actual positives.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn f1_score(predictions: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    let tp = predictions
        .iter()
        .zip(labels)
        .filter(|(&p, &l)| p == 1 && l == 1)
        .count() as f64;
    let fp = predictions
        .iter()
        .zip(labels)
        .filter(|(&p, &l)| p == 1 && l == 0)
        .count() as f64;
    let fn_ = predictions
        .iter()
        .zip(labels)
        .filter(|(&p, &l)| p == 0 && l == 1)
        .count() as f64;
    if tp == 0.0 {
        return 0.0;
    }
    let precision = tp / (tp + fp);
    let recall = tp / (tp + fn_);
    2.0 * precision * recall / (precision + recall)
}

/// Matthews correlation coefficient for binary classification, in `[-1, 1]`.
///
/// Returns 0.0 when any marginal is empty (the usual convention).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn matthews_correlation(predictions: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    let mut tp = 0.0f64;
    let mut tn = 0.0f64;
    let mut fp = 0.0f64;
    let mut fn_ = 0.0f64;
    for (&p, &l) in predictions.iter().zip(labels) {
        match (p, l) {
            (1, 1) => tp += 1.0,
            (0, 0) => tn += 1.0,
            (1, 0) => fp += 1.0,
            (0, 1) => fn_ += 1.0,
            _ => {}
        }
    }
    let denom = (tp + fp) * (tp + fn_) * (tn + fp) * (tn + fn_);
    if denom == 0.0 {
        return 0.0;
    }
    (tp * tn - fp * fn_) / denom.sqrt()
}

/// Spearman rank correlation between two score vectors, in `[-1, 1]`.
///
/// Ties receive averaged ranks. Returns 0.0 for fewer than two samples or
/// zero variance.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn spearman_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    if a.len() < 2 {
        return 0.0;
    }
    let ra = ranks(a);
    let rb = ranks(b);
    pearson_correlation(&ra, &rb)
}

/// Pearson correlation between two vectors, in `[-1, 1]`.
///
/// Returns 0.0 for fewer than two samples or zero variance.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pearson_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let n = a.len() as f64;
    if a.len() < 2 {
        return 0.0;
    }
    let mean_a = a.iter().sum::<f64>() / n;
    let mean_b = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - mean_a) * (y - mean_b);
        var_a += (x - mean_a) * (x - mean_a);
        var_b += (y - mean_b) * (y - mean_b);
    }
    if var_a == 0.0 || var_b == 0.0 {
        return 0.0;
    }
    cov / (var_a.sqrt() * var_b.sqrt())
}

fn ranks(values: &[f64]) -> Vec<f64> {
    let mut indexed: Vec<(usize, f64)> = values.iter().cloned().enumerate().collect();
    indexed.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut result = vec![0.0; values.len()];
    let mut i = 0;
    while i < indexed.len() {
        let mut j = i;
        while j + 1 < indexed.len() && indexed[j + 1].1 == indexed[i].1 {
            j += 1;
        }
        // average rank for ties (1-based ranks)
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for item in indexed.iter().take(j + 1).skip(i) {
            result[item.0] = avg;
        }
        i = j + 1;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_of_perfect_and_empty_predictions() {
        assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 2]), 1.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn f1_balances_precision_and_recall() {
        // one true positive, one false positive, one false negative
        let f1 = f1_score(&[1, 1, 0], &[1, 0, 1]);
        assert!((f1 - 0.5).abs() < 1e-9);
        assert_eq!(f1_score(&[0, 0], &[0, 0]), 0.0);
    }

    #[test]
    fn mcc_is_one_for_perfect_and_minus_one_for_inverted() {
        assert!((matthews_correlation(&[1, 0, 1, 0], &[1, 0, 1, 0]) - 1.0).abs() < 1e-9);
        assert!((matthews_correlation(&[0, 1, 0, 1], &[1, 0, 1, 0]) + 1.0).abs() < 1e-9);
        assert_eq!(matthews_correlation(&[1, 1], &[1, 1]), 0.0);
    }

    #[test]
    fn spearman_detects_monotone_relationships() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let increasing = [2.0, 4.0, 6.0, 8.0, 100.0];
        let decreasing = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert!((spearman_correlation(&a, &increasing) - 1.0).abs() < 1e-9);
        assert!((spearman_correlation(&a, &decreasing) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn spearman_handles_ties_and_degenerate_input() {
        let a = [1.0, 1.0, 2.0, 3.0];
        let b = [1.0, 1.0, 2.0, 3.0];
        assert!((spearman_correlation(&a, &b) - 1.0).abs() < 1e-9);
        assert_eq!(spearman_correlation(&[1.0], &[2.0]), 0.0);
        assert_eq!(spearman_correlation(&[1.0, 1.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn pearson_of_linear_relation_is_one() {
        let a = [0.0, 1.0, 2.0, 3.0];
        let b = [1.0, 3.0, 5.0, 7.0];
        assert!((pearson_correlation(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn metric_kind_display_names() {
        assert_eq!(MetricKind::Accuracy.to_string(), "accuracy");
        assert_eq!(MetricKind::SpearmanCorrelation.to_string(), "spearman");
    }
}
