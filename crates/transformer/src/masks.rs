//! Named weight masks: the bridge between the pruning algorithms and masked
//! training / inference.
//!
//! A [`MaskSet`] maps a parameter name (e.g. `"encoder.0.attn.wq"`) to a
//! binary 0/1 matrix of the same shape. During a forward pass the model
//! multiplies each masked weight by its mask, so pruned positions contribute
//! nothing and receive no gradient — exactly the semantics needed both for
//! Level-1 BP masked fine-tuning and for Level-2 per-pattern-set sub-losses
//! (Fig. 2 of the paper).

use rt3_tensor::Matrix;
use std::collections::BTreeMap;

/// A collection of named binary weight masks.
///
/// The set keeps its pruned (zero) and covered element counts as masks are
/// inserted, so [`MaskSet::overall_sparsity`] and the element counts are
/// O(1); [`MaskSet::insert`] is the only place that updates them, and every
/// other way of adding a mask goes through it.
///
/// # Examples
///
/// ```
/// use rt3_transformer::MaskSet;
/// use rt3_tensor::Matrix;
///
/// let mut masks = MaskSet::new();
/// masks.insert("layer.w", Matrix::from_rows(&[vec![1.0, 0.0]]));
/// assert!(masks.get("layer.w").is_some());
/// assert!((masks.overall_sparsity() - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MaskSet {
    masks: BTreeMap<String, Matrix>,
    /// Zero elements over all masks.
    pruned: usize,
    /// Elements over all masks.
    covered: usize,
}

/// Zero elements of one mask.
fn zeros(mask: &Matrix) -> usize {
    mask.len() - mask.count_nonzero()
}

impl MaskSet {
    /// Creates an empty mask set (no weight is masked).
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) the mask for `name`. Values should be 0.0 or
    /// 1.0; any non-zero value is treated as "keep" by consumers. Counts
    /// the new mask's zeros once (and a replaced mask's, to take them off).
    pub fn insert(&mut self, name: impl Into<String>, mask: Matrix) {
        self.pruned += zeros(&mask);
        self.covered += mask.len();
        if let Some(old) = self.masks.insert(name.into(), mask) {
            self.pruned -= zeros(&old);
            self.covered -= old.len();
        }
    }

    /// The mask for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Matrix> {
        self.masks.get(name)
    }

    /// Number of masked parameters.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// Returns `true` if no parameter is masked.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Iterates over `(name, mask)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Matrix)> {
        self.masks.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Names of all masked parameters, in order.
    pub fn names(&self) -> Vec<&str> {
        self.masks.keys().map(String::as_str).collect()
    }

    /// Combines two mask sets by element-wise AND (a position survives only
    /// if it survives in both). Parameters masked in only one set keep that
    /// set's mask.
    ///
    /// # Panics
    ///
    /// Panics if a parameter is masked in both sets with different shapes.
    pub fn intersect(&self, other: &MaskSet) -> MaskSet {
        let mut out = self.clone();
        for (name, mask) in other.iter() {
            let combined = match self.masks.get(name) {
                Some(existing) => {
                    assert_eq!(
                        existing.shape(),
                        mask.shape(),
                        "mask shape mismatch for {}",
                        name
                    );
                    existing.zip(mask, |a, b| if a != 0.0 && b != 0.0 { 1.0 } else { 0.0 })
                }
                None => mask.clone(),
            };
            out.insert(name, combined);
        }
        out
    }

    /// Overall sparsity across all masked parameters (weighted by element
    /// count). Returns 0.0 for an empty set.
    pub fn overall_sparsity(&self) -> f64 {
        if self.covered == 0 {
            return 0.0;
        }
        self.pruned as f64 / self.covered as f64
    }

    /// Total number of masked-out (pruned) weight elements.
    pub fn pruned_elements(&self) -> usize {
        self.pruned
    }

    /// Total number of elements covered by masks.
    pub fn covered_elements(&self) -> usize {
        self.covered
    }
}

impl FromIterator<(String, Matrix)> for MaskSet {
    fn from_iter<T: IntoIterator<Item = (String, Matrix)>>(iter: T) -> Self {
        let mut set = Self::new();
        set.extend(iter);
        set
    }
}

impl Extend<(String, Matrix)> for MaskSet {
    fn extend<T: IntoIterator<Item = (String, Matrix)>>(&mut self, iter: T) {
        for (name, mask) in iter {
            self.insert(name, mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask(values: &[f32]) -> Matrix {
        Matrix::from_vec(1, values.len(), values.to_vec())
    }

    #[test]
    fn sparsity_is_weighted_by_element_count() {
        let mut m = MaskSet::new();
        m.insert("a", mask(&[1.0, 0.0]));
        m.insert("b", mask(&[1.0, 1.0, 1.0, 1.0, 0.0, 0.0]));
        // 3 zeros out of 8 elements
        assert!((m.overall_sparsity() - 3.0 / 8.0).abs() < 1e-9);
        assert_eq!(m.pruned_elements(), 3);
        assert_eq!(m.covered_elements(), 8);
    }

    #[test]
    fn intersect_requires_both_masks_to_keep() {
        let mut a = MaskSet::new();
        a.insert("w", mask(&[1.0, 1.0, 0.0, 0.0]));
        let mut b = MaskSet::new();
        b.insert("w", mask(&[1.0, 0.0, 1.0, 0.0]));
        b.insert("only_b", mask(&[0.0, 1.0]));
        let c = a.intersect(&b);
        assert_eq!(c.get("w").unwrap().as_slice(), &[1.0, 0.0, 0.0, 0.0]);
        assert!(c.get("only_b").is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn empty_set_reports_zero_sparsity() {
        assert_eq!(MaskSet::new().overall_sparsity(), 0.0);
        assert!(MaskSet::new().is_empty());
    }

    /// The kept counts against a recount of every mask's zeros.
    fn assert_counts_match_a_recount(set: &MaskSet) {
        let covered: usize = set.iter().map(|(_, m)| m.len()).sum();
        let pruned: usize = set.iter().map(|(_, m)| m.len() - m.count_nonzero()).sum();
        assert_eq!(set.covered_elements(), covered);
        assert_eq!(set.pruned_elements(), pruned);
        let sparsity = if covered == 0 {
            0.0
        } else {
            pruned as f64 / covered as f64
        };
        assert_eq!(set.overall_sparsity().to_bits(), sparsity.to_bits());
    }

    #[test]
    fn counts_follow_every_way_of_adding_a_mask() {
        let mut a = MaskSet::new();
        a.insert("w", mask(&[1.0, 0.0, 0.0, 1.0]));
        a.insert("v", mask(&[0.0, 0.0, 1.0]));
        assert_counts_match_a_recount(&a);
        // replacing a mask takes the old one's counts off
        a.insert("w", mask(&[0.0, 0.0, 0.0, 0.0, 0.0, 1.0]));
        assert_counts_match_a_recount(&a);
        a.extend([
            ("u".to_string(), mask(&[1.0, 1.0])),
            ("v".to_string(), mask(&[1.0])),
        ]);
        assert_counts_match_a_recount(&a);
        let b: MaskSet = [
            ("w".to_string(), mask(&[1.0, 1.0, 0.0, 1.0, 1.0, 1.0])),
            ("only_b".to_string(), mask(&[0.0, 1.0, 0.0])),
            ("only_b".to_string(), mask(&[0.0, 0.0])),
        ]
        .into_iter()
        .collect();
        assert_counts_match_a_recount(&b);
        let c = a.intersect(&b);
        assert_counts_match_a_recount(&c);
        assert_eq!(c.pruned_elements(), 5 + 2);
    }

    #[test]
    fn collects_from_iterator() {
        let set: MaskSet = vec![("x".to_string(), mask(&[1.0]))].into_iter().collect();
        assert_eq!(set.names(), vec!["x"]);
    }
}
