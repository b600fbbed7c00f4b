//! Per-frame, per-class count helpers.
//!
//! BlazeIt's aggregation and scrubbing optimizations operate on per-frame object
//! counts. [`CountVector`] is a compact, fixed-size count per class used both as the
//! label for training specialized NNs and as the statistic estimated by the samplers.

#![expect(
    clippy::indexing_slicing,
    reason = "counts is [u16; ObjectClass::ALL.len()] indexed by ObjectClass::index(), the \
              variant's position in ALL"
)]

use crate::detector::Detection;
use blazeit_videostore::{GroundTruthObject, ObjectClass};
use serde::{Deserialize, Serialize};

/// Counts of objects per class in a single frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CountVector {
    counts: [u16; ObjectClass::ALL.len()],
}

impl CountVector {
    /// An all-zero count vector.
    pub fn zero() -> Self {
        CountVector::default()
    }

    /// Builds a count vector from detections.
    pub fn from_detections(detections: &[Detection]) -> Self {
        let mut v = CountVector::default();
        for d in detections {
            v.increment(d.class);
        }
        v
    }

    /// Builds a count vector from ground-truth objects.
    pub fn from_ground_truth(objects: &[GroundTruthObject]) -> Self {
        let mut v = CountVector::default();
        for o in objects {
            v.increment(o.class);
        }
        v
    }

    /// Increments the count for `class` (saturating).
    pub fn increment(&mut self, class: ObjectClass) {
        let i = class.index();
        self.counts[i] = self.counts[i].saturating_add(1);
    }

    /// The count for `class`.
    pub fn get(&self, class: ObjectClass) -> usize {
        self.counts[class.index()] as usize
    }

    /// Sets the count for `class`.
    pub fn set(&mut self, class: ObjectClass, count: usize) {
        self.counts[class.index()] = count.min(u16::MAX as usize) as u16;
    }

    /// Total number of objects across all classes.
    pub fn total(&self) -> usize {
        self.counts.iter().map(|&c| c as usize).sum()
    }

    /// Whether the frame satisfies "at least `n` objects of `class`".
    pub fn at_least(&self, class: ObjectClass, n: usize) -> bool {
        self.get(class) >= n
    }

    /// Whether the frame satisfies *all* of the given `(class, at-least-n)` requirements
    /// — the multi-class scrubbing predicate of Section 7.1 (e.g. ≥1 bus AND ≥5 cars).
    pub fn satisfies_all(&self, requirements: &[(ObjectClass, usize)]) -> bool {
        requirements.iter().all(|&(class, n)| self.at_least(class, n))
    }

    /// Iterates over `(class, count)` pairs with non-zero counts.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (ObjectClass, usize)> + '_ {
        ObjectClass::ALL.iter().copied().map(move |c| (c, self.get(c))).filter(|&(_, n)| n > 0)
    }
}

/// Counts detections of one class.
pub fn count_class(detections: &[Detection], class: ObjectClass) -> usize {
    detections.iter().filter(|d| d.class == class).count()
}

/// Counts detections of every class.
pub fn count_classes(detections: &[Detection]) -> CountVector {
    CountVector::from_detections(detections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazeit_videostore::BoundingBox;

    fn det(class: ObjectClass) -> Detection {
        Detection::new(class, BoundingBox::new(0.0, 0.0, 10.0, 10.0), 0.9)
    }

    #[test]
    fn counting_from_detections() {
        let dets = vec![det(ObjectClass::Car), det(ObjectClass::Car), det(ObjectClass::Bus)];
        let v = count_classes(&dets);
        assert_eq!(v.get(ObjectClass::Car), 2);
        assert_eq!(v.get(ObjectClass::Bus), 1);
        assert_eq!(v.get(ObjectClass::Boat), 0);
        assert_eq!(v.total(), 3);
        assert_eq!(count_class(&dets, ObjectClass::Car), 2);
    }

    #[test]
    fn at_least_and_multi_class_predicates() {
        let dets = vec![
            det(ObjectClass::Car),
            det(ObjectClass::Car),
            det(ObjectClass::Car),
            det(ObjectClass::Bus),
        ];
        let v = count_classes(&dets);
        assert!(v.at_least(ObjectClass::Car, 3));
        assert!(!v.at_least(ObjectClass::Car, 4));
        assert!(v.satisfies_all(&[(ObjectClass::Bus, 1), (ObjectClass::Car, 3)]));
        assert!(!v.satisfies_all(&[(ObjectClass::Bus, 2), (ObjectClass::Car, 3)]));
        assert!(v.satisfies_all(&[]));
    }

    #[test]
    fn set_and_iter_nonzero() {
        let mut v = CountVector::zero();
        v.set(ObjectClass::Boat, 7);
        v.set(ObjectClass::Bird, 2);
        let nz: Vec<_> = v.iter_nonzero().collect();
        assert_eq!(nz.len(), 2);
        assert!(nz.contains(&(ObjectClass::Boat, 7)));
        assert!(nz.contains(&(ObjectClass::Bird, 2)));
    }

    #[test]
    fn saturating_increment() {
        let mut v = CountVector::zero();
        v.set(ObjectClass::Car, u16::MAX as usize);
        v.increment(ObjectClass::Car);
        assert_eq!(v.get(ObjectClass::Car), u16::MAX as usize);
    }
}
