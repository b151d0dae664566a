//! Fission segmentation: exact partitions of an iteration space.
//!
//! Kernel fission (paper §IV) splits a kernel's element range and its input
//! transfers into `k` segments pipelined over streams. Correctness demands
//! the segments form a *partition* of the unsegmented range — no element
//! computed twice (overlap) and none dropped (gap). [`partition`] produces
//! a balanced exact partition; [`check_partition`] is the validator the
//! fission scheduler and the `fission-segment-overlap` lint call, returning
//! a concrete witness element on failure.

use std::fmt;

/// A half-open segment `[lo, hi)` of an iteration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegRange {
    /// First element (inclusive).
    pub lo: u64,
    /// One past the last element.
    pub hi: u64,
}

impl SegRange {
    /// Number of elements in the segment.
    pub fn len(&self) -> u64 {
        self.hi.saturating_sub(self.lo)
    }

    /// Whether the segment covers no elements.
    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }
}

impl fmt::Display for SegRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

/// Why a segment list fails to partition `[0, total)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentError {
    /// A segment has `hi < lo`.
    Inverted {
        /// Index of the malformed segment.
        seg: usize,
    },
    /// Segment `seg` starts before the previous one ends: `witness` is an
    /// element covered twice.
    Overlap {
        /// Index of the overlapping segment.
        seg: usize,
        /// An element covered by both `seg` and an earlier segment.
        witness: u64,
    },
    /// Segment `seg` starts after the previous one ends (or after 0 for
    /// the first): `witness` is an element never covered.
    Gap {
        /// Index of the segment after the gap (`segs.len()` when the tail
        /// of the range is uncovered).
        seg: usize,
        /// An element no segment covers.
        witness: u64,
    },
    /// The segments run past `total`.
    Overrun {
        /// Index of the segment crossing the end.
        seg: usize,
        /// The claimed end, beyond `total`.
        hi: u64,
    },
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Inverted { seg } => write!(f, "segment {seg} has hi < lo"),
            SegmentError::Overlap { seg, witness } => {
                write!(
                    f,
                    "segment {seg} overlaps its predecessor: element {witness} is computed twice"
                )
            }
            SegmentError::Gap { seg, witness } => {
                write!(f, "gap before segment {seg}: element {witness} is never computed")
            }
            SegmentError::Overrun { seg, hi } => {
                write!(f, "segment {seg} runs to {hi}, past the iteration space")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

/// Split `[0, total)` into `k` contiguous segments whose lengths differ by
/// at most one and whose union is exactly the input range (the first
/// `total % k` segments take the extra element).
pub fn partition(total: u64, k: u32) -> Vec<SegRange> {
    let k = k.max(1) as u64;
    let base = total / k;
    let rem = total % k;
    let mut lo = 0u64;
    let out: Vec<SegRange> = (0..k)
        .map(|s| {
            let len = base + u64::from(s < rem);
            let seg = SegRange { lo, hi: lo + len };
            lo += len;
            seg
        })
        .collect();
    // Defense in depth for callers that bypass the scheduler's explicit
    // check.
    debug_assert!(check_partition(total, &out).is_ok());
    out
}

/// Verify that `segs` partitions `[0, total)` exactly: contiguous, in
/// order, no overlap, no gap, ending at `total`. On failure the error
/// carries a witness element — the concrete counterexample the
/// `fission-segment-overlap` lint renders.
pub fn check_partition(total: u64, segs: &[SegRange]) -> Result<(), SegmentError> {
    let mut expected = 0u64;
    for (i, seg) in segs.iter().enumerate() {
        if seg.hi < seg.lo {
            return Err(SegmentError::Inverted { seg: i });
        }
        if seg.lo < expected {
            return Err(SegmentError::Overlap { seg: i, witness: seg.lo });
        }
        if seg.lo > expected {
            return Err(SegmentError::Gap { seg: i, witness: expected });
        }
        if seg.hi > total {
            return Err(SegmentError::Overrun { seg: i, hi: seg.hi });
        }
        expected = seg.hi;
    }
    if expected < total {
        return Err(SegmentError::Gap { seg: segs.len(), witness: expected });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_exact_and_balanced() {
        for total in [0u64, 1, 7, 8, 9, 10, 1 << 20, (1 << 20) + 3] {
            for k in [1u32, 2, 3, 4, 8] {
                let segs = partition(total, k);
                assert_eq!(segs.len(), k as usize);
                check_partition(total, &segs).unwrap();
                let (min, max) = segs
                    .iter()
                    .fold((u64::MAX, 0), |(lo, hi), s| (lo.min(s.len()), hi.max(s.len())));
                assert!(max - min <= 1, "unbalanced: {segs:?}");
                assert_eq!(segs.iter().map(SegRange::len).sum::<u64>(), total);
            }
        }
    }

    #[test]
    fn rounding_schemes_that_are_not_partitions_are_rejected() {
        // round(n/k) per segment over-covers n=10, k=4 (3+3+3+3 = 12).
        let n = 10u64;
        let per = (n as f64 / 4.0).round() as u64;
        let segs: Vec<SegRange> =
            (0..4).map(|s| SegRange { lo: s * per, hi: (s + 1) * per }).collect();
        assert!(check_partition(n, &segs).is_err());
    }

    #[test]
    fn overlap_names_a_witness_element() {
        let mut segs = partition(100, 4);
        segs[2].lo -= 1; // off-by-one: element 49 computed twice
        match check_partition(100, &segs) {
            Err(SegmentError::Overlap { seg: 2, witness }) => assert_eq!(witness, 49),
            other => panic!("expected overlap, got {other:?}"),
        }
    }

    #[test]
    fn gap_names_the_dropped_element() {
        let mut segs = partition(100, 4);
        segs[1].lo += 1; // element 25 never computed
        match check_partition(100, &segs) {
            Err(SegmentError::Gap { seg: 1, witness }) => assert_eq!(witness, 25),
            other => panic!("expected gap, got {other:?}"),
        }
    }

    #[test]
    fn truncated_tail_is_a_gap() {
        let mut segs = partition(100, 4);
        segs[3].hi -= 1;
        match check_partition(100, &segs) {
            Err(SegmentError::Gap { seg: 4, witness }) => assert_eq!(witness, 99),
            other => panic!("expected tail gap, got {other:?}"),
        }
    }
}
