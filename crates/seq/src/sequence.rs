//! The [`AddressSequence`] type: an ordered stream of 1-D addresses.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};

use crate::error::SeqError;
use crate::shape::{ArrayShape, Layout};

/// An ordered, repeatable stream of one-dimensional addresses — the
/// input to every address-generator architecture in this workspace.
///
/// Beyond plain storage, the type offers the sequence analyses the
/// paper's mapping procedure (§5) is built from: run-length encoding
/// (the `D` set), run-collapsed reduction (the `R` sequence) and
/// first-occurrence bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AddressSequence {
    values: Vec<u32>,
}

impl AddressSequence {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a vector of addresses.
    pub fn from_vec(values: Vec<u32>) -> Self {
        AddressSequence { values }
    }

    /// The addresses as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.values
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the sequence has no elements.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over the addresses.
    pub fn iter(&self) -> std::slice::Iter<'_, u32> {
        self.values.iter()
    }

    /// Appends an address.
    pub fn push(&mut self, address: u32) {
        self.values.push(address);
    }

    /// Largest address, or `None` when empty.
    pub fn max_address(&self) -> Option<u32> {
        self.values.iter().copied().max()
    }

    /// Number of distinct addresses.
    pub fn num_distinct(&self) -> usize {
        let mut v = self.values.clone();
        v.sort_unstable();
        v.dedup();
        v.len()
    }

    /// Run-length encodes consecutive repetitions: `[5,5,1,4,4,4]` →
    /// `[(5,2),(1,1),(4,3)]`. This is the paper's `D` computation.
    pub fn run_length_encode(&self) -> Vec<(u32, usize)> {
        let mut runs = Vec::new();
        for &v in &self.values {
            match runs.last_mut() {
                Some((last, count)) if *last == v => *count += 1,
                _ => runs.push((v, 1)),
            }
        }
        runs
    }

    /// Collapses consecutive repetitions to single elements (the
    /// paper's reduced sequence `R`): `[0,0,1,1]` → `[0,1]`.
    pub fn collapse_runs(&self) -> AddressSequence {
        AddressSequence::from_vec(
            self.run_length_encode()
                .into_iter()
                .map(|(v, _)| v)
                .collect(),
        )
    }

    /// Distinct addresses in order of first appearance (the paper's
    /// unique sequence `U`), with their occurrence counts (`O`) and the
    /// index of their first appearance (`Z`).
    ///
    /// One hashed pass over the sequence: expected O(len) time and
    /// O(|U|) extra space, whatever the address values. See
    /// [`rank_in_order`](Self::rank_in_order) for the hash.
    pub fn unique_in_order(&self) -> Vec<UniqueEntry> {
        self.rank_in_order().0
    }

    /// [`unique_in_order`](Self::unique_in_order) together with the
    /// first-appearance rank of every element: `ranks[i]` indexes the
    /// entry of `self[i]`'s address. Dense tables indexed by rank then
    /// stand in for lookups by address.
    ///
    /// The pass hashes each address with one multiply and fold under a
    /// key drawn per call from the standard library's
    /// [`RandomState`], a fraction of SipHash's cost per element. The
    /// key matters: addresses come from clients, and under a fixed
    /// multiplicative hash a client could pick colliding addresses
    /// (multiples of 2¹⁶, say) and make the pass quadratic.
    pub fn rank_in_order(&self) -> (Vec<UniqueEntry>, Vec<usize>) {
        let mut rank_of = HashMap::with_hasher(AddressHashKey::new());
        let mut unique: Vec<UniqueEntry> = Vec::new();
        let mut ranks = Vec::with_capacity(self.values.len());
        for (pos, &v) in self.values.iter().enumerate() {
            let rank = *rank_of.entry(v).or_insert_with(|| {
                unique.push(UniqueEntry {
                    address: v,
                    occurrences: 0,
                    first_position: pos,
                });
                unique.len() - 1
            });
            unique[rank].occurrences += 1;
            ranks.push(rank);
        }
        (unique, ranks)
    }

    /// Splits a linear sequence into `(row, column)` sequences for an
    /// array of `shape` linearized with `layout` — paper Table 1's
    /// `RowAS` / `ColAS`.
    ///
    /// # Errors
    ///
    /// Returns [`SeqError::AddressOutOfRange`] (with the offending
    /// position) if any address exceeds the array capacity.
    pub fn decompose(
        &self,
        shape: ArrayShape,
        layout: Layout,
    ) -> Result<(AddressSequence, AddressSequence), SeqError> {
        let mut rows = Vec::with_capacity(self.len());
        let mut cols = Vec::with_capacity(self.len());
        for (position, &a) in self.values.iter().enumerate() {
            let (r, c) = shape.to_row_col(a, layout).map_err(|e| match e {
                SeqError::AddressOutOfRange {
                    address, capacity, ..
                } => SeqError::AddressOutOfRange {
                    address,
                    capacity,
                    position,
                },
                other => other,
            })?;
            rows.push(r);
            cols.push(c);
        }
        Ok((
            AddressSequence::from_vec(rows),
            AddressSequence::from_vec(cols),
        ))
    }

    /// Recombines row and column sequences into a linear sequence —
    /// the inverse of [`decompose`](Self::decompose).
    ///
    /// # Errors
    ///
    /// Returns [`SeqError::EmptyGeometry`] if the two sequences differ
    /// in length, or [`SeqError::AddressOutOfRange`] for coordinates
    /// outside the shape.
    pub fn compose(
        rows: &AddressSequence,
        cols: &AddressSequence,
        shape: ArrayShape,
        layout: Layout,
    ) -> Result<AddressSequence, SeqError> {
        if rows.len() != cols.len() {
            return Err(SeqError::EmptyGeometry {
                what: "row/column sequences differ in length",
            });
        }
        let mut out = Vec::with_capacity(rows.len());
        for (position, (&r, &c)) in rows.iter().zip(cols.iter()).enumerate() {
            let a = shape.to_linear(r, c, layout).map_err(|e| match e {
                SeqError::AddressOutOfRange {
                    address, capacity, ..
                } => SeqError::AddressOutOfRange {
                    address,
                    capacity,
                    position,
                },
                other => other,
            })?;
            out.push(a);
        }
        Ok(AddressSequence::from_vec(out))
    }

    /// The smallest period `p` dividing the length such that the
    /// sequence equals `p`-element tiles, or the full length if none.
    /// Returns 0 for an empty sequence.
    pub fn minimal_period(&self) -> usize {
        let len = self.values.len();
        (1..=len)
            .filter(|p| len.is_multiple_of(*p))
            .find(|&p| (0..len).all(|i| self.values[i] == self.values[i % p]))
            .unwrap_or(0)
    }

    /// The sequence repeated `times` times end-to-end.
    pub fn repeated(&self, times: usize) -> AddressSequence {
        let mut v = Vec::with_capacity(self.len() * times);
        for _ in 0..times {
            v.extend_from_slice(&self.values);
        }
        AddressSequence::from_vec(v)
    }
}

/// The per-call key of [`AddressSequence::rank_in_order`]'s hash: a
/// start value and an odd multiplier, both drawn from [`RandomState`].
#[derive(Debug, Clone, Copy)]
struct AddressHashKey {
    start: u64,
    multiplier: u64,
}

impl AddressHashKey {
    fn new() -> Self {
        let random = RandomState::new();
        AddressHashKey {
            start: random.hash_one(0u8),
            multiplier: random.hash_one(1u8) | 1,
        }
    }
}

impl BuildHasher for AddressHashKey {
    type Hasher = AddressHasher;

    fn build_hasher(&self) -> AddressHasher {
        AddressHasher {
            multiplier: self.multiplier,
            hash: self.start,
        }
    }
}

/// Folds each `u32` written into the hash with one 64x64 → 128-bit
/// multiply, whose high and low halves are XORed, so every input bit
/// reaches both the low bits that pick a bucket and the high bits the
/// table compares.
struct AddressHasher {
    multiplier: u64,
    hash: u64,
}

impl Hasher for AddressHasher {
    fn write_u32(&mut self, x: u32) {
        let product = u128::from(self.hash ^ u64::from(x)) * u128::from(self.multiplier);
        self.hash = product as u64 ^ (product >> 64) as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// One entry of [`AddressSequence::unique_in_order`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniqueEntry {
    /// The distinct address.
    pub address: u32,
    /// How many times it occurs in the sequence.
    pub occurrences: usize,
    /// Index of its first occurrence.
    pub first_position: usize,
}

impl fmt::Display for AddressSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<u32>> for AddressSequence {
    fn from(values: Vec<u32>) -> Self {
        AddressSequence::from_vec(values)
    }
}

impl From<&[u32]> for AddressSequence {
    fn from(values: &[u32]) -> Self {
        AddressSequence::from_vec(values.to_vec())
    }
}

impl FromIterator<u32> for AddressSequence {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        AddressSequence::from_vec(iter.into_iter().collect())
    }
}

impl Extend<u32> for AddressSequence {
    fn extend<T: IntoIterator<Item = u32>>(&mut self, iter: T) {
        self.values.extend(iter);
    }
}

impl<'a> IntoIterator for &'a AddressSequence {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;
    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

impl IntoIterator for AddressSequence {
    type Item = u32;
    type IntoIter = std::vec::IntoIter<u32>;
    fn into_iter(self) -> Self::IntoIter {
        self.values.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_length_encoding() {
        let s = AddressSequence::from_vec(vec![5, 5, 1, 1, 4, 4, 0, 0]);
        assert_eq!(s.run_length_encode(), vec![(5, 2), (1, 2), (4, 2), (0, 2)]);
        assert_eq!(s.collapse_runs().as_slice(), &[5, 1, 4, 0]);
    }

    #[test]
    fn rle_of_empty() {
        let s = AddressSequence::new();
        assert!(s.run_length_encode().is_empty());
        assert!(s.collapse_runs().is_empty());
        assert_eq!(s.max_address(), None);
    }

    #[test]
    fn unique_in_order_matches_paper_parameters() {
        // R for the paper's RowAS: 0,1,0,1,2,3,2,3 → U = 0,1,2,3;
        // O = 2,2,2,2; Z = 0,1,4,5.
        let r = AddressSequence::from_vec(vec![0, 1, 0, 1, 2, 3, 2, 3]);
        let u = r.unique_in_order();
        assert_eq!(
            u.iter().map(|e| e.address).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(
            u.iter().map(|e| e.occurrences).collect::<Vec<_>>(),
            vec![2, 2, 2, 2]
        );
        assert_eq!(
            u.iter().map(|e| e.first_position).collect::<Vec<_>>(),
            vec![0, 1, 4, 5]
        );
    }

    #[test]
    fn unique_in_order_matches_linear_scan_reference() {
        // The per-element linear scan the hashed pass replaced.
        fn reference(values: &[u32]) -> Vec<UniqueEntry> {
            let mut out: Vec<UniqueEntry> = Vec::new();
            for (pos, &v) in values.iter().enumerate() {
                if let Some(e) = out.iter_mut().find(|e| e.address == v) {
                    e.occurrences += 1;
                } else {
                    out.push(UniqueEntry {
                        address: v,
                        occurrences: 1,
                        first_position: pos,
                    });
                }
            }
            out
        }
        let mut state = 2026u64;
        let mut next = |bound: u32| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 32) % u64::from(bound)) as u32
        };
        for _ in 0..300 {
            // A small alphabet of sparse labels, so addresses repeat.
            let mut alphabet = vec![0, 7, 1 << 31, u32::MAX];
            for _ in 0..next(8) {
                alphabet.push(next(u32::MAX));
            }
            let len = next(80);
            let values: Vec<u32> = (0..len)
                .map(|_| alphabet[next(alphabet.len() as u32) as usize])
                .collect();
            let s = AddressSequence::from_vec(values);
            let unique = s.unique_in_order();
            assert_eq!(unique, reference(s.as_slice()), "sequence {s}");
            let (ranked, ranks) = s.rank_in_order();
            assert_eq!(ranked, unique);
            assert_eq!(ranks.len(), s.len());
            for (&v, &rank) in s.iter().zip(&ranks) {
                assert_eq!(unique[rank].address, v);
            }
        }
    }

    #[test]
    fn rank_in_order_matches_a_btreemap_reference() {
        // Ranks by first appearance through an ordered map, which no
        // choice of addresses can slow down or confuse.
        fn reference(values: &[u32]) -> (Vec<UniqueEntry>, Vec<usize>) {
            let mut rank_of = std::collections::BTreeMap::new();
            let mut unique: Vec<UniqueEntry> = Vec::new();
            let mut ranks = Vec::new();
            for (pos, &v) in values.iter().enumerate() {
                let rank = *rank_of.entry(v).or_insert(unique.len());
                if rank == unique.len() {
                    unique.push(UniqueEntry {
                        address: v,
                        occurrences: 0,
                        first_position: pos,
                    });
                }
                unique[rank].occurrences += 1;
                ranks.push(rank);
            }
            (unique, ranks)
        }
        let mut state = 0x5eed_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 32) % bound
        };
        // The keys a fixed multiplicative hash sends to one bucket:
        // every multiple of 2^16, with the extremes of the range.
        let mut aligned: Vec<u32> = (0..1u32 << 16).map(|i| i << 16).collect();
        aligned.extend([0, u32::MAX, u32::MAX - 1]);
        let check = |values: Vec<u32>| {
            let s = AddressSequence::from_vec(values);
            assert_eq!(
                s.rank_in_order(),
                reference(s.as_slice()),
                "{} elements",
                s.len()
            );
        };
        check(aligned.clone());
        check(aligned.iter().rev().chain(&aligned).copied().collect());
        for _ in 0..200 {
            let len = next(300) as usize;
            let alphabet = 1 + next(64);
            let values = (0..len)
                .map(|_| match next(4) {
                    0 => aligned[next(aligned.len() as u64) as usize],
                    1 => next(alphabet) as u32,
                    2 => u32::MAX - next(alphabet) as u32,
                    _ => (next(alphabet) as u32) << 16,
                })
                .collect();
            check(values);
        }
    }

    #[test]
    fn decompose_compose_round_trip() {
        let shape = ArrayShape::new(4, 4);
        let lin = AddressSequence::from_vec(vec![0, 1, 4, 5, 2, 3, 6, 7, 15]);
        let (rows, cols) = lin.decompose(shape, Layout::RowMajor).unwrap();
        let back = AddressSequence::compose(&rows, &cols, shape, Layout::RowMajor).unwrap();
        assert_eq!(back, lin);
    }

    #[test]
    fn decompose_reports_position() {
        let shape = ArrayShape::new(2, 2);
        let lin = AddressSequence::from_vec(vec![0, 1, 9]);
        let err = lin.decompose(shape, Layout::RowMajor).unwrap_err();
        assert_eq!(
            err,
            SeqError::AddressOutOfRange {
                address: 9,
                capacity: 4,
                position: 2
            }
        );
    }

    #[test]
    fn compose_length_mismatch() {
        let shape = ArrayShape::new(2, 2);
        let a = AddressSequence::from_vec(vec![0]);
        let b = AddressSequence::from_vec(vec![0, 1]);
        assert!(AddressSequence::compose(&a, &b, shape, Layout::RowMajor).is_err());
    }

    #[test]
    fn collection_traits() {
        let s: AddressSequence = (0..4).collect();
        assert_eq!(s.as_slice(), &[0, 1, 2, 3]);
        let mut s2 = s.clone();
        s2.extend(4..6);
        assert_eq!(s2.len(), 6);
        let total: u32 = (&s2).into_iter().sum();
        assert_eq!(total, 15);
        let owned: Vec<u32> = s2.into_iter().collect();
        assert_eq!(owned.len(), 6);
    }

    #[test]
    fn display_format() {
        let s = AddressSequence::from_vec(vec![5, 1, 4]);
        assert_eq!(s.to_string(), "[5,1,4]");
        assert_eq!(AddressSequence::new().to_string(), "[]");
    }

    #[test]
    fn repeated_tiles() {
        let s = AddressSequence::from_vec(vec![1, 2]);
        assert_eq!(s.repeated(3).as_slice(), &[1, 2, 1, 2, 1, 2]);
        assert!(s.repeated(0).is_empty());
    }

    #[test]
    fn minimal_period_detection() {
        assert_eq!(
            AddressSequence::from_vec(vec![1, 2, 1, 2, 1, 2]).minimal_period(),
            2
        );
        assert_eq!(AddressSequence::from_vec(vec![1, 2, 3]).minimal_period(), 3);
        assert_eq!(AddressSequence::from_vec(vec![5]).minimal_period(), 1);
        assert_eq!(AddressSequence::new().minimal_period(), 0);
        // Non-dividing repetition does not count: 1,2,1 has period 3.
        assert_eq!(AddressSequence::from_vec(vec![1, 2, 1]).minimal_period(), 3);
    }

    #[test]
    fn num_distinct_counts() {
        let s = AddressSequence::from_vec(vec![3, 3, 1, 3, 2]);
        assert_eq!(s.num_distinct(), 3);
    }
}
