//! Column compression for PCIe transfer reduction — the extension the
//! paper's related work points at: "He et al. also point out that the PCIe
//! transfer time may outweigh the speedup brought by the GPUs and suggest
//! the use of data compression techniques to reduce the amount of
//! transfered data" (Fang, He & Luo, VLDB 2010).
//!
//! Three real, lossless schemes over `u64` key columns:
//!
//! * [`Scheme::BitPack`] — fixed-width packing at `⌈log2(max+1)⌉` bits;
//! * [`Scheme::Delta`] — delta + bit-packing for sorted columns (frame of
//!   reference is the first value);
//! * [`Scheme::Rle`] — run-length encoding for low-cardinality columns.
//!
//! [`best_for`] picks the smallest encoding. On the GPU side the decoder is
//! an ordinary elementwise plan operator (the `compression` bench builds
//! packed input → decode → SELECT), so the executor weighs *compressed
//! transfer + decode* against plain transfers — and, in the spirit of the
//! paper, the decode **fuses** with the consuming filter: the decompressed
//! column then never touches GPU global memory at all.

/// A compression scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Fixed-width bit packing.
    BitPack,
    /// Delta encoding (sorted inputs) + bit packing of the gaps.
    Delta,
    /// Run-length encoding: `(value, run)` pairs, bit-packed.
    Rle,
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scheme::BitPack => write!(f, "bitpack"),
            Scheme::Delta => write!(f, "delta+bitpack"),
            Scheme::Rle => write!(f, "rle"),
        }
    }
}

/// A compressed column block.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedBlock {
    /// Scheme used.
    pub scheme: Scheme,
    /// Bits per packed element (or per RLE field).
    pub bits: u32,
    /// Original element count.
    pub n: usize,
    /// Frame of reference (Delta) — the first value.
    pub base: u64,
    /// Packed payload.
    pub payload: Vec<u8>,
}

impl CompressedBlock {
    /// Bytes on the wire (payload plus a small fixed header).
    pub fn wire_bytes(&self) -> u64 {
        self.payload.len() as u64 + 24
    }

    /// Compression ratio versus 4-byte elements (the paper's compressed
    /// 32-bit row representation).
    pub fn ratio_vs_u32(&self) -> f64 {
        (self.n as f64 * 4.0) / self.wire_bytes() as f64
    }
}

/// Errors from compression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// Delta encoding requires a non-decreasing column.
    NotSorted,
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::NotSorted => write!(f, "delta compression requires sorted input"),
        }
    }
}

impl std::error::Error for CompressError {}

fn bits_for(max: u64) -> u32 {
    64 - max.leading_zeros()
}

/// Pack `values` at `bits` bits each (little-endian bit order).
fn pack(values: impl Iterator<Item = u64>, bits: u32, n_hint: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity((n_hint * bits as usize).div_ceil(8));
    let mut acc: u64 = 0;
    let mut filled: u32 = 0;
    for v in values {
        debug_assert!(bits == 64 || v < (1u64 << bits));
        acc |= v << filled;
        let take = (64 - filled).min(bits);
        filled += take;
        if filled == 64 {
            out.extend_from_slice(&acc.to_le_bytes());
            let rem = bits - take;
            acc = if rem > 0 { v >> take } else { 0 };
            filled = rem;
        }
    }
    if filled > 0 {
        out.extend_from_slice(&acc.to_le_bytes()[..(filled as usize).div_ceil(8)]);
    }
    out
}

/// Unpack `n` values of `bits` bits each.
fn unpack(payload: &[u8], bits: u32, n: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(n);
    let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
    for i in 0..n {
        let bit_pos = i as u64 * bits as u64;
        let byte = (bit_pos / 8) as usize;
        let shift = (bit_pos % 8) as u32;
        // Read up to 16 bytes to cover any 64-bit value straddling bytes.
        let mut word = [0u8; 16];
        let take = (payload.len() - byte).min(16);
        word[..take].copy_from_slice(&payload[byte..byte + take]);
        let lo = u64::from_le_bytes(word[..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(word[8..].try_into().expect("8 bytes"));
        let v = if shift == 0 { lo } else { (lo >> shift) | (hi << (64 - shift)) };
        out.push(v & mask);
    }
    out
}

/// Compress with a specific scheme.
pub fn compress(values: &[u64], scheme: Scheme) -> Result<CompressedBlock, CompressError> {
    match scheme {
        Scheme::BitPack => {
            let max = values.iter().copied().max().unwrap_or(0);
            let bits = bits_for(max).max(1);
            Ok(CompressedBlock {
                scheme,
                bits,
                n: values.len(),
                base: 0,
                payload: pack(values.iter().copied(), bits, values.len()),
            })
        }
        Scheme::Delta => {
            if values.windows(2).any(|w| w[0] > w[1]) {
                return Err(CompressError::NotSorted);
            }
            let base = values.first().copied().unwrap_or(0);
            let gaps: Vec<u64> = values.windows(2).map(|w| w[1] - w[0]).collect();
            let max_gap = gaps.iter().copied().max().unwrap_or(0);
            let bits = bits_for(max_gap).max(1);
            Ok(CompressedBlock {
                scheme,
                bits,
                n: values.len(),
                base,
                payload: pack(gaps.into_iter(), bits, values.len().saturating_sub(1)),
            })
        }
        Scheme::Rle => {
            // (value, run-1) pairs, both bit-packed at the same width.
            let mut pairs: Vec<u64> = Vec::new();
            let mut i = 0;
            let mut max_field = 0u64;
            while i < values.len() {
                let v = values[i];
                let mut run = 1u64;
                while i + (run as usize) < values.len() && values[i + run as usize] == v {
                    run += 1;
                }
                pairs.push(v);
                pairs.push(run - 1);
                max_field = max_field.max(v).max(run - 1);
                i += run as usize;
            }
            let bits = bits_for(max_field).max(1);
            let n_fields = pairs.len();
            Ok(CompressedBlock {
                scheme,
                bits,
                n: values.len(),
                base: n_fields as u64,
                payload: pack(pairs.into_iter(), bits, n_fields),
            })
        }
    }
}

/// Decompress a block back to the original values.
pub fn decompress(block: &CompressedBlock) -> Vec<u64> {
    match block.scheme {
        Scheme::BitPack => unpack(&block.payload, block.bits, block.n),
        Scheme::Delta => {
            if block.n == 0 {
                return Vec::new();
            }
            let gaps = unpack(&block.payload, block.bits, block.n - 1);
            let mut out = Vec::with_capacity(block.n);
            let mut cur = block.base;
            out.push(cur);
            for g in gaps {
                cur += g;
                out.push(cur);
            }
            out
        }
        Scheme::Rle => {
            let fields = unpack(&block.payload, block.bits, block.base as usize);
            let mut out = Vec::with_capacity(block.n);
            for pair in fields.chunks_exact(2) {
                for _ in 0..=pair[1] {
                    out.push(pair[0]);
                }
            }
            out
        }
    }
}

/// Try every scheme (Delta only on sorted input) and return the smallest.
pub fn best_for(values: &[u64]) -> CompressedBlock {
    let mut best = compress(values, Scheme::BitPack).expect("bitpack never fails");
    for scheme in [Scheme::Delta, Scheme::Rle] {
        if let Ok(block) = compress(values, scheme) {
            if block.wire_bytes() < best.wire_bytes() {
                best = block;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitpack_roundtrip() {
        let vals: Vec<u64> = (0..10_000).map(|i| (i * 2_654_435_761u64) % 1000).collect();
        let block = compress(&vals, Scheme::BitPack).unwrap();
        assert_eq!(block.bits, 10);
        assert_eq!(decompress(&block), vals);
        assert!(block.ratio_vs_u32() > 2.5, "ratio {}", block.ratio_vs_u32());
    }

    #[test]
    fn delta_roundtrip_on_sorted() {
        let vals: Vec<u64> = (0..5_000u64).map(|i| i * 3 + (i % 7)).collect();
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        let block = compress(&sorted, Scheme::Delta).unwrap();
        assert_eq!(decompress(&block), sorted);
        // Small gaps pack far tighter than the absolute values.
        let plain = compress(&sorted, Scheme::BitPack).unwrap();
        assert!(block.wire_bytes() < plain.wire_bytes());
    }

    #[test]
    fn delta_rejects_unsorted() {
        assert_eq!(compress(&[3, 1, 2], Scheme::Delta), Err(CompressError::NotSorted));
    }

    #[test]
    fn rle_roundtrip_and_wins_on_runs() {
        let mut vals = Vec::new();
        for v in 0..50u64 {
            vals.extend(std::iter::repeat_n(v, 200));
        }
        let block = compress(&vals, Scheme::Rle).unwrap();
        assert_eq!(decompress(&block), vals);
        let plain = compress(&vals, Scheme::BitPack).unwrap();
        assert!(block.wire_bytes() < plain.wire_bytes() / 10);
    }

    #[test]
    fn best_for_picks_the_smallest() {
        let runs: Vec<u64> = std::iter::repeat_n(7u64, 10_000).collect();
        assert_eq!(best_for(&runs).scheme, Scheme::Rle);
        let sorted: Vec<u64> = (0..10_000).collect();
        assert_eq!(best_for(&sorted).scheme, Scheme::Delta);
        let random: Vec<u64> = (0..10_000).map(|i| (i * 48_271) % (1 << 20)).collect();
        assert_eq!(best_for(&random).scheme, Scheme::BitPack);
    }

    #[test]
    fn empty_and_single_element_edge_cases() {
        for scheme in [Scheme::BitPack, Scheme::Rle] {
            let b = compress(&[], scheme).unwrap();
            assert_eq!(decompress(&b), Vec::<u64>::new());
        }
        let b = compress(&[], Scheme::Delta).unwrap();
        assert_eq!(decompress(&b), Vec::<u64>::new());
        for scheme in [Scheme::BitPack, Scheme::Delta, Scheme::Rle] {
            let b = compress(&[42], scheme).unwrap();
            assert_eq!(decompress(&b), vec![42]);
        }
    }

    #[test]
    fn wide_values_roundtrip() {
        let vals = vec![u64::MAX, 0, u64::MAX / 2, 1];
        let b = compress(&vals, Scheme::BitPack).unwrap();
        assert_eq!(b.bits, 64);
        assert_eq!(decompress(&b), vals);
    }
}
