//! Delta encoding of weight vectors against a base model.
//!
//! A federation round changes a model incrementally: most of a cluster's
//! round-*r* weights are numerically close to its round-*r−1* weights, and
//! many words share their high-order bytes bit for bit. Publishing the new
//! round as a *delta against a base CID* lets a peer that already holds the
//! base reconstruct the new model from a fraction of the bytes — the
//! bandwidth lever the storage layer's `(base_cid, delta_cid)` references
//! pull on.
//!
//! The codec is **bit-exact**: `delta_from_bytes(base, delta_to_bytes(base,
//! new)) == new` down to every `f32` bit pattern (including `-0.0`), so a
//! delta-reconstructed blob re-serializes to the identical bytes and its
//! content hash matches the published CID. Four encodings compete and the
//! smallest wins, deterministically:
//!
//! - **Dense** — raw `f32` bit patterns; the fallback that can never lose
//!   more than the header, and the only mode valid when the base length
//!   differs.
//! - **Sparse** — `(index, bits)` pairs for the words that changed; wins
//!   when most words are bit-identical to the base.
//! - **Tail** — per word, a 2-bit count of high-order bytes shared with the
//!   base plus only the unshared low-order bytes; wins when values drift by
//!   small relative amounts (the common case for SGD steps near
//!   convergence).
//! - **Tail2** — per word, a 4-bit `(shared-prefix, zero-suffix)` byte-count
//!   pair plus only the middle bytes; wins when releases are
//!   precision-bounded (see [`crate::weights::quantize_release`]), whose
//!   zeroed trailing bytes it elides on top of the shared prefix.
//!
//! Like [`crate::weights::weights_from_bytes`], decoding rejects non-finite
//! results: a delta can never smuggle NaN or infinity into aggregation.

use std::fmt;

/// Magic prefix identifying a serialized weight delta.
const MAGIC: &[u8; 4] = b"UFLD";

/// Mode byte: raw bit patterns for every word.
const MODE_DENSE: u8 = 0;
/// Mode byte: `(u32 index, u32 bits)` pairs for changed words only.
const MODE_SPARSE: u8 = 1;
/// Mode byte: packed 2-bit shared-prefix tags + unshared low bytes.
const MODE_TAIL: u8 = 2;
/// Mode byte: packed 4-bit (shared-prefix, zero-suffix) tags + middle
/// bytes. Wins when releases are precision-bounded (trailing zero bytes).
const MODE_TAIL2: u8 = 3;

/// Number of high-order bytes of `new` that can be copied from `base`
/// (capped at 3 so at least one byte is always emitted, which keeps the
/// tag field at 2 bits).
fn shared_high_bytes(base: u32, new: u32) -> u32 {
    ((base ^ new).leading_zeros() / 8).min(3)
}

/// `(shared_prefix, zero_suffix)` byte counts for the TAIL2 mode: how many
/// high-order bytes of `new` match `base`, and how many of its remaining
/// low-order bytes are zero (precision-bounded releases zero whole trailing
/// bytes). `prefix + suffix <= 4` always holds.
fn tail2_tags(base: u32, new: u32) -> (u32, u32) {
    let prefix = shared_high_bytes(base, new);
    let suffix = (new.trailing_zeros() / 8).min(3).min(4 - prefix);
    (prefix, suffix)
}

fn header(mode: u8, count: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + count); // callers extend in place
    out.extend_from_slice(MAGIC);
    out.push(mode);
    out.extend_from_slice(&(count as u64).to_le_bytes());
    out
}

/// Serializes `new` as a delta against `base` (magic + mode + u64 count +
/// mode-specific payload), picking the smallest of the four encodings.
/// When the lengths differ — a model architecture change between rounds —
/// the dense encoding is used and `base` is ignored.
pub fn delta_to_bytes(base: &[f32], new: &[f32]) -> Vec<u8> {
    if base.len() != new.len() {
        return encode_dense(new);
    }
    let changed = base
        .iter()
        .zip(new)
        .filter(|(b, n)| b.to_bits() != n.to_bits())
        .count();
    let tail_payload: usize = new.len().div_ceil(4)
        + base
            .iter()
            .zip(new)
            .map(|(b, n)| 4 - shared_high_bytes(b.to_bits(), n.to_bits()) as usize)
            .sum::<usize>();
    let tail2_payload: usize = new.len().div_ceil(2)
        + base
            .iter()
            .zip(new)
            .map(|(b, n)| {
                let (p, s) = tail2_tags(b.to_bits(), n.to_bits());
                4 - p as usize - s as usize
            })
            .sum::<usize>();
    let sparse_payload = 4 + changed * 8;
    let dense_payload = new.len() * 4;

    // Deterministic choice: strictly smallest payload; ties prefer
    // tail2 > tail > sparse > dense (fixed order, so identical inputs
    // always yield identical bytes).
    let min = tail2_payload
        .min(tail_payload)
        .min(sparse_payload)
        .min(dense_payload);
    if tail2_payload == min {
        encode_tail2(base, new)
    } else if tail_payload == min {
        encode_tail(base, new)
    } else if sparse_payload == min {
        encode_sparse(base, new)
    } else {
        encode_dense(new)
    }
}

fn encode_dense(new: &[f32]) -> Vec<u8> {
    let mut out = header(MODE_DENSE, new.len());
    for w in new {
        out.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    out
}

fn encode_sparse(base: &[f32], new: &[f32]) -> Vec<u8> {
    let changed: Vec<(u32, u32)> = base
        .iter()
        .zip(new)
        .enumerate()
        .filter(|(_, (b, n))| b.to_bits() != n.to_bits())
        .map(|(i, (_, n))| (i as u32, n.to_bits()))
        .collect();
    let mut out = header(MODE_SPARSE, new.len());
    out.extend_from_slice(&(changed.len() as u32).to_le_bytes());
    for (i, bits) in changed {
        out.extend_from_slice(&i.to_le_bytes());
        out.extend_from_slice(&bits.to_le_bytes());
    }
    out
}

fn encode_tail(base: &[f32], new: &[f32]) -> Vec<u8> {
    let mut out = header(MODE_TAIL, new.len());
    // Tag plane first (2 bits per word, 4 words per byte), then the
    // variable-length byte tails in word order.
    let mut tags = vec![0u8; new.len().div_ceil(4)];
    for (i, (b, n)) in base.iter().zip(new).enumerate() {
        let shared = shared_high_bytes(b.to_bits(), n.to_bits()) as u8;
        tags[i / 4] |= shared << ((i % 4) * 2);
    }
    out.extend_from_slice(&tags);
    for (b, n) in base.iter().zip(new) {
        let shared = shared_high_bytes(b.to_bits(), n.to_bits()) as usize;
        out.extend_from_slice(&n.to_bits().to_le_bytes()[..4 - shared]);
    }
    out
}

fn encode_tail2(base: &[f32], new: &[f32]) -> Vec<u8> {
    let mut out = header(MODE_TAIL2, new.len());
    // Tag plane (4 bits per word: prefix << 2 | suffix, 2 words per byte),
    // then the middle bytes in word order.
    let mut tags = vec![0u8; new.len().div_ceil(2)];
    for (i, (b, n)) in base.iter().zip(new).enumerate() {
        let (p, s) = tail2_tags(b.to_bits(), n.to_bits());
        tags[i / 2] |= (((p << 2) | s) as u8) << ((i % 2) * 4);
    }
    out.extend_from_slice(&tags);
    for (b, n) in base.iter().zip(new) {
        let (p, s) = tail2_tags(b.to_bits(), n.to_bits());
        out.extend_from_slice(&n.to_bits().to_le_bytes()[s as usize..4 - p as usize]);
    }
    out
}

/// Deserializes a delta blob against `base`, reconstructing the exact new
/// weight vector.
///
/// # Errors
///
/// Returns [`DeltaDecodeError`] if the header or payload is malformed, the
/// base length does not match a base-relative encoding, or any
/// reconstructed value is non-finite (a corrupt delta must never enter
/// aggregation).
pub fn delta_from_bytes(base: &[f32], bytes: &[u8]) -> Result<Vec<f32>, DeltaDecodeError> {
    if bytes.len() < 13 || &bytes[..4] != MAGIC {
        return Err(DeltaDecodeError::BadHeader);
    }
    let mode = bytes[4];
    let count = u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes")) as usize;
    let payload = &bytes[13..];
    let out = match mode {
        MODE_DENSE => decode_dense(count, payload)?,
        MODE_SPARSE => decode_sparse(base, count, payload)?,
        MODE_TAIL => decode_tail(base, count, payload)?,
        MODE_TAIL2 => decode_tail2(base, count, payload)?,
        other => return Err(DeltaDecodeError::UnknownMode(other)),
    };
    if out.iter().any(|v| !v.is_finite()) {
        return Err(DeltaDecodeError::NonFinite);
    }
    Ok(out)
}

fn decode_dense(count: usize, payload: &[u8]) -> Result<Vec<f32>, DeltaDecodeError> {
    // The count is untrusted: `count * 4` may overflow.
    if count.checked_mul(4) != Some(payload.len()) {
        return Err(DeltaDecodeError::PayloadMismatch);
    }
    Ok(payload
        .chunks_exact(4)
        .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
        .collect())
}

fn decode_sparse(base: &[f32], count: usize, payload: &[u8]) -> Result<Vec<f32>, DeltaDecodeError> {
    if base.len() != count {
        return Err(DeltaDecodeError::BaseMismatch {
            expected: count,
            actual: base.len(),
        });
    }
    if payload.len() < 4 {
        return Err(DeltaDecodeError::PayloadMismatch);
    }
    let n_changed = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
    let pairs = &payload[4..];
    if pairs.len() != n_changed * 8 {
        return Err(DeltaDecodeError::PayloadMismatch);
    }
    let mut out = base.to_vec();
    for pair in pairs.chunks_exact(8) {
        let index = u32::from_le_bytes(pair[..4].try_into().expect("4 bytes")) as usize;
        let bits = u32::from_le_bytes(pair[4..].try_into().expect("4 bytes"));
        if index >= out.len() {
            return Err(DeltaDecodeError::PayloadMismatch);
        }
        out[index] = f32::from_bits(bits);
    }
    Ok(out)
}

fn decode_tail(base: &[f32], count: usize, payload: &[u8]) -> Result<Vec<f32>, DeltaDecodeError> {
    if base.len() != count {
        return Err(DeltaDecodeError::BaseMismatch {
            expected: count,
            actual: base.len(),
        });
    }
    let tag_bytes = count.div_ceil(4);
    if payload.len() < tag_bytes {
        return Err(DeltaDecodeError::PayloadMismatch);
    }
    let (tags, mut tails) = payload.split_at(tag_bytes);
    let mut out = Vec::with_capacity(count);
    for (i, b) in base.iter().enumerate() {
        let shared = ((tags[i / 4] >> ((i % 4) * 2)) & 0b11) as usize;
        let take = 4 - shared;
        if tails.len() < take {
            return Err(DeltaDecodeError::PayloadMismatch);
        }
        let mut le = b.to_bits().to_le_bytes();
        le[..take].copy_from_slice(&tails[..take]);
        tails = &tails[take..];
        out.push(f32::from_bits(u32::from_le_bytes(le)));
    }
    if !tails.is_empty() {
        return Err(DeltaDecodeError::PayloadMismatch);
    }
    Ok(out)
}

fn decode_tail2(base: &[f32], count: usize, payload: &[u8]) -> Result<Vec<f32>, DeltaDecodeError> {
    if base.len() != count {
        return Err(DeltaDecodeError::BaseMismatch {
            expected: count,
            actual: base.len(),
        });
    }
    let tag_bytes = count.div_ceil(2);
    if payload.len() < tag_bytes {
        return Err(DeltaDecodeError::PayloadMismatch);
    }
    let (tags, mut middles) = payload.split_at(tag_bytes);
    let mut out = Vec::with_capacity(count);
    for (i, b) in base.iter().enumerate() {
        let tag = (tags[i / 2] >> ((i % 2) * 4)) & 0b1111;
        let (p, s) = ((tag >> 2) as usize, (tag & 0b11) as usize);
        if p + s > 4 {
            return Err(DeltaDecodeError::PayloadMismatch);
        }
        let take = 4 - p - s;
        if middles.len() < take {
            return Err(DeltaDecodeError::PayloadMismatch);
        }
        let mut le = [0u8; 4];
        // High `p` bytes from the base, `take` middle bytes from the
        // stream, low `s` bytes zero.
        le[4 - p..].copy_from_slice(&b.to_bits().to_le_bytes()[4 - p..]);
        le[s..s + take].copy_from_slice(&middles[..take]);
        middles = &middles[take..];
        out.push(f32::from_bits(u32::from_le_bytes(le)));
    }
    if !middles.is_empty() {
        return Err(DeltaDecodeError::PayloadMismatch);
    }
    Ok(out)
}

/// Error decoding a serialized weight delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaDecodeError {
    /// Missing or wrong magic/header.
    BadHeader,
    /// The mode byte names no known encoding.
    UnknownMode(u8),
    /// The payload length or structure contradicts the header.
    PayloadMismatch,
    /// A base-relative encoding was decoded against a base of the wrong
    /// length (almost always: against the wrong base model).
    BaseMismatch {
        /// Base length the delta was encoded against.
        expected: usize,
        /// Length of the base actually supplied.
        actual: usize,
    },
    /// Reconstruction produced NaN or infinity.
    NonFinite,
}

impl fmt::Display for DeltaDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaDecodeError::BadHeader => write!(f, "bad weight delta header"),
            DeltaDecodeError::UnknownMode(m) => write!(f, "unknown delta mode {m}"),
            DeltaDecodeError::PayloadMismatch => write!(f, "delta payload contradicts header"),
            DeltaDecodeError::BaseMismatch { expected, actual } => {
                write!(
                    f,
                    "delta base mismatch: encoded against {expected} weights, applied to {actual}"
                )
            }
            DeltaDecodeError::NonFinite => write!(f, "delta reconstruction is non-finite"),
        }
    }
}

impl std::error::Error for DeltaDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(base: &[f32], new: &[f32]) {
        let bytes = delta_to_bytes(base, new);
        let decoded = delta_from_bytes(base, &bytes).expect("decodes");
        assert_eq!(decoded.len(), new.len());
        for (d, n) in decoded.iter().zip(new) {
            assert_eq!(d.to_bits(), n.to_bits(), "bit-exact reconstruction");
        }
    }

    #[test]
    fn identical_vectors_encode_tiny_and_round_trip() {
        let w = vec![0.125f32; 1000];
        let bytes = delta_to_bytes(&w, &w);
        // Sparse with zero changes: header + n_changed only.
        assert!(
            bytes.len() <= 17,
            "unchanged delta is tiny: {}",
            bytes.len()
        );
        round_trip(&w, &w);
    }

    #[test]
    fn small_drift_uses_a_tail_mode_and_round_trips() {
        let base: Vec<f32> = (0..4096).map(|i| 0.5 + (i as f32) * 1e-6).collect();
        let new: Vec<f32> = base.iter().map(|w| w + w * 1e-4).collect();
        let bytes = delta_to_bytes(&base, &new);
        assert!(bytes[4] == MODE_TAIL || bytes[4] == MODE_TAIL2);
        assert!(
            bytes.len() < new.len() * 4,
            "small drift must compress: {} vs {}",
            bytes.len(),
            new.len() * 4
        );
        round_trip(&base, &new);
    }

    #[test]
    fn quantized_release_drift_compresses_at_least_2x() {
        // The protocol's publish path: releases are precision-bounded
        // (see `weights::quantize_release`), so both the shared prefix and
        // the zero suffix of every word are exploitable — the regime the
        // TAIL2 mode exists for.
        let quantize = |w: &[f32]| crate::weights::quantize_release(w, 7);
        let base = quantize(
            &(0..4096)
                .map(|i| 0.3 + (i as f32).sin() * 0.1)
                .collect::<Vec<_>>(),
        );
        let new = quantize(&base.iter().map(|w| w + w * 3e-3).collect::<Vec<_>>());
        let bytes = delta_to_bytes(&base, &new);
        assert_eq!(bytes[4], MODE_TAIL2);
        assert!(
            bytes.len() * 2 < new.len() * 4,
            "quantized drift must compress ≥2x: {} vs {}",
            bytes.len(),
            new.len() * 4
        );
        round_trip(&base, &new);
    }

    #[test]
    fn unrelated_vectors_fall_back_to_dense_with_bounded_overhead() {
        // Sign flips change the top byte of every word: tail and sparse
        // both lose to dense.
        let base: Vec<f32> = (0..256).map(|i| (i as f32) - 128.0).collect();
        let new: Vec<f32> = base.iter().map(|w| -w * 3.7 + 0.1).collect();
        let bytes = delta_to_bytes(&base, &new);
        assert!(bytes.len() <= 13 + new.len() * 4 + 4);
        round_trip(&base, &new);
    }

    #[test]
    fn sparse_wins_for_isolated_changes() {
        let base = vec![1.0f32; 10_000];
        let mut new = base.clone();
        new[17] = 2.0;
        new[9_999] = -3.5;
        let bytes = delta_to_bytes(&base, &new);
        assert_eq!(bytes[4], MODE_SPARSE);
        assert!(bytes.len() < 64);
        round_trip(&base, &new);
    }

    #[test]
    fn length_change_round_trips_densely() {
        let base = vec![1.0f32; 8];
        let new = vec![2.0f32; 12];
        let bytes = delta_to_bytes(&base, &new);
        assert_eq!(bytes[4], MODE_DENSE);
        assert_eq!(delta_from_bytes(&base, &bytes).unwrap(), new);
    }

    #[test]
    fn negative_zero_is_preserved() {
        let base = vec![0.0f32, 1.0];
        let new = vec![-0.0f32, 1.0];
        round_trip(&base, &new);
    }

    #[test]
    fn wrong_base_is_rejected() {
        let base = vec![1.0f32; 64];
        let new: Vec<f32> = (0..64).map(|i| 1.0 + i as f32 * 1e-5).collect();
        let bytes = delta_to_bytes(&base, &new);
        let err = delta_from_bytes(&base[..32], &bytes).unwrap_err();
        assert!(matches!(err, DeltaDecodeError::BaseMismatch { .. }));
    }

    #[test]
    fn rejects_bad_magic_and_mode() {
        let base = vec![1.0f32];
        let mut bytes = delta_to_bytes(&base, &base);
        bytes[0] = b'X';
        assert_eq!(
            delta_from_bytes(&base, &bytes),
            Err(DeltaDecodeError::BadHeader)
        );
        let mut bytes = delta_to_bytes(&base, &base);
        bytes[4] = 9;
        assert_eq!(
            delta_from_bytes(&base, &bytes),
            Err(DeltaDecodeError::UnknownMode(9))
        );
        assert_eq!(
            delta_from_bytes(&base, b"UFL"),
            Err(DeltaDecodeError::BadHeader)
        );
    }

    #[test]
    fn rejects_truncation() {
        let base: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let new: Vec<f32> = base.iter().map(|w| w + 0.5).collect();
        let bytes = delta_to_bytes(&base, &new);
        let err = delta_from_bytes(&base, &bytes[..bytes.len() - 1]).unwrap_err();
        assert_eq!(err, DeltaDecodeError::PayloadMismatch);
        // A dense count whose byte size overflows (`4 · (2^62 + 1)` wraps
        // to 4) must not be matched against a 4-byte payload.
        let mut forged = MAGIC.to_vec();
        forged.push(MODE_DENSE);
        forged.extend_from_slice(&((1u64 << 62) + 1).to_le_bytes());
        forged.extend_from_slice(&1.0f32.to_le_bytes());
        assert_eq!(
            delta_from_bytes(&[], &forged),
            Err(DeltaDecodeError::PayloadMismatch)
        );
    }

    #[test]
    fn rejects_non_finite_reconstruction() {
        // A dense delta carrying NaN bits must be refused at decode.
        let mut bytes = header(MODE_DENSE, 1);
        bytes.extend_from_slice(&f32::NAN.to_bits().to_le_bytes());
        assert_eq!(
            delta_from_bytes(&[], &bytes),
            Err(DeltaDecodeError::NonFinite)
        );
    }

    #[test]
    fn empty_vectors_round_trip() {
        round_trip(&[], &[]);
    }

    #[test]
    fn encoding_is_deterministic() {
        let base: Vec<f32> = (0..500).map(|i| (i as f32).sin()).collect();
        let new: Vec<f32> = base.iter().map(|w| w * 1.001).collect();
        assert_eq!(delta_to_bytes(&base, &new), delta_to_bytes(&base, &new));
    }
}
