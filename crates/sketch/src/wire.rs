//! Compact binary serialization for sketches.
//!
//! The inventory's on-disk format (`pol-core::codec`) persists per-cell
//! sketches; this module gives every sketch a versionless, schema-stable
//! little-endian encoding: varint for integers, raw IEEE-754 for floats.
//! Round-trips are property-tested.

use crate::circular::Circular;
use crate::gk::GkSketch;
use crate::histogram::AngleHistogram;
use crate::hll::{Distinct, HyperLogLog, SmallSet};
use crate::spacesaving::{Counter, SpaceSaving};
use crate::tdigest::TDigest;
use crate::welford::Welford;
use std::fmt;

/// Error for malformed wire data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub &'static str);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Writes an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint.
pub fn get_varint(input: &mut &[u8]) -> Result<u64, WireError> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let (&byte, rest) = input.split_first().ok_or(WireError("varint truncated"))?;
        *input = rest;
        if shift >= 64 {
            return Err(WireError("varint overflow"));
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Writes a raw f64.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a raw f64.
pub fn get_f64(input: &mut &[u8]) -> Result<f64, WireError> {
    let Some((bytes, rest)) = input.split_first_chunk::<8>() else {
        return Err(WireError("f64 truncated"));
    };
    *input = rest;
    Ok(f64::from_le_bytes(*bytes))
}

/// Binary encoding contract for sketches.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes a value, advancing `input` past it.
    fn decode(input: &mut &[u8]) -> Result<Self, WireError>;
}

impl Wire for Welford {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.count());
        // mean/min/max are Some exactly when count > 0, so the decoder's
        // "count > 0 means four floats follow" contract is preserved.
        if let (Some(mean), Some(min), Some(max)) = (self.mean(), self.min(), self.max()) {
            put_f64(out, mean);
            put_f64(out, self.m2());
            put_f64(out, min);
            put_f64(out, max);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let count = get_varint(input)?;
        if count == 0 {
            return Ok(Welford::new());
        }
        let mean = get_f64(input)?;
        let m2 = get_f64(input)?;
        let min = get_f64(input)?;
        let max = get_f64(input)?;
        Ok(Welford::from_parts(count, mean, m2, min, max))
    }
}

impl Wire for Circular {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.count());
        if self.count() > 0 {
            let (s, c) = self.sums();
            put_f64(out, s);
            put_f64(out, c);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let count = get_varint(input)?;
        if count == 0 {
            return Ok(Circular::new());
        }
        let s = get_f64(input)?;
        let c = get_f64(input)?;
        Ok(Circular::from_parts(count, s, c))
    }
}

impl Wire for AngleHistogram {
    fn encode(&self, out: &mut Vec<u8>) {
        for &c in self.counts() {
            put_varint(out, c);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let mut counts = [0u64; 12];
        for c in &mut counts {
            *c = get_varint(input)?;
        }
        Ok(AngleHistogram::from_counts(counts))
    }
}

impl Wire for GkSketch {
    fn encode(&self, out: &mut Vec<u8>) {
        self.with_flushed(|n, tuples| {
            put_f64(out, self.epsilon());
            put_varint(out, n);
            put_varint(out, tuples.len() as u64);
            for t in tuples {
                put_f64(out, t.v);
                put_varint(out, t.g);
                put_varint(out, t.delta);
            }
        });
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let epsilon = get_f64(input)?;
        if !(epsilon > 0.0 && epsilon < 0.5) {
            return Err(WireError("gk epsilon out of range"));
        }
        let n = get_varint(input)?;
        let len = get_varint(input)? as usize;
        if len > input.len() {
            return Err(WireError("gk tuple count exceeds buffer"));
        }
        let mut tuples = Vec::with_capacity(len);
        for _ in 0..len {
            let v = get_f64(input)?;
            let g = get_varint(input)?;
            let delta = get_varint(input)?;
            tuples.push((v, g, delta));
        }
        GkSketch::from_parts(epsilon, n, tuples).ok_or(WireError("gk tuples not sorted"))
    }
}

impl Wire for TDigest {
    fn encode(&self, out: &mut Vec<u8>) {
        let (compression, total, min, max) = self.scalars();
        put_f64(out, compression);
        put_f64(out, total);
        put_f64(out, min);
        put_f64(out, max);
        self.with_compressed(|centroids| {
            put_varint(out, centroids.len() as u64);
            for c in centroids {
                put_f64(out, c.mean);
                put_f64(out, c.weight);
            }
        });
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let compression = get_f64(input)?;
        if !(compression >= 10.0) {
            return Err(WireError("tdigest compression out of range"));
        }
        let total = get_f64(input)?;
        let min = get_f64(input)?;
        let max = get_f64(input)?;
        let len = get_varint(input)? as usize;
        if len > input.len() {
            return Err(WireError("tdigest centroid count exceeds buffer"));
        }
        let mut centroids = Vec::with_capacity(len);
        for _ in 0..len {
            let mean = get_f64(input)?;
            let weight = get_f64(input)?;
            centroids.push((mean, weight));
        }
        TDigest::from_parts(compression, total, min, max, centroids)
            .ok_or(WireError("tdigest centroids not sorted"))
    }
}

impl Wire for HyperLogLog {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.precision());
        out.extend_from_slice(self.registers());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let (&p, rest) = input.split_first().ok_or(WireError("hll truncated"))?;
        *input = rest;
        if !(4..=16).contains(&p) {
            return Err(WireError("hll precision out of range"));
        }
        let m = 1usize << p;
        if input.len() < m {
            return Err(WireError("hll registers truncated"));
        }
        let (regs, rest) = input.split_at(m);
        *input = rest;
        Ok(HyperLogLog::from_registers(p, regs.to_vec()))
    }
}

impl Wire for Distinct {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Distinct::Exact(set) => {
                out.push(0);
                put_varint(out, set.len() as u64);
                // Sort for canonical output (sets iterate in storage order).
                let mut hashes: Vec<u64> = set.iter().collect();
                hashes.sort_unstable();
                for h in hashes {
                    put_varint(out, h);
                }
            }
            Distinct::Approx(hll) => {
                out.push(1);
                hll.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let (&tag, rest) = input.split_first().ok_or(WireError("distinct truncated"))?;
        *input = rest;
        match tag {
            0 => {
                let len = get_varint(input)? as usize;
                if len > input.len() {
                    return Err(WireError("distinct set exceeds buffer"));
                }
                let mut set = SmallSet::new();
                for _ in 0..len {
                    set.insert(get_varint(input)?);
                }
                Ok(Distinct::Exact(set))
            }
            1 => Ok(Distinct::Approx(HyperLogLog::decode(input)?)),
            _ => Err(WireError("distinct bad tag")),
        }
    }
}

impl Wire for SpaceSaving<u64> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.capacity() as u64);
        put_varint(out, self.total());
        put_varint(out, self.len() as u64);
        let mut items: Vec<(u64, Counter)> = self.iter().map(|(k, c)| (*k, *c)).collect();
        items.sort_unstable_by_key(|(k, _)| *k);
        for (k, c) in items {
            put_varint(out, k);
            put_varint(out, c.count);
            put_varint(out, c.error);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let capacity = get_varint(input)? as usize;
        if capacity == 0 {
            return Err(WireError("spacesaving zero capacity"));
        }
        let total = get_varint(input)?;
        let len = get_varint(input)? as usize;
        if len > capacity || len > input.len() {
            return Err(WireError("spacesaving length invalid"));
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            let k = get_varint(input)?;
            let count = get_varint(input)?;
            let error = get_varint(input)?;
            items.push((k, Counter { count, error }));
        }
        Ok(SpaceSaving::from_parts(capacity, total, items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MergeSketch;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut slice = &buf[..];
        let back = T::decode(&mut slice).expect("decodes");
        assert!(slice.is_empty(), "trailing bytes");
        assert_eq!(&back, v);
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut s = &buf[..];
            assert_eq!(get_varint(&mut s).unwrap(), v);
            assert!(s.is_empty());
        }
        let mut empty: &[u8] = &[];
        assert!(get_varint(&mut empty).is_err());
    }

    #[test]
    fn welford_wire() {
        round_trip(&Welford::new());
        let mut w = Welford::new();
        for x in [1.0, 2.5, -3.0, 100.0] {
            w.add(x);
        }
        round_trip(&w);
    }

    #[test]
    fn circular_wire() {
        round_trip(&Circular::new());
        let mut c = Circular::new();
        c.add(10.0);
        c.add(350.0);
        round_trip(&c);
    }

    #[test]
    fn angle_histogram_wire() {
        let mut h = AngleHistogram::new();
        for d in [0.0, 45.0, 359.0, 180.0] {
            h.add(d);
        }
        round_trip(&h);
    }

    #[test]
    fn gk_wire_preserves_quantiles() {
        let mut g = GkSketch::new(0.02);
        for i in 0..5_000 {
            g.add(((i * 37) % 1000) as f64);
        }
        let mut buf = Vec::new();
        g.encode(&mut buf);
        let mut s = &buf[..];
        let mut back = GkSketch::decode(&mut s).unwrap();
        assert_eq!(back.count(), g.count());
        for phi in [0.1, 0.5, 0.9] {
            assert_eq!(back.quantile(phi), g.clone().quantile(phi));
        }
    }

    /// Encodes `live` as it stands, then after an explicit flush of a
    /// copy, and checks the bytes agree and round-trip through `decode`.
    fn assert_encode_is_flush_invariant<T: Wire + Clone>(live: &T, flush: impl Fn(&mut T)) {
        let mut as_is = Vec::new();
        live.encode(&mut as_is);
        let mut flushed = live.clone();
        flush(&mut flushed);
        let mut after_flush = Vec::new();
        flushed.encode(&mut after_flush);
        assert_eq!(as_is, after_flush, "encode differs from encode-after-flush");
        let mut s = &as_is[..];
        let back = T::decode(&mut s).expect("decodes");
        assert!(s.is_empty(), "trailing bytes");
        let mut again = Vec::new();
        back.encode(&mut again);
        assert_eq!(again, as_is, "decode/encode is not the identity");
    }

    #[test]
    fn gk_encode_of_buffered_values_equals_encode_after_flush() {
        let flush = |g: &mut GkSketch| {
            g.tuple_count();
        };
        let mut g = GkSketch::new(0.01);
        assert_encode_is_flush_invariant(&g, flush);
        // Inline-buffered only (fewer than the 16 inline slots).
        for x in [5.0, -1.0, 3.5, 3.5, 9.0] {
            g.add(x);
        }
        assert_encode_is_flush_invariant(&g, flush);
        // Spilled: past the inline slots, short of the 512-value flush.
        for i in 0..200 {
            g.add(((i * 37) % 101) as f64);
        }
        assert_encode_is_flush_invariant(&g, flush);
        // No buffered values: flushed tuples only.
        flush(&mut g);
        assert_encode_is_flush_invariant(&g, flush);
        // Tuples plus inline-buffered, then tuples plus spilled values.
        for x in [-50.0, 42.0, 1e6] {
            g.add(x);
        }
        assert_encode_is_flush_invariant(&g, flush);
        for i in 0..300 {
            g.add(((i * 13) % 97) as f64 - 20.0);
        }
        assert_encode_is_flush_invariant(&g, flush);
    }

    #[test]
    fn tdigest_encode_of_buffered_values_equals_encode_after_flush() {
        let flush = |t: &mut TDigest| {
            t.centroid_count();
        };
        let mut t = TDigest::new(100.0);
        assert_encode_is_flush_invariant(&t, flush);
        // Buffered only.
        for x in [5.0, -1.0, 3.5, 3.5, 9.0] {
            t.add(x);
        }
        assert_encode_is_flush_invariant(&t, flush);
        // No buffered values.
        flush(&mut t);
        assert_encode_is_flush_invariant(&t, flush);
        // Centroids plus a long buffer, short of the 500-value compress.
        for i in 0..450 {
            t.add(((i * 37) % 101) as f64);
        }
        assert_encode_is_flush_invariant(&t, flush);
    }

    #[test]
    fn tdigest_wire_preserves_quantiles() {
        let mut t = TDigest::new(100.0);
        for i in 0..5_000 {
            t.add(((i * 37) % 1000) as f64);
        }
        let mut buf = Vec::new();
        t.encode(&mut buf);
        let mut s = &buf[..];
        let mut back = TDigest::decode(&mut s).unwrap();
        assert_eq!(back.count(), t.count());
        for phi in [0.1, 0.5, 0.9] {
            let a = back.quantile(phi).unwrap();
            let b = t.clone().quantile(phi).unwrap();
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn hll_and_distinct_wire() {
        let mut h = HyperLogLog::new(8);
        for i in 0..1000u32 {
            h.add(&i);
        }
        round_trip(&h);

        let mut d = Distinct::new();
        for i in 0..50u32 {
            d.add(&i);
        }
        round_trip(&d);
        for i in 0..5000u32 {
            d.add(&i);
        }
        assert!(!d.is_exact());
        round_trip(&d);
    }

    #[test]
    fn spacesaving_wire() {
        let mut s = SpaceSaving::<u64>::new(8);
        for i in 0..500u64 {
            s.add(i % 20);
        }
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let mut slice = &buf[..];
        let back = SpaceSaving::<u64>::decode(&mut slice).unwrap();
        assert_eq!(back.total(), s.total());
        // `top` order among exact ties is unspecified; compare as sets.
        let as_set = |v: Vec<(u64, Counter)>| -> std::collections::BTreeSet<(u64, u64, u64)> {
            v.into_iter().map(|(k, c)| (k, c.count, c.error)).collect()
        };
        assert_eq!(as_set(back.top(100)), as_set(s.top(100)));
    }

    #[test]
    fn decoded_sketches_remain_mergeable() {
        let mut a = Welford::new();
        a.add(1.0);
        let mut buf = Vec::new();
        a.encode(&mut buf);
        let mut s = &buf[..];
        let mut back = Welford::decode(&mut s).unwrap();
        let mut b = Welford::new();
        b.add(3.0);
        back.merge(&b);
        assert_eq!(back.count(), 2);
        assert_eq!(back.mean(), Some(2.0));
    }

    #[test]
    fn garbage_rejected() {
        let garbage = [0xFFu8; 3];
        let mut s = &garbage[..];
        assert!(GkSketch::decode(&mut s).is_err());
        let mut s2: &[u8] = &[9];
        assert!(Distinct::decode(&mut s2).is_err());
    }
}
