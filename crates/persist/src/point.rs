//! The point encodings a snapshot or replay log can carry.

use crate::codec::{read_f64, read_u32, write_f64, write_u32};
use crate::error::PersistError;
use mccatch_obs::json::Json;
use std::io::{Read, Write};

/// A point type with a stable on-disk encoding — the bound that makes a
/// model or stream persistable. Implemented for `Vec<f64>` (the vector
/// datasets of the paper's experiments) and `String` (metric-only data
/// under e.g. Levenshtein distance); the kind tag in the snapshot
/// header keeps the two from being confused.
///
/// Both forms must round-trip **bit-exactly**: the binary form writes
/// raw IEEE-754 bits, and the JSON form (used by the replay log) relies
/// on Rust's shortest round-trip float formatting.
pub trait PersistPoint: Sized {
    /// Stable one-byte tag of this encoding, recorded in the snapshot
    /// header: 1 = `f64` vector, 2 = UTF-8 string.
    const KIND: u8;

    /// Writes the binary form.
    fn write_bin<W: Write>(&self, w: &mut W) -> Result<(), PersistError>;

    /// Reads the binary form. `dim` is the snapshot header's declared
    /// uniform dimensionality: nonzero means every point must match it
    /// (else [`PersistError::DimMismatch`]); 0 means dimensionality is
    /// unconstrained.
    fn read_bin<R: Read>(r: &mut R, dim: u32) -> Result<Self, PersistError>;

    /// The uniform dimensionality of `points`, or 0 when points are
    /// ragged or non-dimensional (strings).
    fn uniform_dim(points: &[Self]) -> u32;

    /// Appends the JSON form (a JSON value, no trailing newline) — the
    /// `point` field of a replay-log line.
    fn write_json(&self, out: &mut String);

    /// Decodes the JSON form produced by
    /// [`write_json`](Self::write_json) from a value read by
    /// [`mccatch_obs::json::parse`]: the one point decoder of the replay
    /// log and of the NDJSON wire's JSON lines.
    ///
    /// # Errors
    /// A human-readable description of the mismatch (the replay reader
    /// wraps it with the line number, the wire with the request line's).
    fn from_json(value: &Json<'_>) -> Result<Self, String>;
}

impl PersistPoint for Vec<f64> {
    const KIND: u8 = 1;

    fn write_bin<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        write_u32(w, self.len() as u32)?;
        for &v in self {
            write_f64(w, v)?;
        }
        Ok(())
    }

    fn read_bin<R: Read>(r: &mut R, dim: u32) -> Result<Self, PersistError> {
        let len = read_u32(r, "point length")?;
        if dim != 0 && len != dim {
            return Err(PersistError::DimMismatch {
                expected: dim,
                got: len,
            });
        }
        // Read incrementally instead of pre-allocating `len` slots: a
        // corrupt length then hits `Truncated` after the bytes actually
        // present, never a huge allocation.
        let mut point = Vec::with_capacity(len.min(4096) as usize);
        for _ in 0..len {
            point.push(read_f64(r, "point component")?);
        }
        Ok(point)
    }

    fn uniform_dim(points: &[Self]) -> u32 {
        match points.first() {
            Some(first) if points.iter().all(|p| p.len() == first.len()) => first.len() as u32,
            _ => 0,
        }
    }

    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Rust's float Display is the shortest decimal that parses
            // back to the same bits, so the log round-trips exactly.
            // Non-finite values render as `inf`/`NaN`, which are not
            // JSON: the reader refuses them.
            out.push_str(&format!("{v}"));
        }
        out.push(']');
    }

    fn from_json(value: &Json<'_>) -> Result<Self, String> {
        value
            .as_array()
            .ok_or("vector point is not a JSON array")?
            .iter()
            .map(|c| {
                c.as_f64()
                    .ok_or_else(|| format!("not a finite number: {c:?}"))
            })
            .collect()
    }
}

impl PersistPoint for String {
    const KIND: u8 = 2;

    fn write_bin<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        write_u32(w, self.len() as u32)?;
        w.write_all(self.as_bytes()).map_err(PersistError::Io)
    }

    fn read_bin<R: Read>(r: &mut R, _dim: u32) -> Result<Self, PersistError> {
        let len = read_u32(r, "string length")? as u64;
        // `take` + `read_to_end` allocates as data arrives, so a corrupt
        // huge length yields `Truncated`, not an OOM-sized allocation.
        let mut bytes = Vec::new();
        r.take(len)
            .read_to_end(&mut bytes)
            .map_err(PersistError::Io)?;
        if (bytes.len() as u64) < len {
            return Err(PersistError::Truncated {
                context: "string point bytes",
            });
        }
        String::from_utf8(bytes).map_err(|_| PersistError::Corrupt {
            context: "string point UTF-8",
        })
    }

    fn uniform_dim(_points: &[Self]) -> u32 {
        0
    }

    fn write_json(&self, out: &mut String) {
        out.push('"');
        out.push_str(&mccatch_obs::json_escape(self));
        out.push('"');
    }

    fn from_json(value: &Json<'_>) -> Result<Self, String> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| "string point is not a JSON string".to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccatch_obs::json::parse;

    #[test]
    fn vector_binary_round_trip_is_bit_exact() {
        let tricky = vec![
            0.1 + 0.2,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-308,
            f64::MAX,
        ];
        let mut buf = Vec::new();
        tricky.write_bin(&mut buf).unwrap();
        let back = Vec::<f64>::read_bin(&mut &buf[..], 0).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&tricky));
    }

    #[test]
    fn vector_json_round_trip_is_bit_exact() {
        let tricky = vec![0.1 + 0.2, -0.0, 1.0 / 3.0, 123456789.12345679, 5e-324];
        let mut json = String::new();
        tricky.write_json(&mut json);
        let back = Vec::<f64>::from_json(&parse(&json).unwrap()).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&tricky));
    }

    #[test]
    fn vector_dim_enforced_when_declared() {
        let mut buf = Vec::new();
        vec![1.0, 2.0, 3.0].write_bin(&mut buf).unwrap();
        assert!(Vec::<f64>::read_bin(&mut &buf[..], 3).is_ok());
        assert!(matches!(
            Vec::<f64>::read_bin(&mut &buf[..], 2),
            Err(PersistError::DimMismatch {
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn string_round_trips_binary_and_json() {
        for s in ["", "plain", "esc\"\\\n\t", "unicode: αβγ 😀", "\u{1}\u{1f}"] {
            let s = s.to_owned();
            let mut buf = Vec::new();
            s.write_bin(&mut buf).unwrap();
            assert_eq!(String::read_bin(&mut &buf[..], 0).unwrap(), s);
            let mut json = String::new();
            s.write_json(&mut json);
            assert_eq!(String::from_json(&parse(&json).unwrap()).unwrap(), s);
        }
    }

    #[test]
    fn huge_declared_lengths_truncate_instead_of_allocating() {
        // length u32::MAX, no payload: must error, not OOM.
        let buf = u32::MAX.to_le_bytes();
        assert!(matches!(
            Vec::<f64>::read_bin(&mut &buf[..], 0),
            Err(PersistError::Truncated { .. })
        ));
        assert!(matches!(
            String::read_bin(&mut &buf[..], 0),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn uniform_dim_detects_ragged_data() {
        assert_eq!(
            Vec::<f64>::uniform_dim(&[vec![1.0, 2.0], vec![3.0, 4.0]]),
            2
        );
        assert_eq!(Vec::<f64>::uniform_dim(&[vec![1.0], vec![3.0, 4.0]]), 0);
        assert_eq!(Vec::<f64>::uniform_dim(&[]), 0);
    }
}
