//! Fuzz-style hardening gate for the snapshot codec: whatever bytes an
//! attacker, a bad disk, or a torn write hands `load_model`, the
//! outcome is a **typed [`PersistError`]** — never a panic, never an
//! attacker-sized allocation.
//!
//! A valid snapshot is built once, then property-tested under random
//! truncations, random single-byte corruptions, and header rewrites.
//! Where the damaged field is known, the test demands the *specific*
//! error variant, not just "some error".

use mccatch_core::{McCatch, McCatchError, Params};
use mccatch_index::VpTreeBuilder;
use mccatch_metric::Euclidean;
use mccatch_persist::{
    crc32, load_model, read_info, save_model, PersistError, ReplayReader, FORMAT_VERSION,
};
use proptest::prelude::*;

/// One deterministic, known-good snapshot all cases mutate.
fn valid_snapshot() -> Vec<u8> {
    let points: Vec<Vec<f64>> = (0..48)
        .map(|i| vec![(i % 11) as f64, (i % 6) as f64 * 0.5])
        .collect();
    let fitted = McCatch::new(Params::default())
        .unwrap()
        .fit(points, Euclidean, VpTreeBuilder::default())
        .unwrap();
    let mut buf = Vec::new();
    save_model(&fitted, 1, 48, &mut buf).unwrap();
    buf
}

fn try_load(bytes: &[u8]) -> Result<(), PersistError> {
    load_model::<Vec<f64>, _, _, _>(bytes, Euclidean, VpTreeBuilder::default()).map(|_| ())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any proper prefix fails with `Truncated` (body cut) or
    /// `ChecksumMismatch` (only the CRC trailer cut short enough that
    /// body bytes get misread as the trailer) — and never panics.
    #[test]
    fn truncation_yields_truncated_or_checksum_error(cut in 0usize..1000) {
        let full = valid_snapshot();
        let cut = cut % full.len(); // every prefix length reachable
        let err = try_load(&full[..cut]).unwrap_err();
        prop_assert!(
            matches!(
                err,
                PersistError::Truncated { .. } | PersistError::ChecksumMismatch { .. }
            ),
            "prefix of {cut} bytes gave unexpected error: {err}"
        );
    }

    /// Any single-bit corruption is caught: typically by the CRC, or —
    /// when the flipped byte is in a field validated before the body is
    /// consumed — by that field's own typed error. Loading must never
    /// succeed and never panic.
    #[test]
    fn single_byte_corruption_never_loads_and_never_panics(
        pos in 0usize..1000,
        flip in (1u16..256).prop_map(|v| v as u8),
    ) {
        let mut bytes = valid_snapshot();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        let err = try_load(&bytes).unwrap_err();
        prop_assert!(
            !matches!(err, PersistError::NotExportable | PersistError::Replay { .. }),
            "corruption at byte {pos} gave an implausible error: {err}"
        );
    }

    /// Garbage that does not even start with the magic is `BadMagic`.
    #[test]
    fn arbitrary_garbage_is_bad_magic_or_truncated(
        bytes in prop::collection::vec((0u16..256).prop_map(|v| v as u8), 0..64)
    ) {
        prop_assume!(!bytes.starts_with(b"MCSN"));
        let err = try_load(&bytes).unwrap_err();
        prop_assert!(
            matches!(err, PersistError::BadMagic { .. } | PersistError::Truncated { .. }),
            "garbage gave unexpected error: {err}"
        );
    }

    /// Replay-log garbage is similarly typed: interior malformed lines
    /// (invalid UTF-8 included) are `Replay { line, .. }`, and parsing
    /// never panics. One byte in five is a newline, so most cases hold
    /// several lines.
    #[test]
    fn replay_garbage_is_typed(raw in prop::collection::vec(0u16..320, 0..200)) {
        let bytes: Vec<u8> = raw.into_iter().map(|b| u8::try_from(b).unwrap_or(b'\n')).collect();
        match ReplayReader::new(&bytes[..]).read_all::<Vec<f64>>() {
            Ok(_) => {}
            Err(PersistError::Replay { line, .. }) => prop_assert!(line >= 1),
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
        }
    }
}

#[test]
fn wrong_magic_is_refused() {
    let mut bytes = valid_snapshot();
    bytes[..4].copy_from_slice(b"NSCM");
    assert!(matches!(
        try_load(&bytes).unwrap_err(),
        PersistError::BadMagic {
            got: [b'N', b'S', b'C', b'M']
        }
    ));
}

#[test]
fn future_version_is_refused_with_unsupported_version() {
    let mut bytes = valid_snapshot();
    // The version is the u16 right after the 4-byte magic.
    bytes[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    let err = try_load(&bytes).unwrap_err();
    assert!(
        matches!(err, PersistError::UnsupportedVersion { got } if got == FORMAT_VERSION + 1),
        "{err}"
    );
    // `read_info` applies the same gate.
    let err = read_info(&bytes[..]).unwrap_err();
    assert!(matches!(err, PersistError::UnsupportedVersion { .. }));
}

#[test]
fn reserved_flag_bits_are_refused() {
    let mut bytes = valid_snapshot();
    // Flags are the u16 right after the version.
    bytes[6] = 0x01;
    assert!(matches!(
        try_load(&bytes).unwrap_err(),
        PersistError::Corrupt { context: "flags" }
    ));
}

/// A declared point count in the billions with no matching payload must
/// fail fast as `Truncated` — allocation is driven by bytes present,
/// not by the header's claim.
#[test]
fn huge_declared_point_count_does_not_allocate() {
    let full = valid_snapshot();
    // num_points is the u64 following magic(4) + version(2) + flags(2) +
    // point_kind(1) + backend_len(1) + backend("vp" = 2) + dim(4).
    let off = 4 + 2 + 2 + 1 + 1 + 2 + 4;
    let mut bytes = full.clone();
    bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let err = try_load(&bytes).unwrap_err();
    assert!(
        matches!(
            err,
            PersistError::Truncated { .. } | PersistError::DimMismatch { .. }
        ),
        "{err}"
    );
}

/// A checksum-valid snapshot declaring 65 radii (with 65 stored) is
/// refused by the refit's parameter check, before any grid is built.
#[test]
fn num_radii_past_the_grid_shift_is_a_typed_error() {
    let full = valid_snapshot();
    let (body, trailer) = full.split_at(full.len() - 4);
    assert_eq!(crc32(body).to_le_bytes(), trailer);
    // num_radii is the u32 after magic(4) + version(2) + flags(2) +
    // point_kind(1) + backend_len(1) + "vp"(2) + dim(4) + num_points,
    // generation and seq (8 each); the 15 radii follow the stats
    // witness, which ends with the degenerate byte.
    let off = 4 + 2 + 2 + 1 + 1 + 2 + 4 + 8 + 8 + 8;
    assert_eq!(body[off..off + 4], 15u32.to_le_bytes());
    let radii_end = off + 4 + 8 + 1 + 8 + 4 + 8 + 8 + 8 + 8 + 8 + 1 + 15 * 8;
    let mut bytes = body[..radii_end].to_vec();
    bytes[off..off + 4].copy_from_slice(&65u32.to_le_bytes());
    for k in 0..50 {
        bytes.extend_from_slice(&(100.0 + k as f64).to_le_bytes());
    }
    bytes.extend_from_slice(&body[radii_end..]);
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    let err = try_load(&bytes).unwrap_err();
    assert!(
        matches!(
            err,
            PersistError::Fit(McCatchError::InvalidNumRadii { got: 65 })
        ),
        "{err}"
    );
}

#[test]
fn checksum_guards_the_body() {
    let mut bytes = valid_snapshot();
    // Flip a bit deep in the body (a stored point), past every header
    // validation: only the CRC can catch it.
    let mid = bytes.len() - 20;
    bytes[mid] ^= 0x40;
    assert!(matches!(
        try_load(&bytes).unwrap_err(),
        PersistError::ChecksumMismatch { .. }
    ));
}
