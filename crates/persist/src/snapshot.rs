//! The versioned binary snapshot format and its streaming writer/reader.
//!
//! A snapshot does **not** serialize tree internals. It stores the
//! model's reference points, its fully resolved hyperparameters, and the
//! index backend's name — plus the fitted summary (diameter, radius
//! grid, MDL cutoff, [`ModelStats`]) as a *witness*. Because the whole
//! MCCATCH pipeline is deterministic, [`load_model`] refits the stored
//! points with the stored parameters and backend, then verifies the
//! rebuilt summary bit-for-bit against the witness: any divergence
//! (e.g. a snapshot written by a build with different algorithm
//! behavior) is reported as [`PersistError::RebuildDiverged`] instead of
//! silently serving different scores.
//!
//! ## Layout (version 1, all integers little-endian, all `f64`s raw
//! IEEE-754 bits)
//!
//! ```text
//! magic          4 bytes   "MCSN"
//! version        u16       1
//! flags          u16       0 (reserved)
//! point_kind     u8        1 = f64 vector, 2 = UTF-8 string
//! backend        u8 len + bytes ("brute" | "kd" | "vp" | "slim" | …)
//! dim            u32       uniform dimensionality, 0 = unconstrained
//! num_points     u64
//! generation     u64       ModelStore generation at save time
//! seq            u64       stream position at save time (0 for batch)
//! params         u32 num_radii · f64 slope · u8 mc_present · u64 mc ·
//!                u32 threads
//! diameter       f64       ┐
//! cutoff_d       f64       │ the rebuild-verification witness
//! stats          u64 outliers · u64 microclusters · u64 distance_evals
//!                · u8 degenerate                   │
//! radii          num_radii × f64                   ┘
//! points         num_points × point encoding (see `PersistPoint`)
//! checksum       u32       CRC-32 (IEEE) of every preceding byte
//! ```

use crate::codec::{
    read_exact_n, read_f64, read_u16, read_u32, read_u64, read_u8, write_f64, write_u16, write_u32,
    write_u64, write_u8, ChecksumReader, ChecksumWriter,
};
use crate::error::PersistError;
use crate::point::PersistPoint;
use mccatch_core::{Fitted, McCatch, Model, ModelStats, Params, RadiusGrid, MAX_NUM_RADII};
use mccatch_index::IndexBuilder;
use mccatch_metric::Metric;
use std::io::{Read, Write};

/// The snapshot magic bytes.
pub const MAGIC: [u8; 4] = *b"MCSN";

/// The snapshot format version this build writes and reads.
pub const FORMAT_VERSION: u16 = 1;

/// Header metadata of a snapshot, as returned by [`read_info`] (and
/// carried inside [`LoadedModel`]): what an operator endpoint shows
/// without paying for a full load-and-rebuild.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotInfo {
    /// Format version of the file.
    pub version: u16,
    /// Point-encoding tag (see [`PersistPoint::KIND`]).
    pub point_kind: u8,
    /// Index backend the model was fitted with.
    pub backend: String,
    /// Uniform dimensionality of the points (0 = unconstrained).
    pub dim: u32,
    /// Number of reference points.
    pub num_points: u64,
    /// Model generation at save time.
    pub generation: u64,
    /// Stream position (events accepted) at save time; 0 for snapshots
    /// of batch fits.
    pub seq: u64,
    /// The fitted diameter estimate `l`.
    pub diameter: f64,
    /// The fitted MDL cutoff distance `d`.
    pub cutoff_d: f64,
}

/// Everything [`load_model`] recovers from a snapshot: the rebuilt (and
/// verified) fit, plus the generation and stream position to resume at.
pub struct LoadedModel<P, M, B>
where
    P: Sync,
    M: Metric<P>,
    B: IndexBuilder<P, M>,
{
    /// The rebuilt model — bit-identical to the one that was saved
    /// (verified against the snapshot's witness fields).
    pub fitted: Fitted<P, M, B>,
    /// The generation counter to resume from.
    pub generation: u64,
    /// The stream position to resume from.
    pub seq: u64,
    /// The snapshot's header metadata.
    pub info: SnapshotInfo,
}

impl<P, M, B> std::fmt::Debug for LoadedModel<P, M, B>
where
    P: Sync,
    M: Metric<P>,
    B: IndexBuilder<P, M>,
{
    /// Cheap on purpose: the header metadata, never the model.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadedModel")
            .field("generation", &self.generation)
            .field("seq", &self.seq)
            .field("info", &self.info)
            .finish_non_exhaustive()
    }
}

/// Serializes `model` (with the given generation and stream position)
/// to `w`, returning the total bytes written. Works on any exportable
/// [`Model`] — concrete [`Fitted`] handles via [`Fitted::export`],
/// erased `Arc<dyn Model<P>>` snapshots via [`Model::export`].
///
/// # Errors
/// [`PersistError::NotExportable`] if the model does not expose its
/// reference points, or reports a summary no valid fit can have;
/// [`PersistError::Io`] on write failure.
pub fn save_model<P: PersistPoint, W: Write>(
    model: &dyn Model<P>,
    generation: u64,
    seq: u64,
    w: W,
) -> Result<u64, PersistError> {
    let _span = mccatch_obs::Span::enter(mccatch_obs::StageId::PersistSave);
    let export = model.export().ok_or(PersistError::NotExportable)?;
    let stats = model.stats();
    // An exportable model always has a well-formed grid; a third-party
    // impl reporting otherwise cannot be round-tripped faithfully.
    if !(2..=MAX_NUM_RADII).contains(&stats.num_radii)
        || stats.num_radii != export.params.num_radii
        || stats.diameter.is_nan()
        || stats.diameter < 0.0
        || stats.num_points != export.points.len()
        || export.backend.len() > u8::MAX as usize
    {
        return Err(PersistError::NotExportable);
    }
    // The grid is a pure function of (diameter, num_radii); this agrees
    // bit-for-bit with the fitted grid, so no separate accessor needed.
    let grid = RadiusGrid::new(stats.diameter, stats.num_radii);
    let dim = P::uniform_dim(&export.points);

    let mut cw = ChecksumWriter::new(w);
    cw.write_all(&MAGIC).map_err(PersistError::Io)?;
    write_u16(&mut cw, FORMAT_VERSION)?;
    write_u16(&mut cw, 0)?; // flags, reserved
    write_u8(&mut cw, P::KIND)?;
    write_u8(&mut cw, export.backend.len() as u8)?;
    cw.write_all(export.backend.as_bytes())
        .map_err(PersistError::Io)?;
    write_u32(&mut cw, dim)?;
    write_u64(&mut cw, export.points.len() as u64)?;
    write_u64(&mut cw, generation)?;
    write_u64(&mut cw, seq)?;
    write_u32(&mut cw, export.params.num_radii as u32)?;
    write_f64(&mut cw, export.params.max_plateau_slope)?;
    match export.params.max_mc_cardinality {
        Some(c) => {
            write_u8(&mut cw, 1)?;
            write_u64(&mut cw, c as u64)?;
        }
        None => {
            write_u8(&mut cw, 0)?;
            write_u64(&mut cw, 0)?;
        }
    }
    write_u32(&mut cw, export.params.threads as u32)?;
    write_f64(&mut cw, stats.diameter)?;
    write_f64(&mut cw, stats.cutoff_d)?;
    write_u64(&mut cw, stats.num_outliers as u64)?;
    write_u64(&mut cw, stats.num_microclusters as u64)?;
    write_u64(&mut cw, stats.distance_evals)?;
    write_u8(&mut cw, stats.degenerate as u8)?;
    for &r in grid.radii() {
        write_f64(&mut cw, r)?;
    }
    for p in export.points.iter() {
        p.write_bin(&mut cw)?;
    }
    let (mut w, crc, bytes) = cw.finish();
    w.write_all(&crc.to_le_bytes()).map_err(PersistError::Io)?;
    w.flush().map_err(PersistError::Io)?;
    Ok(bytes + 4)
}

/// Reads the header fields only — cheap metadata for an info endpoint.
/// Stops before the points, so the checksum is **not** verified; only a
/// full [`load_model`] certifies integrity.
pub fn read_info<R: Read>(r: R) -> Result<SnapshotInfo, PersistError> {
    let mut cr = ChecksumReader::new(r);
    let (info, _, _) = read_header(&mut cr)?;
    Ok(info)
}

/// Parses everything up to (and including) the stats witness.
fn read_header<R: Read>(
    cr: &mut ChecksumReader<R>,
) -> Result<(SnapshotInfo, Params, ModelStats), PersistError> {
    let mut magic = [0u8; 4];
    read_exact_n(cr, &mut magic, "magic")?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic { got: magic });
    }
    let version = read_u16(cr, "version")?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion { got: version });
    }
    let flags = read_u16(cr, "flags")?;
    if flags != 0 {
        return Err(PersistError::Corrupt { context: "flags" });
    }
    let point_kind = read_u8(cr, "point kind")?;
    let backend_len = read_u8(cr, "backend name length")?;
    let mut backend_bytes = vec![0u8; backend_len as usize];
    read_exact_n(cr, &mut backend_bytes, "backend name")?;
    let backend = String::from_utf8(backend_bytes).map_err(|_| PersistError::Corrupt {
        context: "backend name UTF-8",
    })?;
    let dim = read_u32(cr, "dim")?;
    let num_points = read_u64(cr, "num_points")?;
    let generation = read_u64(cr, "generation")?;
    let seq = read_u64(cr, "seq")?;
    let num_radii = read_u32(cr, "num_radii")? as usize;
    let max_plateau_slope = read_f64(cr, "max_plateau_slope")?;
    let max_mc_cardinality = match read_u8(cr, "mc_cardinality presence")? {
        0 => {
            read_u64(cr, "mc_cardinality")?;
            None
        }
        1 => Some(read_u64(cr, "mc_cardinality")? as usize),
        _ => {
            return Err(PersistError::Corrupt {
                context: "mc_cardinality presence",
            })
        }
    };
    let threads = read_u32(cr, "threads")? as usize;
    let diameter = read_f64(cr, "diameter")?;
    let cutoff_d = read_f64(cr, "cutoff_d")?;
    let num_outliers = read_u64(cr, "num_outliers")? as usize;
    let num_microclusters = read_u64(cr, "num_microclusters")? as usize;
    let distance_evals = read_u64(cr, "distance_evals")?;
    let degenerate = match read_u8(cr, "degenerate")? {
        0 => false,
        1 => true,
        _ => {
            return Err(PersistError::Corrupt {
                context: "degenerate",
            })
        }
    };
    let info = SnapshotInfo {
        version,
        point_kind,
        backend,
        dim,
        num_points,
        generation,
        seq,
        diameter,
        cutoff_d,
    };
    let params = Params {
        num_radii,
        max_plateau_slope,
        max_mc_cardinality,
        threads,
    };
    let stats = ModelStats {
        num_points: num_points as usize,
        diameter,
        num_radii,
        cutoff_d,
        num_outliers,
        num_microclusters,
        distance_evals,
        degenerate,
    };
    Ok((info, params, stats))
}

/// A fully decoded (checksum-verified) snapshot, before the rebuild.
struct RawSnapshot<P> {
    info: SnapshotInfo,
    params: Params,
    stats: ModelStats,
    radii: Vec<f64>,
    points: Vec<P>,
}

fn read_raw<P: PersistPoint, R: Read>(r: R) -> Result<RawSnapshot<P>, PersistError> {
    let mut cr = ChecksumReader::new(r);
    let (info, params, stats) = read_header(&mut cr)?;
    if info.point_kind != P::KIND {
        return Err(PersistError::PointKindMismatch {
            expected: P::KIND,
            got: info.point_kind,
        });
    }
    // Incremental allocation throughout: corrupt counts run into
    // `Truncated` after the bytes actually present, never an OOM-sized
    // reservation.
    let mut radii = Vec::with_capacity(params.num_radii.min(4096));
    for _ in 0..params.num_radii {
        radii.push(read_f64(&mut cr, "radius")?);
    }
    let mut points = Vec::with_capacity((info.num_points as usize).min(4096));
    for _ in 0..info.num_points {
        points.push(P::read_bin(&mut cr, info.dim)?);
    }
    let computed = cr.crc();
    let expected = read_u32(cr.inner_mut(), "checksum")?;
    if expected != computed {
        return Err(PersistError::ChecksumMismatch {
            expected,
            got: computed,
        });
    }
    Ok(RawSnapshot {
        info,
        params,
        stats,
        radii,
        points,
    })
}

/// Deserializes a snapshot from `r` and rebuilds the model by refitting
/// the stored points with the stored parameters, the supplied `metric`,
/// and the supplied `builder` — then verifies the rebuilt diameter,
/// radius grid, cutoff, and [`ModelStats`] bit-for-bit against the
/// snapshot's witness fields. On success the returned fit is guaranteed
/// to produce byte-identical scores, top-k, and cutoff to the model
/// that was saved.
///
/// The `builder` must be of the same index family the snapshot was
/// fitted with ([`PersistError::BackendMismatch`] otherwise), and its
/// tuning knobs (leaf capacities etc.) must also match for the
/// verification to pass. The answers do not depend on the tree (the
/// diameter estimate comes from the points and the metric), but the
/// witness's [`ModelStats::distance_evals`] counts the tree's work. The
/// metric is not recorded in the snapshot — supplying a different metric
/// than at save time is caught by the same verification whenever it
/// changes any distance.
pub fn load_model<P, M, B, R>(
    r: R,
    metric: M,
    builder: B,
) -> Result<LoadedModel<P, M, B>, PersistError>
where
    P: PersistPoint + Send + Sync,
    M: Metric<P>,
    B: IndexBuilder<P, M>,
    R: Read,
{
    let _span = mccatch_obs::Span::enter(mccatch_obs::StageId::PersistLoad);
    let raw = read_raw::<P, R>(r)?;
    if builder.backend_name() != raw.info.backend {
        return Err(PersistError::BackendMismatch {
            expected: builder.backend_name().to_owned(),
            got: raw.info.backend,
        });
    }
    let mccatch = McCatch::new(raw.params)?;
    let fitted = mccatch.fit(raw.points, metric, builder)?;
    verify_stats(&fitted.stats(), &raw.stats)?;
    let rebuilt_radii = fitted.radii();
    if rebuilt_radii.len() != raw.radii.len()
        || rebuilt_radii
            .iter()
            .zip(&raw.radii)
            .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err(PersistError::RebuildDiverged {
            field: "radius grid",
        });
    }
    Ok(LoadedModel {
        fitted,
        generation: raw.info.generation,
        seq: raw.info.seq,
        info: raw.info,
    })
}

/// Field-by-field witness comparison, floats by raw bits so `-0.0`,
/// infinities, and NaNs are compared exactly.
fn verify_stats(rebuilt: &ModelStats, stored: &ModelStats) -> Result<(), PersistError> {
    let diverged = |field| Err(PersistError::RebuildDiverged { field });
    if rebuilt.num_points != stored.num_points {
        return diverged("num_points");
    }
    if rebuilt.diameter.to_bits() != stored.diameter.to_bits() {
        return diverged("diameter");
    }
    if rebuilt.num_radii != stored.num_radii {
        return diverged("num_radii");
    }
    if rebuilt.cutoff_d.to_bits() != stored.cutoff_d.to_bits() {
        return diverged("cutoff_d");
    }
    if rebuilt.num_outliers != stored.num_outliers {
        return diverged("num_outliers");
    }
    if rebuilt.num_microclusters != stored.num_microclusters {
        return diverged("num_microclusters");
    }
    if rebuilt.distance_evals != stored.distance_evals {
        return diverged("distance_evals");
    }
    if rebuilt.degenerate != stored.degenerate {
        return diverged("degenerate");
    }
    Ok(())
}
