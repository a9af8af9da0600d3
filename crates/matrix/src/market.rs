//! Minimal Matrix Market (`.mtx`) coordinate-format reader and writer.
//!
//! Supports the subset needed to exchange the workloads of this workspace:
//! `matrix coordinate {real|double|integer|pattern}
//! {general|symmetric|skew-symmetric}`. Pattern entries read as `1.0`,
//! integer values are parsed through [`Scalar::from_f64`], symmetric
//! entries mirror their off-diagonals, and skew-symmetric entries mirror
//! them negated (with explicit diagonal entries rejected, since a
//! skew-symmetric diagonal is identically zero). Indices are 1-based on
//! disk, 0-based in memory.
//!
//! **Duplicate coordinates are summed.** A file may list the same `(row,
//! col)` pair more than once (assembled finite-element exports commonly
//! do); the parser feeds every triplet through [`Coo::compress`], whose
//! pinned semantics are to sort row-major and *sum* duplicates, dropping
//! entries that cancel to exactly zero. A regression test
//! (`duplicate_entries_are_summed`) guards this behavior.
//!
//! The writer preserves the field and symmetry of a parsed file:
//! [`read_coo_with`] returns the [`MarketHeader`] alongside the matrix, and
//! [`write_coo_as`] emits that header back — a `pattern symmetric` file
//! round-trips to the same entry count with no fabricated values, instead
//! of silently doubling as `real general`.

use crate::coo::dim_fits_u32;
use crate::{Coo, MatrixError, Result, Scalar};
use std::io::{BufRead, BufReader, Read, Write};

/// Largest declared entry count the parser pre-allocates for before any
/// entry line has been seen (2^20 triplets ≈ 20 MiB of `f64` COO). The
/// declared `nnz` in an untrusted stream is a *claim*, not a measurement:
/// capping the speculative reservation bounds the damage a tiny malicious
/// stream with a huge header can do, while streams that really carry more
/// entries grow the vector amortized as the entries arrive.
const MAX_TRUSTED_PREALLOC: usize = 1 << 20;

/// Value field declared in a Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MarketField {
    /// `real` (or `double`): one floating-point value per entry.
    #[default]
    Real,
    /// `integer`: one integer value per entry, parsed through
    /// [`Scalar::from_f64`].
    Integer,
    /// `pattern`: positions only; entries read as `1.0` and write no value.
    Pattern,
}

impl MarketField {
    /// The header token of this field.
    pub fn token(&self) -> &'static str {
        match self {
            MarketField::Real => "real",
            MarketField::Integer => "integer",
            MarketField::Pattern => "pattern",
        }
    }
}

/// Symmetry declared in a Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MarketSymmetry {
    /// `general`: every entry is stored explicitly.
    #[default]
    General,
    /// `symmetric`: off-diagonal entries mirror across the diagonal.
    Symmetric,
    /// `skew-symmetric`: off-diagonals mirror negated; the diagonal is
    /// implicitly zero and explicit diagonal entries are rejected.
    SkewSymmetric,
}

impl MarketSymmetry {
    /// The header token of this symmetry.
    pub fn token(&self) -> &'static str {
        match self {
            MarketSymmetry::General => "general",
            MarketSymmetry::Symmetric => "symmetric",
            MarketSymmetry::SkewSymmetric => "skew-symmetric",
        }
    }
}

/// The `%%MatrixMarket` header of a coordinate stream, as returned by
/// [`read_coo_with`] and consumed by [`write_coo_as`] for lossless
/// round-trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MarketHeader {
    /// Value field of the stream.
    pub field: MarketField,
    /// Symmetry of the stream.
    pub symmetry: MarketSymmetry,
}

/// Reads a Matrix Market coordinate stream into a [`Coo`] matrix.
///
/// A `&mut R` can be passed for readers that must remain usable afterwards.
/// Duplicate coordinates are **summed** (see the [module docs](self)).
///
/// # Errors
///
/// Returns [`MatrixError::Parse`] for malformed content and
/// [`MatrixError::Io`] for underlying reader failures.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.5\n3 2 -2.0\n";
/// let m = smash_matrix::market::read_coo::<f64, _>(text.as_bytes())?;
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.entries()[1], (2, 1, -2.0));
/// # Ok(())
/// # }
/// ```
pub fn read_coo<T: Scalar, R: Read>(reader: R) -> Result<Coo<T>> {
    read_coo_with(reader).map(|(coo, _)| coo)
}

/// Reads a Matrix Market coordinate stream into a [`Coo`] matrix, returning
/// the parsed [`MarketHeader`] alongside it so the caller can write the
/// matrix back out in the same field/symmetry (see [`write_coo_as`]).
///
/// # Errors
///
/// Returns [`MatrixError::Parse`] for malformed content (including a row
/// or column count above `u32::MAX + 1`, which `u32` indices cannot
/// address) and [`MatrixError::Io`] for underlying reader failures.
pub fn read_coo_with<T: Scalar, R: Read>(reader: R) -> Result<(Coo<T>, MarketHeader)> {
    let mut lines = BufReader::new(reader).lines();
    let mut line_no = 0usize;

    let header = loop {
        match lines.next() {
            Some(l) => {
                line_no += 1;
                let l = l?;
                if line_no == 1 {
                    break l;
                }
            }
            None => {
                return Err(MatrixError::Parse {
                    line: 0,
                    message: "empty stream".into(),
                })
            }
        }
    };

    let head: Vec<&str> = header.split_whitespace().collect();
    if head.len() < 4 || !head[0].eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(MatrixError::Parse {
            line: 1,
            message: "expected %%MatrixMarket header".into(),
        });
    }
    if !head[1].eq_ignore_ascii_case("matrix") || !head[2].eq_ignore_ascii_case("coordinate") {
        return Err(MatrixError::Parse {
            line: 1,
            message: format!("unsupported object/format: {} {}", head[1], head[2]),
        });
    }
    let field = match head[3].to_ascii_lowercase().as_str() {
        "real" | "double" => MarketField::Real,
        "integer" => MarketField::Integer,
        "pattern" => MarketField::Pattern,
        other => {
            return Err(MatrixError::Parse {
                line: 1,
                message: format!("unsupported field type: {other}"),
            })
        }
    };
    let pattern = field == MarketField::Pattern;
    let symmetry = match head.get(4).map(|s| s.to_ascii_lowercase()) {
        None => MarketSymmetry::General,
        Some(s) if s == "general" => MarketSymmetry::General,
        Some(s) if s == "symmetric" => MarketSymmetry::Symmetric,
        Some(s) if s == "skew-symmetric" => MarketSymmetry::SkewSymmetric,
        Some(other) => {
            return Err(MatrixError::Parse {
                line: 1,
                message: format!("unsupported symmetry: {other}"),
            })
        }
    };

    // Skip comments, find size line.
    let size_line = loop {
        let l = lines.next().ok_or(MatrixError::Parse {
            line: line_no,
            message: "missing size line".into(),
        })?;
        line_no += 1;
        let l = l?;
        let t = l.trim();
        if !t.is_empty() && !t.starts_with('%') {
            break l;
        }
    };
    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(MatrixError::Parse {
            line: line_no,
            message: "size line must have rows cols nnz".into(),
        });
    }
    let parse_usize = |s: &str, line: usize| -> Result<usize> {
        s.parse().map_err(|_| MatrixError::Parse {
            line,
            message: format!("invalid integer `{s}`"),
        })
    };
    let rows = parse_usize(dims[0], line_no)?;
    let cols = parse_usize(dims[1], line_no)?;
    let nnz = parse_usize(dims[2], line_no)?;
    if !dim_fits_u32(rows) || !dim_fits_u32(cols) {
        return Err(MatrixError::Parse {
            line: line_no,
            message: format!("{rows}x{cols} matrix exceeds the u32 index range"),
        });
    }
    // An impossible count is rejected before anything is allocated, and a
    // merely huge one is only *trusted* for pre-allocation up to a cap: a
    // 30-byte stream must not be able to reserve gigabytes by declaring
    // `usize::MAX` entries. Past the cap the entry vector grows amortized
    // as real entries actually arrive, so honest large files still load.
    if nnz > rows.saturating_mul(cols) {
        return Err(MatrixError::Parse {
            line: line_no,
            message: format!("declared {nnz} entries exceed a {rows}x{cols} matrix"),
        });
    }

    let mut coo = Coo::with_capacity(rows, cols, nnz.min(MAX_TRUSTED_PREALLOC));
    let mut seen = 0usize;
    for l in lines {
        line_no += 1;
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let fields: Vec<&str> = t.split_whitespace().collect();
        let want = if pattern { 2 } else { 3 };
        if fields.len() < want {
            return Err(MatrixError::Parse {
                line: line_no,
                message: format!("expected {want} fields, found {}", fields.len()),
            });
        }
        let r = parse_usize(fields[0], line_no)?;
        let c = parse_usize(fields[1], line_no)?;
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(MatrixError::Parse {
                line: line_no,
                message: format!("entry ({r}, {c}) outside 1..={rows} x 1..={cols}"),
            });
        }
        let v = if pattern {
            T::ONE
        } else {
            let raw: f64 = fields[2].parse().map_err(|_| MatrixError::Parse {
                line: line_no,
                message: format!("invalid value `{}`", fields[2]),
            })?;
            T::from_f64(raw)
        };
        if symmetry == MarketSymmetry::SkewSymmetric && r == c {
            return Err(MatrixError::Parse {
                line: line_no,
                message: format!(
                    "skew-symmetric stream stores an explicit diagonal entry ({r}, {c})"
                ),
            });
        }
        coo.push(r - 1, c - 1, v);
        match symmetry {
            MarketSymmetry::General => {}
            MarketSymmetry::Symmetric => {
                if r != c {
                    coo.push(c - 1, r - 1, v);
                }
            }
            MarketSymmetry::SkewSymmetric => coo.push(c - 1, r - 1, -v),
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(MatrixError::Parse {
            line: line_no,
            message: format!("header declared {nnz} entries, found {seen}"),
        });
    }
    // Pinned semantics: duplicate coordinates (within the file, or created
    // by symmetry mirroring) are *summed* here.
    coo.compress();
    Ok((coo, MarketHeader { field, symmetry }))
}

/// Writes a [`Coo`] matrix as `matrix coordinate real general` — shorthand
/// for [`write_coo_as`] with the default [`MarketHeader`].
///
/// A `&mut W` can be passed for writers that must remain usable afterwards.
///
/// # Errors
///
/// Returns [`MatrixError::Io`] if the writer fails.
pub fn write_coo<T: Scalar, W: Write>(writer: W, coo: &Coo<T>) -> Result<()> {
    write_coo_as(writer, coo, MarketHeader::default())
}

/// Writes a [`Coo`] matrix with an explicit [`MarketHeader`], so a file
/// parsed with [`read_coo_with`] round-trips losslessly: a `pattern` stream
/// stays positions-only (no fabricated `1.0` values) and a `symmetric` /
/// `skew-symmetric` stream stores only its lower triangle (no doubling).
///
/// For [`MarketSymmetry::Symmetric`] the matrix must equal its transpose
/// (checked exactly, entry by entry); only entries with `row >= col` are
/// emitted. For [`MarketSymmetry::SkewSymmetric`] the matrix must equal the
/// negated transpose and have an empty diagonal; only `row > col` entries
/// are emitted. Violations are reported instead of silently writing a file
/// that would parse back as a different matrix.
///
/// # Errors
///
/// Returns [`MatrixError::InvalidStructure`] if the matrix does not satisfy
/// the declared symmetry or field (a `pattern` write requires every stored
/// value to be exactly `1` — a summed duplicate would silently read back as
/// `1.0` — and an `integer` write rejects fractional values, which strict
/// Matrix Market parsers refuse), and [`MatrixError::Io`] if the writer
/// fails.
pub fn write_coo_as<T: Scalar, W: Write>(
    mut writer: W,
    coo: &Coo<T>,
    header: MarketHeader,
) -> Result<()> {
    // The symmetry checks binary-search mirror entries and the pattern
    // check must see summed duplicates, so those paths need the compressed
    // (sorted, duplicate-summed) form. A valued `general` write streams the
    // entries as-is with no copy: duplicate coordinates on disk re-sum on
    // read to the same matrix.
    let needs_compressed =
        header.symmetry != MarketSymmetry::General || header.field == MarketField::Pattern;
    let compressed;
    let m = if !needs_compressed || coo.is_compressed() {
        coo
    } else {
        let mut c = coo.clone();
        c.compress();
        compressed = c;
        &compressed
    };
    let entries = m.entries();
    for &(r, c, v) in entries {
        match header.field {
            MarketField::Pattern if v != T::ONE => {
                return Err(MatrixError::InvalidStructure(format!(
                    "pattern write would lose value {v} at ({}, {})",
                    r + 1,
                    c + 1
                )));
            }
            MarketField::Integer if v.to_f64().fract() != 0.0 => {
                return Err(MatrixError::InvalidStructure(format!(
                    "integer write cannot represent fractional value {v} at ({}, {})",
                    r + 1,
                    c + 1
                )));
            }
            _ => {}
        }
    }
    let mirror_of = |r: u32, c: u32| -> Option<T> {
        entries
            .binary_search_by_key(&((c as u64) << 32 | r as u64), |&(er, ec, _)| {
                (er as u64) << 32 | ec as u64
            })
            .ok()
            .map(|k| entries[k].2)
    };
    match header.symmetry {
        MarketSymmetry::General => {}
        MarketSymmetry::Symmetric => {
            for &(r, c, v) in entries {
                if r != c && mirror_of(r, c) != Some(v) {
                    return Err(MatrixError::InvalidStructure(format!(
                        "matrix is not symmetric: entry ({}, {}) has no equal mirror",
                        r + 1,
                        c + 1
                    )));
                }
            }
        }
        MarketSymmetry::SkewSymmetric => {
            for &(r, c, v) in entries {
                if r == c {
                    return Err(MatrixError::InvalidStructure(format!(
                        "matrix is not skew-symmetric: non-zero diagonal entry ({}, {})",
                        r + 1,
                        c + 1
                    )));
                }
                if mirror_of(r, c) != Some(-v) {
                    return Err(MatrixError::InvalidStructure(format!(
                        "matrix is not skew-symmetric: entry ({}, {}) has no negated mirror",
                        r + 1,
                        c + 1
                    )));
                }
            }
        }
    }
    let keep = |r: u32, c: u32| match header.symmetry {
        MarketSymmetry::General => true,
        MarketSymmetry::Symmetric => r >= c,
        MarketSymmetry::SkewSymmetric => r > c,
    };
    let stored = entries.iter().filter(|&&(r, c, _)| keep(r, c)).count();
    writeln!(
        writer,
        "%%MatrixMarket matrix coordinate {} {}",
        header.field.token(),
        header.symmetry.token()
    )?;
    writeln!(writer, "{} {} {stored}", m.rows(), m.cols())?;
    for &(r, c, v) in entries.iter().filter(|&&(r, c, _)| keep(r, c)) {
        match header.field {
            MarketField::Pattern => writeln!(writer, "{} {}", r + 1, c + 1)?,
            MarketField::Real | MarketField::Integer => {
                writeln!(writer, "{} {} {}", r + 1, c + 1, v.to_f64())?
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut coo = Coo::<f64>::new(3, 4);
        coo.push(0, 0, 1.25);
        coo.push(2, 3, -7.0);
        coo.compress();
        let mut buf = Vec::new();
        write_coo(&mut buf, &coo).unwrap();
        let back = read_coo::<f64, _>(&buf[..]).unwrap();
        assert_eq!(back, coo);
    }

    #[test]
    fn pattern_entries_read_as_one() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n";
        let m = read_coo::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(m.entries(), &[(0, 0, 1.0), (1, 1, 1.0)]);
    }

    #[test]
    fn symmetric_mirrors_off_diagonal() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5.0\n3 3 1.0\n";
        let m = read_coo::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.to_dense().get(0, 1), 5.0);
        assert_eq!(m.to_dense().get(1, 0), 5.0);
    }

    #[test]
    fn comments_are_skipped() {
        let text =
            "%%MatrixMarket matrix coordinate real general\n% a comment\n\n2 2 1\n% more\n1 2 3.5\n";
        let m = read_coo::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(m.entries(), &[(0, 1, 3.5)]);
    }

    #[test]
    fn parse_write_parse_roundtrip() {
        // Start from text (not from an in-memory Coo) so the 1-based index
        // translation is exercised in both directions.
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    4 5 4\n1 1 1.5\n2 4 -2.25\n4 5 0.5\n3 2 8.0\n";
        let first = read_coo::<f64, _>(text.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_coo(&mut buf, &first).unwrap();
        let second = read_coo::<f64, _>(&buf[..]).unwrap();
        assert_eq!(first, second);
        assert_eq!(second.rows(), 4);
        assert_eq!(second.cols(), 5);
        assert_eq!(second.nnz(), 4);
    }

    #[test]
    fn symmetric_roundtrips_through_general_writer() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5.0\n3 3 1.0\n";
        let sym = read_coo::<f64, _>(text.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_coo(&mut buf, &sym).unwrap();
        // The writer emits `general`, so mirrored entries are written out
        // explicitly and survive the round-trip.
        let back = read_coo::<f64, _>(&buf[..]).unwrap();
        assert_eq!(back, sym);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_coo::<f64, _>("garbage\n1 1 0\n".as_bytes()).is_err());
        assert!(
            read_coo::<f64, _>("%%MatrixMarket matrix array real general\n1 1 0\n".as_bytes())
                .is_err()
        );
    }

    #[test]
    fn rejects_malformed_header_variants() {
        // Wrong object.
        assert!(read_coo::<f64, _>(
            "%%MatrixMarket vector coordinate real general\n1 1 0\n".as_bytes()
        )
        .is_err());
        // Unsupported field type.
        assert!(read_coo::<f64, _>(
            "%%MatrixMarket matrix coordinate complex general\n1 1 0\n".as_bytes()
        )
        .is_err());
        // Unsupported symmetry.
        assert!(read_coo::<f64, _>(
            "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n".as_bytes()
        )
        .is_err());
        // Truncated header line.
        assert!(read_coo::<f64, _>("%%MatrixMarket matrix\n1 1 0\n".as_bytes()).is_err());
        // Empty stream and missing size line.
        assert!(read_coo::<f64, _>("".as_bytes()).is_err());
        assert!(read_coo::<f64, _>(
            "%%MatrixMarket matrix coordinate real general\n% only comments\n".as_bytes()
        )
        .is_err());
    }

    #[test]
    fn rejects_malformed_size_and_entries() {
        // Size line with too few fields.
        assert!(read_coo::<f64, _>(
            "%%MatrixMarket matrix coordinate real general\n2 2\n".as_bytes()
        )
        .is_err());
        // Non-numeric size.
        assert!(read_coo::<f64, _>(
            "%%MatrixMarket matrix coordinate real general\n2 x 1\n1 1 1.0\n".as_bytes()
        )
        .is_err());
        // Entry missing its value field.
        assert!(read_coo::<f64, _>(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n".as_bytes()
        )
        .is_err());
        // Non-numeric value.
        assert!(read_coo::<f64, _>(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n".as_bytes()
        )
        .is_err());
        // 0-based index (Matrix Market is 1-based).
        assert!(read_coo::<f64, _>(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n".as_bytes()
        )
        .is_err());
    }

    #[test]
    fn integer_field_parses_through_from_f64() {
        let text = "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 3\n2 1 -7\n";
        let (m, header) = read_coo_with::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(m.entries(), &[(0, 0, 3.0), (1, 0, -7.0)]);
        assert_eq!(header.field, MarketField::Integer);
        assert_eq!(header.symmetry, MarketSymmetry::General);
    }

    #[test]
    fn integer_symmetric_header_parses() {
        let text = "%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 4\n";
        let m = read_coo::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(m.entries(), &[(0, 1, 4.0), (1, 0, 4.0)]);
    }

    #[test]
    fn skew_symmetric_mirrors_negated() {
        let text =
            "%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 2\n2 1 5.0\n3 1 -2.5\n";
        let (m, header) = read_coo_with::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(header.symmetry, MarketSymmetry::SkewSymmetric);
        assert_eq!(
            m.entries(),
            &[(0, 1, -5.0), (0, 2, 2.5), (1, 0, 5.0), (2, 0, -2.5)]
        );
    }

    #[test]
    fn skew_symmetric_rejects_explicit_diagonal() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 2 1.0\n";
        assert!(read_coo::<f64, _>(text.as_bytes()).is_err());
    }

    #[test]
    fn duplicate_entries_are_summed() {
        // Pinned semantics: the parser feeds duplicates through
        // `Coo::compress`, which *sums* them (and drops exact cancels).
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    2 2 4\n1 1 1.5\n1 1 2.5\n2 1 3.0\n2 1 -3.0\n";
        let m = read_coo::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(m.entries(), &[(0, 0, 4.0)]);
    }

    #[test]
    fn pattern_write_preserves_field() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 1\n2 3\n";
        let (m, header) = read_coo_with::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(header.field, MarketField::Pattern);
        let mut buf = Vec::new();
        write_coo_as(&mut buf, &m, header).unwrap();
        // Round-trip is byte-lossless: no fabricated `1` values appear.
        assert_eq!(std::str::from_utf8(&buf).unwrap(), text);
    }

    #[test]
    fn symmetric_write_stores_lower_triangle_only() {
        let text =
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2.0\n2 1 5.0\n3 2 -1.0\n";
        let (m, header) = read_coo_with::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 5); // mirrored in memory
        let mut buf = Vec::new();
        write_coo_as(&mut buf, &m, header).unwrap();
        let out = std::str::from_utf8(&buf).unwrap();
        assert!(out.starts_with("%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n"));
        // And the round-trip reproduces the mirrored matrix exactly.
        let (back, back_header) = read_coo_with::<f64, _>(&buf[..]).unwrap();
        assert_eq!(back, m);
        assert_eq!(back_header, header);
    }

    #[test]
    fn skew_symmetric_write_roundtrips() {
        let text =
            "%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 2\n2 1 5.0\n3 1 -2.5\n";
        let (m, header) = read_coo_with::<f64, _>(text.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_coo_as(&mut buf, &m, header).unwrap();
        let out = std::str::from_utf8(&buf).unwrap();
        // Strict lower triangle only: 2 stored entries, not 4.
        assert!(
            out.starts_with("%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 2\n"),
            "{out}"
        );
        let (back, back_header) = read_coo_with::<f64, _>(&buf[..]).unwrap();
        assert_eq!(back, m);
        assert_eq!(back_header, header);
    }

    #[test]
    fn symmetric_write_rejects_asymmetric_matrix() {
        let mut coo = Coo::<f64>::new(2, 2);
        coo.push(1, 0, 5.0); // no (0, 1) mirror
        coo.compress();
        let header = MarketHeader {
            field: MarketField::Real,
            symmetry: MarketSymmetry::Symmetric,
        };
        assert!(write_coo_as(Vec::new(), &coo, header).is_err());
        // Same matrix, skew declaration: mirror must be *negated*.
        let skew = MarketHeader {
            symmetry: MarketSymmetry::SkewSymmetric,
            ..header
        };
        assert!(write_coo_as(Vec::new(), &coo, skew).is_err());
        // A diagonal entry also violates skew symmetry.
        let mut diag = Coo::<f64>::new(2, 2);
        diag.push(0, 0, 1.0);
        diag.compress();
        assert!(write_coo_as(Vec::new(), &diag, skew).is_err());
    }

    #[test]
    fn general_write_streams_duplicates_that_resum_on_read() {
        // A valued `general` write streams uncompressed entries as-is (no
        // copy, no sort); the on-disk duplicates re-sum on read to the
        // same semantic matrix.
        let mut coo = Coo::<f64>::new(2, 2);
        coo.push(1, 1, 2.0);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 3.0);
        let mut buf = Vec::new();
        write_coo_as(&mut buf, &coo, MarketHeader::default()).unwrap();
        let out = std::str::from_utf8(&buf).unwrap();
        assert!(out.contains("\n2 2 3\n"), "3 entries stored as-is: {out}");
        let back = read_coo::<f64, _>(&buf[..]).unwrap();
        assert_eq!(back.entries(), &[(0, 0, 1.0), (1, 1, 5.0)]);
    }

    #[test]
    fn pattern_write_rejects_non_unit_values() {
        // A duplicated pattern position sums to 2.0 on read; writing it
        // back as `pattern` would silently read as 1.0 — error instead.
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n1 1\n";
        let (m, header) = read_coo_with::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(m.entries(), &[(0, 0, 2.0)]);
        assert!(write_coo_as(Vec::new(), &m, header).is_err());
        // A genuinely 0/1 matrix still writes fine.
        let mut ones = Coo::<f64>::new(2, 2);
        ones.push(0, 1, 1.0);
        assert!(write_coo_as(Vec::new(), &ones, header).is_ok());
    }

    #[test]
    fn integer_write_rejects_fractional_values() {
        let mut coo = Coo::<f64>::new(2, 2);
        coo.push(0, 0, 2.5);
        let header = MarketHeader {
            field: MarketField::Integer,
            symmetry: MarketSymmetry::General,
        };
        assert!(write_coo_as(Vec::new(), &coo, header).is_err());
        let mut whole = Coo::<f64>::new(2, 2);
        whole.push(0, 0, -7.0);
        assert!(write_coo_as(Vec::new(), &whole, header).is_ok());
    }

    #[test]
    fn rejects_wrong_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_coo::<f64, _>(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_dimensions_beyond_u32_indices() {
        // Row 4294967297 has no `u32` index; narrowing it gives row 0.
        let text =
            "%%MatrixMarket matrix coordinate real general\n4294967297 1 1\n4294967297 1 5.0\n";
        match read_coo::<f64, _>(text.as_bytes()) {
            Err(MatrixError::Parse { line: 2, message }) => {
                assert!(message.contains("u32 index range"), "{message}")
            }
            other => panic!("expected a parse error on line 2, got {other:?}"),
        }
        // The widest dimension whose indices all fit `u32` still loads.
        let text =
            "%%MatrixMarket matrix coordinate real general\n4294967296 1 1\n4294967296 1 5.0\n";
        let coo = read_coo::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(coo.entries(), &[(u32::MAX, 0, 5.0)]);
    }

    #[test]
    fn rejects_out_of_bounds() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_coo::<f64, _>(text.as_bytes()).is_err());
    }
}
