//! MatrixMarket (`.mtx`) reader/writer.
//!
//! The paper evaluates on matrices from the University of Florida (SuiteSparse)
//! collection, distributed in MatrixMarket coordinate format. This module lets
//! the benchmark harnesses load those files directly when they are available,
//! falling back to the synthetic [`crate::proxies`] otherwise.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;

use crate::{CooMatrix, CsrMatrix, SparseError};

/// Symmetry declared in a MatrixMarket header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmSymmetry {
    /// All entries are stored explicitly.
    General,
    /// Only the lower triangle is stored; the upper triangle is mirrored.
    Symmetric,
}

/// Parses a MatrixMarket *coordinate real* stream into a CSR matrix.
///
/// Supported headers: `%%MatrixMarket matrix coordinate real general` and
/// `... coordinate real symmetric`. Pattern / complex / array formats are
/// rejected with a descriptive error.
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<CsrMatrix, SparseError> {
    let mut lines = reader.lines();

    // Header line.
    let header = loop {
        match lines.next() {
            Some(line) => {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                break line;
            }
            None => return Err(SparseError::Parse("empty MatrixMarket file".into())),
        }
    };
    let header_lc = header.to_ascii_lowercase();
    if !header_lc.starts_with("%%matrixmarket") {
        return Err(SparseError::Parse(format!(
            "missing %%MatrixMarket header, found: {header}"
        )));
    }
    if !header_lc.contains("matrix") || !header_lc.contains("coordinate") {
        return Err(SparseError::Parse(
            "only `matrix coordinate` MatrixMarket files are supported".into(),
        ));
    }
    if header_lc.contains("complex") || header_lc.contains("pattern") {
        return Err(SparseError::Parse(
            "complex / pattern MatrixMarket files are not supported".into(),
        ));
    }
    let symmetry = if header_lc.contains("symmetric") {
        MmSymmetry::Symmetric
    } else {
        MmSymmetry::General
    };

    // Size line (skipping comments).
    let size_line = loop {
        match lines.next() {
            Some(line) => {
                let line = line?;
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('%') {
                    continue;
                }
                break line;
            }
            None => return Err(SparseError::Parse("missing size line".into())),
        }
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|e| SparseError::Parse(format!("bad size token `{t}`: {e}")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(SparseError::Parse(format!(
            "size line must have 3 fields, found {}",
            dims.len()
        )));
    }
    let (rows, cols, nnz) = (dims[0], dims[1], dims[2]);

    let mut coo = CooMatrix::with_capacity(rows, cols, nnz * 2);
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| SparseError::Parse("missing row index".into()))?
            .parse()
            .map_err(|e| SparseError::Parse(format!("bad row index: {e}")))?;
        let c: usize = it
            .next()
            .ok_or_else(|| SparseError::Parse("missing column index".into()))?
            .parse()
            .map_err(|e| SparseError::Parse(format!("bad column index: {e}")))?;
        // A missing value token means the file is `pattern` format (or
        // damaged); defaulting it to 1.0 silently fabricates matrix data,
        // so it is a hard parse error.
        let v: f64 = it
            .next()
            .ok_or_else(|| {
                SparseError::Parse(format!(
                    "entry {r} {c} has no value token (pattern-format data in a real file?)"
                ))
            })?
            .parse()
            .map_err(|e| SparseError::Parse(format!("bad value: {e}")))?;
        if r == 0 || c == 0 {
            return Err(SparseError::Parse(
                "MatrixMarket indices are 1-based; found 0".into(),
            ));
        }
        match symmetry {
            MmSymmetry::General => coo.push(r - 1, c - 1, v)?,
            MmSymmetry::Symmetric => {
                // The format stores only the lower triangle of a symmetric
                // matrix; an upper-triangle entry means the writer did not
                // follow the spec, and mirroring it would double-count
                // against a matching lower entry.
                if c > r {
                    return Err(SparseError::Parse(format!(
                        "symmetric file stores upper-triangle entry {r} {c}; \
                         the format requires the lower triangle only"
                    )));
                }
                coo.push_symmetric(r - 1, c - 1, v)?
            }
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::Parse(format!(
            "header declares {nnz} entries but {seen} were found"
        )));
    }
    coo.to_csr()
}

/// Reads a MatrixMarket file from disk.
pub fn read_matrix_market_file<P: AsRef<Path>>(path: P) -> Result<CsrMatrix, SparseError> {
    let file = std::fs::File::open(path)?;
    read_matrix_market(BufReader::new(file))
}

/// Writes a CSR matrix in MatrixMarket *coordinate real general* format.
pub fn write_matrix_market<W: Write>(matrix: &CsrMatrix, mut writer: W) -> Result<(), SparseError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(
        writer,
        "{} {} {}",
        matrix.rows(),
        matrix.cols(),
        matrix.nnz()
    )?;
    for r in 0..matrix.rows() {
        let (cols, vals) = matrix.row(r);
        for (c, v) in cols.iter().zip(vals) {
            writeln!(writer, "{} {} {:.17e}", r + 1, c + 1, v)?;
        }
    }
    Ok(())
}

/// Writes a CSR matrix to a MatrixMarket file on disk.
pub fn write_matrix_market_file<P: AsRef<Path>>(
    matrix: &CsrMatrix,
    path: P,
) -> Result<(), SparseError> {
    let file = std::fs::File::create(path)?;
    write_matrix_market(matrix, std::io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_general_matrix() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 3 4\n\
                    1 1 2.0\n\
                    2 2 3.0\n\
                    3 3 4.0\n\
                    1 3 -1.0\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 2), -1.0);
    }

    #[test]
    fn parse_symmetric_matrix_mirrors_entries() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n\
                    1 1 2.0\n\
                    2 1 -1.0\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.get(0, 1), -1.0);
        assert_eq!(m.get(1, 0), -1.0);
        assert!(m.is_symmetric(0.0));
    }

    #[test]
    fn roundtrip_through_writer() {
        let a = crate::generators::poisson_2d(5);
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn file_roundtrip() {
        let a = crate::generators::random_spd(30, 3, 5);
        let path = std::env::temp_dir().join("feir_mm_roundtrip_test.mtx");
        write_matrix_market_file(&a, &path).unwrap();
        let b = read_matrix_market_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_headers() {
        assert!(read_matrix_market("not a header\n1 1 0\n".as_bytes()).is_err());
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate complex general\n1 1 0\n".as_bytes()
        )
        .is_err());
        assert!(
            read_matrix_market("%%MatrixMarket matrix array real general\n1 1\n".as_bytes())
                .is_err()
        );
    }

    #[test]
    fn rejects_missing_value_token() {
        // `coordinate real` declares a value per entry; a bare index pair is
        // pattern-format data and must not silently become 1.0.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("no value token"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn rejects_upper_triangle_entries_in_symmetric_files() {
        // "1 2" is above the diagonal: a spec-violating symmetric file whose
        // mirror would double-count against a stored "2 1".
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n\
                    1 1 2.0\n\
                    1 2 -1.0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("upper-triangle"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn an_oversize_width_is_a_typed_error() {
        let wide = u32::MAX as usize + 1;
        let text = format!("%%MatrixMarket matrix coordinate real general\n1 {wide} 0\n");
        assert_eq!(
            read_matrix_market(text.as_bytes()),
            Err(SparseError::TooManyColumns { cols: wide })
        );
        // The widest readable matrix: its last column is 1-based u32::MAX.
        let widest = u32::MAX as usize;
        let text = format!(
            "%%MatrixMarket matrix coordinate real general\n1 {widest} 1\n1 {widest} 2.5\n"
        );
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.row(0), (&[u32::MAX - 1][..], &[2.5][..]));
        assert_eq!(a.get(0, widest - 1), 2.5);
    }

    #[test]
    fn rejects_zero_based_indices_and_wrong_counts() {
        let zero_based = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 5.0\n";
        assert!(read_matrix_market(zero_based.as_bytes()).is_err());
        let wrong_count = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5.0\n";
        assert!(read_matrix_market(wrong_count.as_bytes()).is_err());
    }
}
