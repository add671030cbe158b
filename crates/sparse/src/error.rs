//! Error type shared by the sparse-algebra substrate.

use std::fmt;

/// Errors raised by matrix construction, factorization and I/O routines.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// Matrix dimensions are inconsistent with the requested operation.
    DimensionMismatch {
        /// What was expected (rows, cols).
        expected: (usize, usize),
        /// What was found (rows, cols).
        found: (usize, usize),
    },
    /// An entry index lies outside the matrix.
    IndexOutOfBounds {
        /// Offending row index.
        row: usize,
        /// Offending column index.
        col: usize,
        /// Matrix shape.
        shape: (usize, usize),
    },
    /// A factorization failed because the matrix is singular (or not SPD for
    /// Cholesky) at the given pivot.
    SingularPivot {
        /// Pivot index at which the factorization broke down.
        pivot: usize,
    },
    /// The matrix is not square but the operation requires a square matrix.
    NotSquare {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// The matrix is wider than a `u32` column index can address.
    TooManyColumns {
        /// Requested column count (more than `u32::MAX`).
        cols: usize,
    },
    /// A MatrixMarket file could not be parsed.
    Parse(String),
    /// An I/O error occurred while reading or writing a matrix file.
    Io(String),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::DimensionMismatch { expected, found } => write!(
                f,
                "dimension mismatch: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            SparseError::IndexOutOfBounds { row, col, shape } => write!(
                f,
                "index ({row}, {col}) out of bounds for {}x{} matrix",
                shape.0, shape.1
            ),
            SparseError::SingularPivot { pivot } => {
                write!(f, "factorization broke down at pivot {pivot}")
            }
            SparseError::NotSquare { rows, cols } => {
                write!(f, "operation requires a square matrix, got {rows}x{cols}")
            }
            SparseError::TooManyColumns { cols } => write!(
                f,
                "{cols} columns exceed the u32 column index limit of {}",
                u32::MAX
            ),
            SparseError::Parse(msg) => write!(f, "matrix parse error: {msg}"),
            SparseError::Io(msg) => write!(f, "matrix I/O error: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = SparseError::DimensionMismatch {
            expected: (3, 3),
            found: (2, 3),
        };
        assert!(e.to_string().contains("expected 3x3"));
    }

    #[test]
    fn display_singular() {
        let e = SparseError::SingularPivot { pivot: 7 };
        assert!(e.to_string().contains("pivot 7"));
    }

    #[test]
    fn from_io_error() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: SparseError = io.into();
        assert!(matches!(e, SparseError::Io(_)));
    }
}
