//! Dense matrices and Gaussian elimination over a prime field.
//!
//! The hint-matrix mechanism reduces to solving a small linear system
//! `A·x = b` (at most γ equations, at most γ unknowns, γ ≤ a few dozen) over
//! the Goldilocks field. Systems may be *overdetermined* for a candidate
//! with fewer than γ unknowns — inconsistency then proves the candidate
//! wrong before any decryption is attempted.

#![allow(clippy::needless_range_loop)] // explicit indices read better in elimination kernels
use crate::biguint::BigUint;
use crate::field::PrimeField;

/// A dense row-major matrix over a prime field.
///
/// # Example
///
/// ```
/// use msb_bignum::{BigUint, PrimeField};
/// use msb_bignum::linalg::Matrix;
///
/// let f = PrimeField::new(BigUint::from(97u64));
/// let a = Matrix::from_rows(vec![
///     vec![BigUint::from(2u64), BigUint::from(1u64)],
///     vec![BigUint::from(1u64), BigUint::from(3u64)],
/// ]);
/// let b = vec![BigUint::from(5u64), BigUint::from(10u64)];
/// let x = a.solve(&f, &b).expect("nonsingular");
/// assert_eq!(x[0], BigUint::from(1u64));
/// assert_eq!(x[1], BigUint::from(3u64));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<BigUint>,
}

/// Outcome of an elimination that cannot produce a unique solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The system is inconsistent (no solution exists).
    Inconsistent,
    /// The system is underdetermined (rank < number of unknowns).
    Underdetermined,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Inconsistent => write!(f, "linear system is inconsistent"),
            SolveError::Underdetermined => write!(f, "linear system is underdetermined"),
        }
    }
}

impl std::error::Error for SolveError {}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![BigUint::zero(); rows * cols] }
    }

    /// Creates the identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            *m.at_mut(i, i) = BigUint::one();
        }
        m
    }

    /// Builds a matrix from rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or there are no rows.
    pub fn from_rows(rows: Vec<Vec<BigUint>>) -> Self {
        let r = rows.len();
        assert!(r > 0, "matrix needs at least one row");
        let c = rows[0].len();
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Matrix { rows: r, cols: c, data: rows.into_iter().flatten().collect() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    pub fn at(&self, r: usize, c: usize) -> &BigUint {
        &self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut BigUint {
        &mut self.data[r * self.cols + c]
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hconcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "row count mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                *out.at_mut(r, c) = self.at(r, c).clone();
            }
            for c in 0..other.cols {
                *out.at_mut(r, self.cols + c) = other.at(r, c).clone();
            }
        }
        out
    }

    /// Extracts the listed columns, preserving order.
    pub fn select_columns(&self, cols: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, cols.len());
        for r in 0..self.rows {
            for (i, &c) in cols.iter().enumerate() {
                *out.at_mut(r, i) = self.at(r, c).clone();
            }
        }
        out
    }

    /// Matrix–vector product over `field`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, field: &PrimeField, v: &[BigUint]) -> Vec<BigUint> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|r| {
                let mut acc = BigUint::zero();
                for c in 0..self.cols {
                    acc = field.add(&acc, &field.mul(self.at(r, c), &v[c]));
                }
                acc
            })
            .collect()
    }

    /// Solves `self · x = b` by Gaussian elimination with partial pivoting
    /// (pivot = first nonzero). Accepts overdetermined systems
    /// (`rows >= cols`): redundant consistent rows are fine; any
    /// contradictory row yields [`SolveError::Inconsistent`].
    ///
    /// # Errors
    ///
    /// * [`SolveError::Underdetermined`] if `rows < cols` or rank deficient.
    /// * [`SolveError::Inconsistent`] if no solution exists.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.rows()`.
    pub fn solve(&self, field: &PrimeField, b: &[BigUint]) -> Result<Vec<BigUint>, SolveError> {
        assert_eq!(b.len(), self.rows, "rhs length mismatch");
        if self.rows < self.cols {
            return Err(SolveError::Underdetermined);
        }
        // Augmented matrix [A | b].
        let mut a = self.clone();
        let mut rhs: Vec<BigUint> = b.to_vec();
        let mut pivot_row = 0usize;

        for col in 0..self.cols {
            // Find a pivot.
            let found = (pivot_row..self.rows).find(|&r| !a.at(r, col).is_zero());
            let Some(p) = found else {
                return Err(SolveError::Underdetermined);
            };
            if p != pivot_row {
                a.swap_rows(p, pivot_row);
                rhs.swap(p, pivot_row);
            }
            // Normalize the pivot row.
            let inv = field.inv(a.at(pivot_row, col)).expect("pivot is nonzero in a prime field");
            for c in col..self.cols {
                *a.at_mut(pivot_row, c) = field.mul(a.at(pivot_row, c), &inv);
            }
            rhs[pivot_row] = field.mul(&rhs[pivot_row], &inv);
            // Eliminate below.
            for r in pivot_row + 1..self.rows {
                if a.at(r, col).is_zero() {
                    continue;
                }
                let factor = a.at(r, col).clone();
                for c in col..self.cols {
                    let delta = field.mul(&factor, a.at(pivot_row, c));
                    *a.at_mut(r, c) = field.sub(a.at(r, c), &delta);
                }
                let delta = field.mul(&factor, &rhs[pivot_row]);
                rhs[r] = field.sub(&rhs[r], &delta);
            }
            pivot_row += 1;
        }

        // Extra rows must have been reduced to 0 = 0.
        for r in pivot_row..self.rows {
            if !rhs[r].is_zero() {
                return Err(SolveError::Inconsistent);
            }
        }

        // Back substitution.
        let mut x = vec![BigUint::zero(); self.cols];
        for col in (0..self.cols).rev() {
            let mut acc = rhs[col].clone();
            for c in col + 1..self.cols {
                let delta = field.mul(a.at(col, c), &x[c]);
                acc = field.sub(&acc, &delta);
            }
            x[col] = acc;
        }
        Ok(x)
    }

    /// Solves `self · x = b` for every `b` at once: one Gauss–Jordan
    /// elimination of `[self | I]` (pivot = first nonzero, as in
    /// [`Matrix::solve`]) returns `(L, N)`.
    ///
    /// * `L` (`cols × rows`) is a left inverse: `L · self = I`.
    /// * `N` (`(rows − cols) × rows`) spans the vectors `y` with
    ///   `y · self = 0`.
    ///
    /// So `self · x = b` is consistent exactly when `N · b = 0`, and its
    /// unique solution is then `L · b`: what [`Matrix::solve`] returns
    /// for that `b`, without another inversion.
    ///
    /// # Errors
    ///
    /// [`SolveError::Underdetermined`] if `rows < cols` or the matrix is
    /// rank deficient: exactly when [`Matrix::solve`] reports it, for any
    /// right-hand side.
    pub fn left_inverse(&self, field: &PrimeField) -> Result<(Matrix, Matrix), SolveError> {
        let (rows, cols) = (self.rows, self.cols);
        if rows < cols {
            return Err(SolveError::Underdetermined);
        }
        let mut a = self.hconcat(&Matrix::identity(rows));
        for col in 0..cols {
            let p = (col..rows)
                .find(|&r| !a.at(r, col).is_zero())
                .ok_or(SolveError::Underdetermined)?;
            a.swap_rows(p, col);
            let inv = field.inv(a.at(col, col)).expect("pivot is nonzero in a prime field");
            for c in col..a.cols {
                *a.at_mut(col, c) = field.mul(a.at(col, c), &inv);
            }
            for r in (0..rows).filter(|&r| r != col) {
                if a.at(r, col).is_zero() {
                    continue;
                }
                let factor = a.at(r, col).clone();
                for c in col..a.cols {
                    let delta = field.mul(&factor, a.at(col, c));
                    *a.at_mut(r, c) = field.sub(a.at(r, c), &delta);
                }
            }
        }
        // The left block is now [I; 0], so the right block E satisfies
        // E · self = [I; 0]: its top rows are L, the rest N.
        let mut l = Matrix::zeros(cols, rows);
        let mut n = Matrix::zeros(rows - cols, rows);
        for r in 0..rows {
            for c in 0..rows {
                let v = a.at(r, cols + c).clone();
                if r < cols {
                    *l.at_mut(r, c) = v;
                } else {
                    *n.at_mut(r - cols, c) = v;
                }
            }
        }
        Ok((l, n))
    }

    fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(r1 * self.cols + c, r2 * self.cols + c);
        }
    }
}

/// Builds a γ×β Cauchy matrix over `field`: `R[i][j] = 1 / (x_i + y_j)`
/// with `x_i = i + 1` and `y_j = γ + j + 1`, all distinct, so every square
/// submatrix is nonsingular.
///
/// This instantiates the paper's "random nonzero integer" block `R` of the
/// constraint matrix `C = [I | R]` with a structured choice that makes the
/// claimed unique solvability (paper Eq. 12–13) unconditional: for any set
/// of ≤ γ unknown positions the restricted system is nonsingular.
pub fn cauchy_matrix(field: &PrimeField, rows: usize, cols: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            let xi = field.element(BigUint::from((i + 1) as u64));
            let yj = field.element(BigUint::from((rows + j + 1) as u64));
            let sum = field.add(&xi, &yj);
            let inv = field.inv(&sum).expect("x_i + y_j < p and nonzero");
            *m.at_mut(i, j) = inv;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f97() -> PrimeField {
        PrimeField::new(BigUint::from(97u64))
    }

    fn big(v: u64) -> BigUint {
        BigUint::from(v)
    }

    fn mat(rows: &[&[u64]]) -> Matrix {
        Matrix::from_rows(rows.iter().map(|r| r.iter().map(|&v| big(v)).collect()).collect())
    }

    #[test]
    fn identity_solve() {
        let f = f97();
        let i3 = Matrix::identity(3);
        let b = vec![big(4), big(5), big(6)];
        assert_eq!(i3.solve(&f, &b).unwrap(), b);
    }

    #[test]
    fn solve_2x2() {
        let f = f97();
        let a = mat(&[&[2, 1], &[1, 3]]);
        let b = vec![big(5), big(10)];
        let x = a.solve(&f, &b).unwrap();
        assert_eq!(a.mul_vec(&f, &x), b);
    }

    #[test]
    fn solve_requires_pivoting() {
        let f = f97();
        // Leading zero forces a row swap.
        let a = mat(&[&[0, 1], &[1, 0]]);
        let b = vec![big(7), big(9)];
        let x = a.solve(&f, &b).unwrap();
        assert_eq!(x, vec![big(9), big(7)]);
    }

    #[test]
    fn overdetermined_consistent() {
        let f = f97();
        // Third row = row0 + row1.
        let a = mat(&[&[1, 0], &[0, 1], &[1, 1]]);
        let b = vec![big(3), big(4), big(7)];
        assert_eq!(a.solve(&f, &b).unwrap(), vec![big(3), big(4)]);
    }

    #[test]
    fn overdetermined_inconsistent() {
        let f = f97();
        let a = mat(&[&[1, 0], &[0, 1], &[1, 1]]);
        let b = vec![big(3), big(4), big(8)];
        assert_eq!(a.solve(&f, &b), Err(SolveError::Inconsistent));
    }

    #[test]
    fn singular_detected() {
        let f = f97();
        let a = mat(&[&[1, 2], &[2, 4]]);
        let b = vec![big(1), big(2)];
        assert_eq!(a.solve(&f, &b), Err(SolveError::Underdetermined));
    }

    #[test]
    fn underdetermined_shape() {
        let f = f97();
        let a = mat(&[&[1, 2, 3]]);
        assert_eq!(a.solve(&f, &[big(1)]), Err(SolveError::Underdetermined));
    }

    #[test]
    fn left_inverse_solves_and_checks() {
        let f = f97();
        // Third row = row0 + row1: one consistency row.
        let a = mat(&[&[0, 1], &[1, 0], &[1, 1]]);
        let (l, n) = a.left_inverse(&f).unwrap();
        assert_eq!((l.rows(), l.cols(), n.rows(), n.cols()), (2, 3, 1, 3));
        for b in [vec![big(3), big(4), big(7)], vec![big(3), big(4), big(8)]] {
            let consistent = n.mul_vec(&f, &b).iter().all(BigUint::is_zero);
            match a.solve(&f, &b) {
                Ok(x) => assert!(consistent && l.mul_vec(&f, &b) == x),
                Err(e) => assert!(!consistent && e == SolveError::Inconsistent),
            }
        }
        // Square: no consistency rows.
        let (_, n) = mat(&[&[2, 1], &[1, 3]]).left_inverse(&f).unwrap();
        assert_eq!(n.rows(), 0);
    }

    #[test]
    fn left_inverse_rank_deficiency_matches_solve() {
        let f = f97();
        for a in [mat(&[&[1, 2], &[2, 4]]), mat(&[&[1, 2, 3]]), mat(&[&[0], &[0]])] {
            assert_eq!(a.left_inverse(&f).unwrap_err(), SolveError::Underdetermined);
            assert_eq!(a.solve(&f, &vec![big(0); a.rows()]), Err(SolveError::Underdetermined));
        }
    }

    #[test]
    fn hconcat_and_select() {
        let a = mat(&[&[1, 2], &[3, 4]]);
        let b = mat(&[&[5], &[6]]);
        let c = a.hconcat(&b);
        assert_eq!(c.cols(), 3);
        assert_eq!(*c.at(1, 2), big(6));
        let sel = c.select_columns(&[2, 0]);
        assert_eq!(*sel.at(0, 0), big(5));
        assert_eq!(*sel.at(0, 1), big(1));
    }

    #[test]
    fn cauchy_all_square_submatrices_nonsingular_small() {
        let f = f97();
        let m = cauchy_matrix(&f, 3, 4);
        // Every 2x2 submatrix must be nonsingular: det != 0.
        for r1 in 0..3 {
            for r2 in r1 + 1..3 {
                for c1 in 0..4 {
                    for c2 in c1 + 1..4 {
                        let det = f.sub(
                            &f.mul(m.at(r1, c1), m.at(r2, c2)),
                            &f.mul(m.at(r1, c2), m.at(r2, c1)),
                        );
                        assert!(!det.is_zero(), "singular 2x2 at {r1},{r2},{c1},{c2}");
                    }
                }
            }
        }
    }

    #[test]
    fn cauchy_identity_concat_solves_any_unknown_pattern() {
        // [I | Cauchy] restricted to any <= rows unknown columns solves.
        let f = PrimeField::goldilocks448();
        let gamma = 3;
        let beta = 4;
        let c = Matrix::identity(gamma).hconcat(&cauchy_matrix(&f, gamma, beta));
        // True secret vector.
        let secret: Vec<BigUint> =
            (0..gamma + beta).map(|i| f.element(BigUint::from((1000 + i * 37) as u64))).collect();
        let b = c.mul_vec(&f, &secret);
        // Try every pattern of up to gamma unknowns.
        let n = gamma + beta;
        for mask in 0u32..(1 << n) {
            let unknowns: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
            if unknowns.is_empty() || unknowns.len() > gamma {
                continue;
            }
            let knowns: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 0).collect();
            // rhs = b - C_K * x_K
            let ck = c.select_columns(&knowns);
            let xk: Vec<BigUint> = knowns.iter().map(|&i| secret[i].clone()).collect();
            let ckxk = ck.mul_vec(&f, &xk);
            let rhs: Vec<BigUint> = b.iter().zip(&ckxk).map(|(x, y)| f.sub(x, y)).collect();
            let cu = c.select_columns(&unknowns);
            let solved = cu.solve(&f, &rhs).unwrap_or_else(|e| {
                panic!("pattern {unknowns:?} failed: {e}");
            });
            for (i, &u) in unknowns.iter().enumerate() {
                assert_eq!(solved[i], secret[u], "unknown {u} in pattern {unknowns:?}");
            }
        }
    }
}
