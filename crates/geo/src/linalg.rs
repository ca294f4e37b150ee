//! Minimal dense linear algebra: symmetric matrices and the cyclic Jacobi
//! eigensolver.
//!
//! Classical MDS needs the leading eigenpairs of an `n x n` symmetric
//! (double-centered Gram) matrix. For the problem sizes in the paper
//! (`n = 181` Topix sources, at most a few thousand synthetic streams) a
//! dense cyclic Jacobi sweep is simple, numerically robust, and fast enough,
//! so we implement it here rather than pulling in a linear-algebra crate.

use std::fmt;

/// A dense symmetric matrix stored as the full square (row-major).
///
/// Only symmetric data should be stored; [`SymMatrix::set`] writes both
/// `(i, j)` and `(j, i)` to make that easy to maintain.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymMatrix {
    /// Creates an `n x n` zero matrix.
    pub(crate) fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Builds a symmetric matrix from a full row-major square `rows`,
    /// symmetrizing as `(a_ij + a_ji) / 2`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not square.
    #[cfg(test)]
    pub(crate) fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        for r in rows {
            assert_eq!(r.len(), n, "matrix must be square");
        }
        let mut m = Self::zeros(n);
        for i in 0..n {
            for j in 0..n {
                m.data[i * n + j] = (rows[i][j] + rows[j][i]) / 2.0;
            }
        }
        m
    }

    /// Element at `(i, j)`.
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Sets elements `(i, j)` and `(j, i)` to `v`.
    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
        self.data[j * self.n + i] = v;
    }

    /// Sum of squares of all off-diagonal elements; the Jacobi convergence
    /// criterion drives this to (numerical) zero.
    pub(crate) fn off_diagonal_norm_sq(&self) -> f64 {
        let mut s = 0.0;
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    let v = self.get(i, j);
                    s += v * v;
                }
            }
        }
        s
    }

    /// Computes the full eigendecomposition with the cyclic Jacobi method.
    ///
    /// Returns eigenpairs sorted by eigenvalue in **descending** order. Each
    /// eigenvector is returned as a length-`n` column. The decomposition
    /// satisfies `A v = lambda v` to roughly `1e-9` relative accuracy for
    /// well-conditioned inputs.
    pub(crate) fn eigen_jacobi(&self) -> Eigen {
        let n = self.n;
        if n == 0 {
            return Eigen {
                values: Vec::new(),
                vectors: Vec::new(),
            };
        }
        let mut a = self.clone();
        // Eigenvector accumulator, starts as identity.
        let mut v = vec![vec![0.0; n]; n];
        for (i, row) in v.iter_mut().enumerate() {
            row[i] = 1.0;
        }

        let max_sweeps = 100;
        let tol = 1e-12 * (1.0 + self.frobenius_norm());
        for _ in 0..max_sweeps {
            if a.off_diagonal_norm_sq().sqrt() <= tol {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a.get(p, q);
                    if apq.abs() <= f64::EPSILON * tol.max(1.0) {
                        continue;
                    }
                    let app = a.get(p, p);
                    let aqq = a.get(q, q);
                    let theta = (aqq - app) / (2.0 * apq);
                    // Stable computation of tan(phi).
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;

                    // Standard symmetric Jacobi update (Golub & Van Loan):
                    // rotate rows/columns p and q, zeroing a[p][q].
                    let new_pp = c * c * app - 2.0 * s * c * apq + s * s * aqq;
                    let new_qq = s * s * app + 2.0 * s * c * apq + c * c * aqq;
                    a.set(p, p, new_pp);
                    a.set(q, q, new_qq);
                    a.set(p, q, 0.0);
                    for k in 0..n {
                        if k == p || k == q {
                            continue;
                        }
                        let akp = a.get(k, p);
                        let akq = a.get(k, q);
                        a.set(k, p, c * akp - s * akq);
                        a.set(k, q, s * akp + c * akq);
                    }

                    // Accumulate the rotation into the eigenvector matrix.
                    for row in v.iter_mut() {
                        let vp = row[p];
                        let vq = row[q];
                        row[p] = c * vp - s * vq;
                        row[q] = s * vp + c * vq;
                    }
                }
            }
        }

        let mut pairs: Vec<(f64, Vec<f64>)> = (0..n)
            .map(|j| (a.get(j, j), (0..n).map(|i| v[i][j]).collect()))
            .collect();
        pairs.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap_or(std::cmp::Ordering::Equal));
        Eigen {
            values: pairs.iter().map(|p| p.0).collect(),
            vectors: pairs.into_iter().map(|p| p.1).collect(),
        }
    }

    /// Frobenius norm of the matrix.
    pub(crate) fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not the matrix dimension.
    #[cfg(test)]
    pub(crate) fn mat_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        let mut y = vec![0.0; self.n];
        for i in 0..self.n {
            let row = &self.data[i * self.n..(i + 1) * self.n];
            y[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }
}

impl fmt::Display for SymMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.n {
            for j in 0..self.n {
                write!(f, "{:10.4} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Result of a symmetric eigendecomposition: eigenvalues in descending order
/// and the matching eigenvectors (unit columns).
#[derive(Debug, Clone)]
pub(crate) struct Eigen {
    /// Eigenvalues, descending.
    pub(crate) values: Vec<f64>,
    /// Eigenvectors; `vectors[k]` corresponds to `values[k]`.
    pub(crate) vectors: Vec<Vec<f64>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn diagonal_matrix_eigen() {
        let mut m = SymMatrix::zeros(3);
        m.set(0, 0, 3.0);
        m.set(1, 1, 1.0);
        m.set(2, 2, 2.0);
        let e = m.eigen_jacobi();
        assert_close(e.values[0], 3.0, 1e-9);
        assert_close(e.values[1], 2.0, 1e-9);
        assert_close(e.values[2], 1.0, 1e-9);
    }

    #[test]
    fn known_2x2_eigenvalues() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let m = SymMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = m.eigen_jacobi();
        assert_close(e.values[0], 3.0, 1e-9);
        assert_close(e.values[1], 1.0, 1e-9);
    }

    #[test]
    fn eigenvectors_satisfy_definition() {
        let m = SymMatrix::from_rows(&[
            vec![4.0, 1.0, -2.0],
            vec![1.0, 2.0, 0.0],
            vec![-2.0, 0.0, 3.0],
        ]);
        let e = m.eigen_jacobi();
        for (lambda, vec_) in e.values.iter().zip(&e.vectors) {
            let av = m.mat_vec(vec_);
            for (avi, vi) in av.iter().zip(vec_) {
                assert_close(*avi, lambda * vi, 1e-8);
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = SymMatrix::from_rows(&[
            vec![5.0, 2.0, 0.0, 1.0],
            vec![2.0, 6.0, 1.0, 0.0],
            vec![0.0, 1.0, 7.0, 3.0],
            vec![1.0, 0.0, 3.0, 8.0],
        ]);
        let e = m.eigen_jacobi();
        for i in 0..4 {
            for j in 0..4 {
                let dot: f64 = e.vectors[i]
                    .iter()
                    .zip(&e.vectors[j])
                    .map(|(a, b)| a * b)
                    .sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert_close(dot, expect, 1e-8);
            }
        }
    }

    #[test]
    fn trace_equals_sum_of_eigenvalues() {
        let m = SymMatrix::from_rows(&[
            vec![1.0, 0.5, 0.2],
            vec![0.5, -2.0, 0.3],
            vec![0.2, 0.3, 4.0],
        ]);
        let e = m.eigen_jacobi();
        let trace = 1.0 - 2.0 + 4.0;
        assert_close(e.values.iter().sum::<f64>(), trace, 1e-9);
    }

    #[test]
    fn empty_matrix() {
        let m = SymMatrix::zeros(0);
        let e = m.eigen_jacobi();
        assert!(e.values.is_empty());
        assert!(e.vectors.is_empty());
    }

    #[test]
    fn from_rows_symmetrizes() {
        let m = SymMatrix::from_rows(&[vec![0.0, 2.0], vec![0.0, 0.0]]);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
    }

    #[test]
    #[should_panic]
    fn non_square_panics() {
        SymMatrix::from_rows(&[vec![1.0, 2.0]]);
    }
}
